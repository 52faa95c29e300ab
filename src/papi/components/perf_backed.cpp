#include "papi/components/perf_backed.hpp"

#include "papi/retry.hpp"

namespace hetpapi::papi {

using simkernel::kIocFlagGroup;

namespace {

/// One group-wide ioctl on a leader, through the transient retry.
Status group_ioctl(Backend& backend, int leader_fd, PerfIoctl op) {
  return retry_transient(kTransientRetryAttempts, [&] {
    return backend.perf_ioctl(leader_fd, op, kIocFlagGroup);
  });
}

Expected<bool> poll_ring(Backend& backend, int fd) {
  return retry_transient(kTransientRetryAttempts,
                         [&] { return backend.perf_ring_poll(fd); });
}

}  // namespace

std::unique_ptr<ComponentState> PerfBackedComponent::create_state() const {
  return std::make_unique<PerfState>();
}

void PerfBackedComponent::map_ring(Slot& slot) const {
  if (slot.request.sample_period == 0) return;
  auto ring = env_.backend->perf_mmap_ring(slot.fd);
  if (ring) {
    slot.ring = *ring;
    slot.ring_mapped = true;
  } else {
    slot.ring_denied = true;
  }
}

Status PerfBackedComponent::open_slot(ComponentState& state,
                                      const SlotRequest& request,
                                      const MeasureTarget& target) {
  PerfState& ps = perf_state(state);
  if (request.sample_period > 0 && request.sample_source == nullptr) {
    return make_error(StatusCode::kBug, "sampling slot without a source");
  }
  const pfm::ActivePmu* pmu = env_.pfm->find_pmu(request.enc.pmu_name);
  if (pmu == nullptr) {
    return make_error(StatusCode::kBug, "unknown PMU at open time");
  }
  auto binding = bind(*pmu, target);
  if (!binding) return binding.status();

  // Find or create the group for this PMU type. Multiplexed sets make
  // every event its own leader so the kernel can rotate them freely.
  Group* group = nullptr;
  if (!target.multiplexed) {
    for (Group& g : ps.groups) {
      if (g.perf_type == request.enc.perf_type) {
        group = &g;
        break;
      }
    }
  }

  PerfEventAttr attr;
  attr.type = request.enc.perf_type;
  attr.config = request.enc.config;
  attr.sample_period = request.sample_period;
  attr.read_format = simkernel::kFormatGroup |
                     simkernel::kFormatTotalTimeEnabled |
                     simkernel::kFormatTotalTimeRunning;

  if (group == nullptr) {
    if (ps.groups.full() ||
        (!target.multiplexed && ps.groups.size() >= kMaxPmuGroups)) {
      return make_error(StatusCode::kNoMemory,
                        "EventSet exceeds the static group array (" +
                            std::to_string(kMaxPmuGroups) + " PMU groups)");
    }
    attr.disabled = true;  // leaders start disabled; PAPI_start enables
    auto fd = retry_transient(kTransientRetryAttempts, [&] {
      return env_.backend->perf_event_open(attr, binding->tid, binding->cpu,
                                           -1, 0);
    });
    if (!fd) return fd.status();
    Group new_group;
    new_group.perf_type = request.enc.perf_type;
    new_group.leader_fd = *fd;
    new_group.members.push_back(static_cast<int>(ps.slots.size()));
    ps.groups.push_back(new_group);
    ps.slots.push_back(Slot{request, *fd});
    map_ring(ps.slots.back());
    return Status::ok();
  }

  attr.disabled = false;  // siblings gate on their leader
  auto fd = retry_transient(kTransientRetryAttempts, [&] {
    return env_.backend->perf_event_open(attr, binding->tid, binding->cpu,
                                         group->leader_fd, 0);
  });
  if (!fd) return fd.status();
  if (group->members.full()) {
    (void)env_.backend->perf_close(*fd);
    return make_error(StatusCode::kNoMemory, "group member array full");
  }
  group->members.push_back(static_cast<int>(ps.slots.size()));
  ps.slots.push_back(Slot{request, *fd});
  map_ring(ps.slots.back());
  return Status::ok();
}

Status PerfBackedComponent::close_all(ComponentState& state) {
  PerfState& ps = perf_state(state);
  Status first_error = Status::ok();
  // Close siblings before leaders to avoid the kernel's sibling
  // promotion path.
  for (Group& group : ps.groups) {
    for (std::size_t i = group.members.size(); i-- > 1;) {
      Slot& slot = ps.slots[static_cast<std::size_t>(group.members[i])];
      if (slot.fd >= 0) {
        const Status s = env_.backend->perf_close(slot.fd);
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        slot.fd = -1;
      }
    }
    if (!group.members.empty()) {
      Slot& leader = ps.slots[static_cast<std::size_t>(group.members[0])];
      if (leader.fd >= 0) {
        const Status s = env_.backend->perf_close(leader.fd);
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        leader.fd = -1;
      }
    }
  }
  // Slots not reachable through a group (defensive; rollback paths close
  // through here too).
  for (Slot& slot : ps.slots) {
    if (slot.fd >= 0) {
      const Status s = env_.backend->perf_close(slot.fd);
      if (!s.is_ok() && first_error.is_ok()) first_error = s;
      slot.fd = -1;
    }
  }
  ps.groups.clear();
  ps.slots.clear();
  ps.enabled = false;
  return first_error;
}

Status PerfBackedComponent::start(ComponentState& state) {
  // The multi-group fan-out at the heart of §IV-E: reset + enable every
  // PMU group belonging to this EventSet. A failure enabling group k
  // disables groups 0..k-1 again (best effort) so a failed start never
  // leaves counters silently running.
  PerfState& ps = perf_state(state);
  Backend& backend = *env_.backend;
  for (std::size_t g = 0; g < ps.groups.size(); ++g) {
    const int leader = ps.groups[g].leader_fd;
    Status s = group_ioctl(backend, leader, PerfIoctl::kReset);
    if (s.is_ok()) s = group_ioctl(backend, leader, PerfIoctl::kEnable);
    if (!s.is_ok()) {
      for (std::size_t k = g; k-- > 0;) {
        (void)group_ioctl(backend, ps.groups[k].leader_fd,
                          PerfIoctl::kDisable);
      }
      return s;
    }
  }
  ps.enabled = true;
  return Status::ok();
}

Status PerfBackedComponent::stop(ComponentState& state) {
  // Keep disabling the remaining groups after a failure — stop must
  // quiesce as much as it can; the first error is still reported.
  PerfState& ps = perf_state(state);
  Status first_error = Status::ok();
  for (const Group& group : ps.groups) {
    const Status s =
        group_ioctl(*env_.backend, group.leader_fd, PerfIoctl::kDisable);
    if (!s.is_ok() && first_error.is_ok()) first_error = s;
  }
  ps.enabled = false;
  return first_error;
}

Status PerfBackedComponent::reset(ComponentState& state) {
  PerfState& ps = perf_state(state);
  for (const Group& group : ps.groups) {
    HETPAPI_RETURN_IF_ERROR(
        group_ioctl(*env_.backend, group.leader_fd, PerfIoctl::kReset));
  }
  return Status::ok();
}

bool PerfBackedComponent::kernel_groups(
    const ComponentState& state, std::vector<KernelGroupMember>& out) const {
  const PerfState& ps = perf_state(state);
  for (const Group& group : ps.groups) {
    for (int member : group.members) {
      const Slot& slot = ps.slots[static_cast<std::size_t>(member)];
      out.push_back({group.leader_fd, slot.fd, slot.request.global_index});
    }
  }
  return true;
}

void PerfBackedComponent::drain_ring(const Slot& slot, SampleBatch& batch) {
  // Every SAMPLE record spans at least record_size bytes, so this bounds
  // the pass's samples: one reservation, none on a reused batch.
  const std::uint64_t record_size =
      simkernel::perf_sample_record_size(slot.ring.sample_type);
  const std::uint64_t queued = simkernel::perf_ring_queued(*slot.ring.page);
  batch.samples.reserve(batch.samples.size() +
                        static_cast<std::size_t>(queued / record_size));

  const SampleSource& source = *slot.request.sample_source;
  simkernel::PerfRingCursor cursor(slot.ring);
  simkernel::PerfEventHeader header;
  simkernel::PerfRecordScratch scratch;
  while (const std::uint8_t* body = cursor.next(&header, scratch)) {
    const std::size_t body_size = header.size - sizeof(header);
    if (header.type == simkernel::kPerfRecordSample) {
      simkernel::PerfSampleParsed parsed;
      if (!simkernel::perf_parse_sample(slot.ring.sample_type, body,
                                        body_size, &parsed)) {
        ++batch.malformed;
        continue;
      }
      // One aggregate, not emplace_back() and eleven stores: GCC
      // zero-fills a default Sample with `rep stos` first, whose start-up
      // cost was most of a record's decode.
      batch.samples.push_back(Sample{
          .eventset = slot.request.eventset_id,
          .user_event_index = slot.request.user_event_index,
          .native_name = source.native_name,
          .pmu_name = source.pmu_name,
          .core_type = source.core_type,
          .ip = parsed.ip,
          .tid = parsed.tid,
          .time_ns = parsed.time,
          .cpu = static_cast<int>(parsed.cpu),
          .period = parsed.period,
      });
    } else if (header.type == simkernel::kPerfRecordLost) {
      simkernel::PerfLostParsed lost;
      if (simkernel::perf_parse_lost(body, body_size, &lost)) {
        batch.lost += lost.lost;
      } else {
        ++batch.malformed;
      }
    }
    // Unknown record types are skipped: forward ABI compatibility.
  }
  if (cursor.malformed()) ++batch.malformed;
  cursor.commit();
}

Status PerfBackedComponent::drain_samples(ComponentState& state,
                                          SampleBatch& batch) {
  PerfState& ps = perf_state(state);
  for (Slot& slot : ps.slots) {
    if (slot.request.sample_period == 0 || slot.fd < 0) continue;
    if (slot.ring_denied || !slot.ring_mapped) {
      // Counting-mode degradation: no ring, so no samples and no
      // callbacks — the slot only counts.
      ++batch.rings_denied;
      continue;
    }

    // The wakeup surface is an advisory hint, never ground truth: the
    // drain trusts the ring's head/tail cursors. A transiently failing
    // poll retries within the budget; a persistent stall skips the slot
    // for this pass only — its records stay queued in the ring. A hard
    // poll failure (e.g. a backend without a poll surface) proceeds
    // straight to the ring, which is the source of truth.
    const auto fired = poll_ring(*env_.backend, slot.fd);
    if (!fired && fired.status().code() == StatusCode::kInterrupted) {
      ++batch.drains_stalled;
      continue;
    }

    const std::uint64_t queued = simkernel::perf_ring_queued(*slot.ring.page);
    if (queued == 0) continue;
    if (fired && !*fired) {
      // Dropped wakeup: the hint said "nothing", the ring disagrees.
      // Drain anyway — only a reader that trusts poll over head/tail
      // can lose data here.
      ++batch.wakeups_missed;
    }

    // A ring with less room than a LOST record plus a SAMPLE record may
    // hold back a LOST record the kernel could not write. While the
    // counters run, the next sample write publishes it in-band for a
    // later pass. Once stopped no write comes, so poll again after this
    // pass frees the space — the poll publishes it — and drain once
    // more: one read_samples after stop() returns every record and
    // every LOST count. Roomier rings skip the extra backend call.
    const bool maybe_lost_pending =
        !ps.enabled &&
        slot.ring.size - queued <
            simkernel::kPerfLostRecordSize +
                simkernel::perf_sample_record_size(slot.ring.sample_type);
    drain_ring(slot, batch);
    if (maybe_lost_pending) {
      (void)poll_ring(*env_.backend, slot.fd);
      drain_ring(slot, batch);
    }
  }
  return Status::ok();
}

}  // namespace hetpapi::papi
