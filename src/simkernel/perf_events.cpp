#include "simkernel/perf_events.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace hetpapi::simkernel {

namespace {
Status bad_fd() { return make_error(StatusCode::kInvalidArgument, "bad fd"); }
}  // namespace

void PerfSubsystem::publish_user_page(EventObj& ev) {
  PerfUserPage* page = ev.user_page.get();
  if (page == nullptr) return;
  const bool resident = ev.enabled && ev.scheduled && ev.core_match;
  ++page->lock;  // odd: update in progress
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (resident) {
    if (page->index == 0 || ev.value < ev.pmc_base) {
      // Residency (re)gained, or the counter was RESET below its base:
      // re-anchor so offset + pmc always reconstructs `value`.
      ev.pmc_base = ev.value;
    }
    page->index = static_cast<std::uint32_t>(ev.counter_slot) + 1;
    page->offset = static_cast<std::int64_t>(ev.pmc_base);
    page->sim_pmc = ev.value - ev.pmc_base;
  } else {
    page->index = 0;
    page->offset = 0;
    page->sim_pmc = 0;
  }
  page->time_enabled = static_cast<std::uint64_t>(ev.time_enabled.count());
  page->time_running = static_cast<std::uint64_t>(ev.time_running.count());
  std::atomic_signal_fence(std::memory_order_seq_cst);
  ++page->lock;  // even: consistent again
}

PerfSubsystem::PerfSubsystem(const PmuRegistry* pmus, Config config)
    : pmus_(pmus), config_(config) {}

PerfSubsystem::Context& PerfSubsystem::context_of(const EventObj& ev) {
  return contexts_[{scope_key(ev.tid, ev.cpu), ev.pmu->type_id}];
}

std::vector<PerfSubsystem::EventObj*>& PerfSubsystem::scope_list(
    const EventObj& ev) {
  auto& index = ev.tid >= 0 ? tid_index_ : cpu_index_;
  const auto slot = static_cast<std::size_t>(ev.tid >= 0 ? ev.tid : ev.cpu);
  if (slot >= index.size()) index.resize(slot + 1);
  return index[slot];
}

void PerfSubsystem::index_event(EventObj& ev) {
  scope_list(ev).push_back(&ev);
}

void PerfSubsystem::unindex_event(EventObj& ev) {
  std::erase(scope_list(ev), &ev);
}

int PerfSubsystem::gp_counters_needed(const EventObj& leader) const {
  const auto needs_gp = [&](const EventObj& ev) {
    if (ev.pmu->pmu_class == PmuClass::kSoftware) return false;
    return !ev.pmu->is_fixed(ev.kind);
  };
  int needed = needs_gp(leader) ? 1 : 0;
  for (const EventObj* sib : leader.sibling_ptrs) {
    if (needs_gp(*sib)) ++needed;
  }
  return needed;
}

Expected<int> PerfSubsystem::open(const PerfEventAttr& attr, Tid tid, int cpu,
                                  int group_fd, std::uint64_t flags,
                                  const PackageCounters& pkg, SimTime now) {
  (void)flags;  // only FD_CLOEXEC is defined and it is a no-op here
  if (static_cast<int>(live_events_) >= config_.max_open_fds) {
    return make_error(StatusCode::kNoMemory, "fd table full");
  }
  const PmuDesc* pmu = pmus_->find_by_type(attr.type);
  if (pmu == nullptr) {
    // ENOENT: no PMU with this type id (e.g. asking for cpu_atom on a
    // traditional machine).
    return make_error(StatusCode::kNotFound,
                      "no PMU with type " + std::to_string(attr.type));
  }
  if (attr.config >= kNumCountKinds) {
    return make_error(StatusCode::kInvalidArgument, "config out of range");
  }
  const auto kind = static_cast<CountKind>(attr.config);
  if (!pmu->supports(kind)) {
    // The "event does not exist on this core type" case (§IV-A), e.g.
    // topdown slots on the E-core PMU.
    return make_error(StatusCode::kNotFound,
                      pmu->sysfs_name + " does not implement this event");
  }

  // Scope validation.
  if (tid < 0 && cpu < 0) {
    return make_error(StatusCode::kInvalidArgument, "need a tid or a cpu");
  }
  switch (pmu->pmu_class) {
    case PmuClass::kRapl:
    case PmuClass::kUncore:
      // Package-scope PMUs reject task binding (EINVAL on real kernels).
      if (tid >= 0) {
        return make_error(StatusCode::kInvalidArgument,
                          pmu->sysfs_name + " events are cpu-scoped only");
      }
      [[fallthrough]];
    case PmuClass::kCore:
      if (cpu >= 0 &&
          std::find(pmu->cpus.begin(), pmu->cpus.end(), cpu) ==
              pmu->cpus.end()) {
        // Binding a cpu_atom event to a P-core cpu: ENXIO-equivalent.
        return make_error(StatusCode::kInvalidArgument,
                          "cpu " + std::to_string(cpu) + " not served by " +
                              pmu->sysfs_name);
      }
      break;
    case PmuClass::kSoftware:
      break;
  }

  auto owned = std::make_unique<EventObj>();
  EventObj& ev = *owned;
  ev.attr = attr;
  ev.pmu = pmu;
  ev.kind = kind;
  ev.tid = tid;
  ev.cpu = cpu;

  if (group_fd >= 0) {
    EventObj* leader = find(group_fd);
    if (leader == nullptr) {
      return make_error(StatusCode::kInvalidArgument, "group_fd not open");
    }
    if (!leader->is_leader()) {
      return make_error(StatusCode::kInvalidArgument,
                        "group_fd is not a group leader");
    }
    if (leader->tid != tid || leader->cpu != cpu) {
      return make_error(StatusCode::kInvalidArgument,
                        "group members must share the leader's scope");
    }
    // The restriction at the heart of the paper: one group, one PMU.
    // Software events are the kernel's sanctioned exception.
    const bool sibling_is_software = pmu->pmu_class == PmuClass::kSoftware;
    if (leader->pmu->type_id != pmu->type_id && !sibling_is_software) {
      return make_error(
          StatusCode::kInvalidArgument,
          "cannot group " + pmu->sysfs_name + " event under " +
              leader->pmu->sysfs_name + " leader: groups cannot span PMUs");
    }
    ev.leader_fd = group_fd;
  }

  const int fd = next_fd_++;
  ev.fd = fd;
  if (ev.leader_fd < 0) ev.leader_fd = fd;

  ev.enabled = !attr.disabled;
  if (ev.enabled) {
    ev.enabled_at = now;
    if (ev.is_readthrough()) ev.base = pkg.get(ev.kind);
  }
  if (attr.sample_period > 0) {
    if ((attr.sample_type &
         ~static_cast<std::uint64_t>(kSampleTypeDefault)) != 0) {
      // EINVAL, the way the kernel rejects sample_type bits it does not
      // implement.
      return make_error(StatusCode::kInvalidArgument,
                        "unsupported sample_type bits");
    }
    ev.next_overflow_at = attr.sample_period;
    if (ev.attr.sample_type == 0) ev.attr.sample_type = kSampleTypeDefault;
  }

  if (pmu->pmu_class == PmuClass::kCore) {
    // Mint the event's perf_event_mmap_page; reschedule() below
    // publishes the initial residency state through it.
    ev.user_page = std::make_unique<PerfUserPage>();
    ev.user_page->version = 1;
    ev.user_page->size = sizeof(PerfUserPage);
    ev.user_page->pmc_width = 48;
    ev.user_page->sim_magic = kSimUserPageMagic;
    if (config_.user_rdpmc) ev.user_page->capabilities |= kCapUserRdpmc;
    if (attr.sample_period > 0) {
      // The sample ring: capacity counts records of this event's layout
      // (the sim relaxes the kernel's power-of-two page constraint; the
      // writer and the cursor split their copies at the wrap point, so
      // any size works).
      ev.ring_data.assign(config_.sample_ring_capacity *
                              perf_sample_record_size(ev.attr.sample_type),
                          0);
      ev.user_page->data_offset = 4096;  // ABI shape: data follows the page
      ev.user_page->data_size = ev.ring_data.size();
    }
  }

  // fds are monotonic, so the new one is past every slot in use; a
  // rejected open above may have consumed an fd, leaving a null gap.
  events_.resize(static_cast<std::size_t>(fd) + 1);
  events_[static_cast<std::size_t>(fd)] = std::move(owned);
  ++live_events_;
  if (ev.leader_fd != fd) {
    find(ev.leader_fd)->sibling_ptrs.push_back(&ev);
  } else {
    Context& ctx = context_of(ev);
    ctx.group_leaders.push_back(fd);
  }
  index_event(ev);
  reschedule(context_of(ev));
  return fd;
}

void PerfSubsystem::set_needs_rotation(Context& ctx, bool needs) {
  rotating_contexts_ += static_cast<int>(needs) -
                        static_cast<int>(ctx.needs_rotation);
  ctx.needs_rotation = needs;
}

void PerfSubsystem::reschedule(Context& ctx) {
  if (ctx.group_leaders.empty()) {
    set_needs_rotation(ctx, false);
    return;
  }
  // All groups in one context share a PMU by construction.
  const EventObj* first = find(ctx.group_leaders.front());
  if (first == nullptr) return;
  int remaining = first->pmu->num_gp_counters;
  bool overflow = false;

  // Pinned groups first, then rotation order.
  int next_slot = 0;
  const auto place = [&](EventObj* leader) {
    const bool active = leader->enabled;
    bool placed = false;
    if (active) {
      const int need = gp_counters_needed(*leader);
      if (need <= remaining) {
        remaining -= need;
        placed = true;
      } else {
        overflow = true;
      }
    }
    leader->scheduled = placed && leader->enabled;
    if (leader->scheduled) leader->counter_slot = next_slot++;
    publish_user_page(*leader);
    for (EventObj* sib : leader->sibling_ptrs) {
      sib->scheduled = placed && sib->enabled;
      if (sib->scheduled) sib->counter_slot = next_slot++;
      publish_user_page(*sib);
    }
  };
  for (const bool pinned : {true, false}) {
    for (int fd : ctx.group_leaders) {
      EventObj* leader = find(fd);
      if (leader != nullptr && leader->attr.pinned == pinned) place(leader);
    }
  }
  set_needs_rotation(ctx, overflow);
}

void PerfSubsystem::rotate(SimTime now) {
  if (rotating_contexts_ == 0) return;
  for (auto& [key, ctx] : contexts_) {
    if (!ctx.needs_rotation || ctx.group_leaders.size() < 2) continue;
    if (now - ctx.last_rotation < config_.rotation_period) continue;
    ctx.last_rotation = now;
    // Pinned leaders move to the front in order (an in-place stable
    // partition) and never rotate out; the rest rotate by one.
    auto flexible = ctx.group_leaders.begin();
    for (auto it = flexible; it != ctx.group_leaders.end(); ++it) {
      const EventObj* leader = find(*it);
      if (leader != nullptr && leader->attr.pinned) {
        std::rotate(flexible++, it, it + 1);
      }
    }
    if (ctx.group_leaders.end() - flexible >= 2) {
      std::rotate(flexible, flexible + 1, ctx.group_leaders.end());
    }
    reschedule(ctx);
  }
}

Status PerfSubsystem::do_ioctl_one(EventObj& ev, PerfIoctl op,
                                   const PackageCounters& pkg, SimTime now) {
  switch (op) {
    case PerfIoctl::kEnable:
      if (!ev.enabled) {
        ev.enabled = true;
        ev.enabled_at = now;
        if (ev.is_readthrough()) ev.base = pkg.get(ev.kind);
      }
      break;
    case PerfIoctl::kDisable:
      if (ev.enabled) {
        if (ev.is_readthrough()) {
          ev.value += pkg.get(ev.kind) - ev.base;
          const SimDuration window = now - ev.enabled_at;
          ev.time_enabled += window;
          ev.time_running += window;
        }
        ev.enabled = false;
      }
      break;
    case PerfIoctl::kReset:
      // Kernel semantics: RESET zeroes the count, not the times.
      ev.value = 0;
      if (ev.attr.sample_period > 0) {
        ev.next_overflow_at = ev.attr.sample_period;  // re-arm sampling
      }
      if (ev.is_readthrough() && ev.enabled) ev.base = pkg.get(ev.kind);
      break;
    default:
      return make_error(StatusCode::kInvalidArgument, "bad ioctl");
  }
  // RESET never runs through reschedule(), so the page must be
  // republished here; for enable/disable the reschedule republish makes
  // this redundant but harmless.
  publish_user_page(ev);
  return Status::ok();
}

Status PerfSubsystem::ioctl(int fd, PerfIoctl op, std::uint32_t flags,
                            const PackageCounters& pkg, SimTime now) {
  EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  HETPAPI_RETURN_IF_ERROR(do_ioctl_one(*ev, op, pkg, now));
  if ((flags & kIocFlagGroup) != 0 && ev->is_leader()) {
    for (EventObj* sib : ev->sibling_ptrs) {
      HETPAPI_RETURN_IF_ERROR(do_ioctl_one(*sib, op, pkg, now));
    }
  }
  if (op == PerfIoctl::kEnable || op == PerfIoctl::kDisable) {
    reschedule(context_of(*ev));
  }
  return Status::ok();
}

void PerfSubsystem::add_package_window(const EventObj& ev,
                                       const LazyPackageCounters& pkg,
                                       SimTime now, PerfValue& out) const {
  out.value += pkg.get().get(ev.kind) - ev.base;
  const auto window =
      static_cast<std::uint64_t>((now - ev.enabled_at).count());
  out.time_enabled_ns += window;
  out.time_running_ns += window;
}

Expected<PerfValue> PerfSubsystem::read(int fd,
                                        const LazyPackageCounters& pkg,
                                        SimTime now) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  return snapshot(*ev, pkg, now);
}

Status PerfSubsystem::read_group_into(int fd,
                                      const LazyPackageCounters& pkg,
                                      SimTime now,
                                      std::vector<PerfValue>& out) const {
  const EventObj* leader = find(fd);
  if (leader == nullptr) {
    out.clear();
    return bad_fd();
  }
  if (!leader->is_leader()) {
    out.clear();
    return make_error(StatusCode::kInvalidArgument,
                      "group read requires the leader fd");
  }
  // The sibling fan-out uses the cached pointers: no per-sibling fd
  // lookup on this per-sample hot path, and no allocation once `out`
  // has grown to the group's size.
  out.resize(1 + leader->sibling_ptrs.size());
  out[0] = snapshot(*leader, pkg, now);
  for (std::size_t i = 0; i < leader->sibling_ptrs.size(); ++i) {
    out[i + 1] = snapshot(*leader->sibling_ptrs[i], pkg, now);
  }
  return Status::ok();
}

Expected<const PerfUserPage*> PerfSubsystem::mmap_user_page(int fd) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  if (ev->user_page == nullptr) {
    return make_error(StatusCode::kNotSupported,
                      "only core PMU events carry a user page");
  }
  return const_cast<const PerfUserPage*>(ev->user_page.get());
}

Status PerfSubsystem::close(int fd) {
  EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  unindex_event(*ev);
  if (ev->is_leader()) {
    // Kernel behaviour: closing a leader promotes each sibling to a
    // singleton group in the same context.
    Context& ctx = context_of(*ev);
    std::erase(ctx.group_leaders, fd);
    for (EventObj* sib : ev->sibling_ptrs) {
      sib->leader_fd = sib->fd;
      ctx.group_leaders.push_back(sib->fd);
    }
    events_[static_cast<std::size_t>(fd)].reset();
    --live_events_;
    reschedule(ctx);
    return Status::ok();
  }
  // Detach from leader.
  EventObj* leader = find(ev->leader_fd);
  if (leader != nullptr) {
    std::erase(leader->sibling_ptrs, ev);
  }
  Context& ctx = context_of(*ev);
  events_[static_cast<std::size_t>(fd)].reset();
  --live_events_;
  reschedule(ctx);
  return Status::ok();
}

void PerfSubsystem::on_execution(Tid tid, Tid leader, int cpu,
                                 cpumodel::CoreTypeId core_type,
                                 const ExecCounts& counts, SimDuration dt,
                                 SimTime now, std::uint64_t ip) {
  // The slice touches events bound to the thread itself plus events
  // opened with attr.inherit on the process-group leader. Both index
  // lists are fd-sorted; merge them so events are visited in fd order,
  // exactly as the old full-table scan did.
  const std::span<EventObj* const> direct = scope_events(tid_index_, tid);
  const std::span<EventObj* const> inherited =
      scope_events(tid_index_, leader != tid ? leader : kInvalidTid);

  std::size_t di = 0;
  std::size_t li = 0;
  while (di < direct.size() || li < inherited.size()) {
    EventObj* ev = nullptr;
    if (li >= inherited.size() ||
        (di < direct.size() && direct[di]->fd < inherited[li]->fd)) {
      ev = direct[di++];
    } else {
      ev = inherited[li++];
      if (!ev->attr.inherit) continue;
    }
    if (!ev->enabled) continue;
    if (ev->cpu >= 0 && ev->cpu != cpu) continue;
    if (ev->pmu->pmu_class == PmuClass::kSoftware) {
      ev->time_enabled += dt;
      ev->time_running += dt;
      if (ev->kind == CountKind::kTaskClockNs) {
        ev->value += static_cast<std::uint64_t>(dt.count());
      }
      continue;
    }
    if (ev->pmu->pmu_class != PmuClass::kCore) continue;
    if (ev->pmu->core_type != core_type) {
      // The thread migrated to a core type this event's PMU does not
      // serve: flip the user page to non-resident (index 0) so the
      // userspace fast path falls back to the fd read.
      if (ev->core_match) {
        ev->core_match = false;
        publish_user_page(*ev);
      }
      continue;
    }
    ev->core_match = true;
    apply_counts(*ev, counts, dt, dt, cpu, tid, now, ip);
  }
}

void PerfSubsystem::on_cpu_execution(int cpu, cpumodel::CoreTypeId core_type,
                                     const ExecCounts& counts,
                                     SimDuration dt, Tid tid, SimTime now,
                                     std::uint64_t ip) {
  for (EventObj* ev : scope_events(cpu_index_, cpu)) {
    if (!ev->enabled) continue;
    if (ev->pmu->pmu_class != PmuClass::kCore) continue;
    if (ev->pmu->core_type != core_type) continue;
    apply_counts(*ev, counts, dt, dt, cpu, tid, now, ip);
  }
}

PerfRingView PerfSubsystem::ring_view(EventObj& ev) {
  PerfRingView view;
  view.page = ev.user_page.get();
  view.data = ev.ring_data.data();
  view.size = ev.ring_data.size();
  view.sample_type = ev.attr.sample_type;
  return view;
}

bool PerfSubsystem::ring_write(EventObj& ev, const void* bytes,
                               std::size_t size) {
  PerfUserPage* page = ev.user_page.get();
  if (page == nullptr) return false;
  return perf_ring_write(*page, ev.ring_data.data(), ev.ring_data.size(),
                         bytes, size);
}

bool PerfSubsystem::ring_flush_lost(EventObj& ev) {
  if (ev.pending_lost == 0) return true;
  struct {
    PerfEventHeader hdr;
    std::uint64_t id;
    std::uint64_t lost;
  } lost_rec{};
  lost_rec.hdr.type = kPerfRecordLost;
  lost_rec.hdr.misc = kPerfRecordMiscUser;
  static_assert(sizeof(lost_rec) == kPerfLostRecordSize);
  lost_rec.hdr.size = sizeof(lost_rec);
  lost_rec.id = static_cast<std::uint64_t>(ev.fd);
  lost_rec.lost = ev.pending_lost;
  if (!ring_write(ev, &lost_rec, sizeof(lost_rec))) return false;
  ev.pending_lost = 0;
  return true;
}

void PerfSubsystem::ring_emit_sample(EventObj& ev, std::uint64_t ip, Tid tid,
                                     int cpu, SimTime now) {
  // A deferred LOST record goes in front of any newer sample so the
  // stream stays ordered; until it fits, new samples keep dropping.
  if (!ring_flush_lost(ev)) {
    ++ev.pending_lost;
    return;
  }

  const std::uint64_t sample_type = ev.attr.sample_type;
  std::uint8_t buf[sizeof(PerfEventHeader) + 5 * 8];
  PerfEventHeader hdr;
  hdr.type = kPerfRecordSample;
  hdr.misc = kPerfRecordMiscUser;
  hdr.size = static_cast<std::uint16_t>(perf_sample_record_size(sample_type));
  std::memcpy(buf, &hdr, sizeof(hdr));
  std::size_t at = sizeof(hdr);
  const auto put64 = [&](std::uint64_t v) {
    std::memcpy(buf + at, &v, sizeof(v));
    at += sizeof(v);
  };
  if (sample_type & kSampleIp) put64(ip);
  if (sample_type & kSampleTid) {
    // u32 pid | u32 tid; the sim's threads are their own pids.
    const auto t = static_cast<std::uint32_t>(tid);
    put64(static_cast<std::uint64_t>(t) | (static_cast<std::uint64_t>(t) << 32));
  }
  if (sample_type & kSampleTime) {
    put64(static_cast<std::uint64_t>(now.since_epoch.count()));
  }
  if (sample_type & kSampleCpu) {
    put64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(cpu)));
  }
  if (sample_type & kSamplePeriod) put64(ev.attr.sample_period);

  if (!ring_write(ev, buf, at)) {
    ++ev.pending_lost;
    return;
  }
  if (ev.attr.wakeup_events == 0) {
    ++ev.wakeups_pending;
  } else if (++ev.samples_since_wakeup >= ev.attr.wakeup_events) {
    ev.samples_since_wakeup = 0;
    ++ev.wakeups_pending;
  }
}

void PerfSubsystem::apply_counts(EventObj& ev, const ExecCounts& counts,
                                 SimDuration wall, SimDuration running,
                                 int cpu, Tid tid, SimTime now,
                                 std::uint64_t ip) {
  ev.time_enabled += wall;
  if (!ev.scheduled) {
    publish_user_page(ev);  // keep the page's time_enabled moving
    return;
  }
  ev.time_running += running;
  ev.value += counts.get(ev.kind);
  publish_user_page(ev);

  // Sampling: one ring record per period crossed, coalesced at the
  // slice end (interrupt storms coalesce the same way on hardware), with
  // the threshold advanced past the current value.
  if (ev.attr.sample_period > 0 && ev.value >= ev.next_overflow_at) {
    const std::uint64_t periods =
        (ev.value - ev.next_overflow_at) / ev.attr.sample_period + 1;
    ev.total_overflows += periods;
    ev.next_overflow_at += periods * ev.attr.sample_period;
    for (std::uint64_t i = 0; i < periods; ++i) {
      ring_emit_sample(ev, ip, tid, cpu, now);
    }
  }
}

Expected<std::uint64_t> PerfSubsystem::overflow_count(int fd) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  return ev->total_overflows;
}

Expected<PerfRingView> PerfSubsystem::mmap_ring(int fd) {
  EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  if (ev->attr.sample_period == 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "event is in counting mode: no sample ring");
  }
  if (ev->user_page == nullptr || ev->ring_data.empty()) {
    return make_error(StatusCode::kNotSupported,
                      "only core PMU sampling events carry a ring");
  }
  return ring_view(*ev);
}

Expected<bool> PerfSubsystem::ring_poll(int fd) {
  EventObj* ev = find(fd);
  if (ev == nullptr) return bad_fd();
  if (ev->attr.sample_period == 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "event is in counting mode: nothing to poll");
  }
  // A poll is the reader's trip into the kernel: if a drain freed ring
  // space since the last write, publish the deferred LOST record now —
  // otherwise drops after the final sample of a finished thread would
  // stay invisible to a ring-only reader.
  if (ev->user_page != nullptr && !ev->ring_data.empty()) {
    (void)ring_flush_lost(*ev);
  }
  // Consume the pending wakeups: poll answers "did the counter wake you
  // since you last asked" — a hint; the ring head/tail words are the
  // ground truth a drain must consult regardless.
  const bool fired = ev->wakeups_pending > 0;
  ev->wakeups_pending = 0;
  return fired;
}

void PerfSubsystem::on_software(Tid tid, CountKind kind, std::uint64_t delta) {
  for (EventObj* ev : scope_events(tid_index_, tid)) {
    if (!ev->enabled) continue;
    if (ev->pmu->pmu_class != PmuClass::kSoftware) continue;
    if (ev->kind != kind) continue;
    ev->value += delta;
  }
}

}  // namespace hetpapi::simkernel
