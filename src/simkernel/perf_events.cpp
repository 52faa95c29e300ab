#include "simkernel/perf_events.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace hetpapi::simkernel {

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

PerfSubsystem::EventObj* PerfSubsystem::find(int fd) {
  const auto it = events_.find(fd);
  return it == events_.end() ? nullptr : &it->second;
}

const PerfSubsystem::EventObj* PerfSubsystem::find(int fd) const {
  const auto it = events_.find(fd);
  return it == events_.end() ? nullptr : &it->second;
}

PerfSubsystem::Context& PerfSubsystem::context_of(const EventObj& ev) {
  return contexts_[{scope_key(ev.tid, ev.cpu), ev.pmu->type_id}];
}

void PerfSubsystem::index_event(EventObj& ev) {
  if (ev.tid >= 0) {
    tid_index_[ev.tid].push_back(&ev);
  } else {
    cpu_index_[ev.cpu].push_back(&ev);
  }
}

void PerfSubsystem::unindex_event(EventObj& ev) {
  if (ev.tid >= 0) {
    const auto it = tid_index_.find(ev.tid);
    if (it != tid_index_.end()) std::erase(it->second, &ev);
  } else {
    const auto it = cpu_index_.find(ev.cpu);
    if (it != cpu_index_.end()) std::erase(it->second, &ev);
  }
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
  if (static_cast<int>(events_.size()) >= config_.max_open_fds) {
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

  EventObj ev;
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

  auto [it, inserted] = events_.emplace(fd, std::move(ev));
  EventObj& stored = it->second;
  if (stored.leader_fd != fd) {
    EventObj* leader = find(stored.leader_fd);
    leader->siblings.push_back(fd);
    leader->sibling_ptrs.push_back(&stored);
  } else {
    Context& ctx = context_of(stored);
    ctx.group_leaders.push_back(fd);
  }
  index_event(stored);
  reschedule(context_of(stored));
  return fd;
}

void PerfSubsystem::reschedule(Context& ctx) {
  if (ctx.group_leaders.empty()) {
    ctx.needs_rotation = false;
    return;
  }
  // All groups in one context share a PMU by construction.
  const EventObj* first = find(ctx.group_leaders.front());
  if (first == nullptr) return;
  const int total_gp = first->pmu->num_gp_counters;
  int remaining = total_gp;
  bool overflow = false;

  // Pinned groups first, then rotation order.
  std::vector<int> order;
  order.reserve(ctx.group_leaders.size());
  for (int fd : ctx.group_leaders) {
    const EventObj* leader = find(fd);
    if (leader != nullptr && leader->attr.pinned) order.push_back(fd);
  }
  for (int fd : ctx.group_leaders) {
    const EventObj* leader = find(fd);
    if (leader != nullptr && !leader->attr.pinned) order.push_back(fd);
  }

  int next_slot = 0;
  for (int fd : order) {
    EventObj* leader = find(fd);
    if (leader == nullptr) continue;
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
  }
  ctx.needs_rotation = overflow;
}

void PerfSubsystem::rotate(SimTime now) {
  for (auto& [key, ctx] : contexts_) {
    if (!ctx.needs_rotation || ctx.group_leaders.size() < 2) continue;
    if (now - ctx.last_rotation < config_.rotation_period) continue;
    ctx.last_rotation = now;
    // Skip pinned leaders: they never rotate out. Rotate the rest.
    std::vector<int> pinned;
    std::vector<int> flexible;
    for (int fd : ctx.group_leaders) {
      const EventObj* leader = find(fd);
      if (leader != nullptr && leader->attr.pinned) {
        pinned.push_back(fd);
      } else {
        flexible.push_back(fd);
      }
    }
    if (flexible.size() >= 2) {
      std::rotate(flexible.begin(), flexible.begin() + 1, flexible.end());
    }
    ctx.group_leaders = std::move(pinned);
    ctx.group_leaders.insert(ctx.group_leaders.end(), flexible.begin(),
                             flexible.end());
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
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  HETPAPI_RETURN_IF_ERROR(do_ioctl_one(*ev, op, pkg, now));
  if ((flags & kIocFlagGroup) != 0 && ev->is_leader()) {
    for (int sib_fd : ev->siblings) {
      EventObj* sib = find(sib_fd);
      if (sib != nullptr) {
        HETPAPI_RETURN_IF_ERROR(do_ioctl_one(*sib, op, pkg, now));
      }
    }
  }
  if (op == PerfIoctl::kEnable || op == PerfIoctl::kDisable) {
    reschedule(context_of(*ev));
  }
  return Status::ok();
}

PerfValue PerfSubsystem::snapshot(const EventObj& ev,
                                  const PackageCounters& pkg,
                                  SimTime now) const {
  PerfValue out;
  out.value = ev.value;
  out.time_enabled_ns =
      static_cast<std::uint64_t>(ev.time_enabled.count());
  out.time_running_ns =
      static_cast<std::uint64_t>(ev.time_running.count());
  if (ev.is_readthrough() && ev.enabled) {
    out.value += pkg.get(ev.kind) - ev.base;
    const auto window =
        static_cast<std::uint64_t>((now - ev.enabled_at).count());
    out.time_enabled_ns += window;
    out.time_running_ns += window;
  }
  return out;
}

Expected<PerfValue> PerfSubsystem::read(int fd, const PackageCounters& pkg,
                                        SimTime now) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  return snapshot(*ev, pkg, now);
}

Expected<std::vector<PerfValue>> PerfSubsystem::read_group(
    int fd, const PackageCounters& pkg, SimTime now) const {
  const EventObj* leader = find(fd);
  if (leader == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  if (!leader->is_leader()) {
    return make_error(StatusCode::kInvalidArgument,
                      "group read requires the leader fd");
  }
  // The sibling fan-out uses the cached pointers: no per-sibling fd
  // lookup on this per-sample hot path.
  std::vector<PerfValue> out;
  out.reserve(1 + leader->sibling_ptrs.size());
  out.push_back(snapshot(*leader, pkg, now));
  for (const EventObj* sib : leader->sibling_ptrs) {
    out.push_back(snapshot(*sib, pkg, now));
  }
  return out;
}

Expected<std::uint64_t> PerfSubsystem::rdpmc(int fd) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  if (ev->is_readthrough() ||
      ev->pmu->pmu_class == PmuClass::kSoftware) {
    return make_error(StatusCode::kNotSupported,
                      "rdpmc only serves core PMU counters");
  }
  if (!ev->enabled || !ev->scheduled) {
    // The mmap page publishes index 0 when the event is not resident;
    // userspace must fall back to read(2).
    return make_error(StatusCode::kNotRunning,
                      "event not resident on a counter");
  }
  return ev->value;
}

Expected<const PerfUserPage*> PerfSubsystem::mmap_user_page(int fd) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  if (ev->user_page == nullptr) {
    return make_error(StatusCode::kNotSupported,
                      "only core PMU events carry a user page");
  }
  return const_cast<const PerfUserPage*>(ev->user_page.get());
}

Status PerfSubsystem::close(int fd) {
  EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
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
    events_.erase(fd);
    reschedule(ctx);
    return Status::ok();
  }
  // Detach from leader.
  EventObj* leader = find(ev->leader_fd);
  if (leader != nullptr) {
    std::erase(leader->siblings, fd);
    std::erase(leader->sibling_ptrs, ev);
  }
  Context& ctx = context_of(*ev);
  events_.erase(fd);
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
  // exactly as the old full-table scan did (overflow handlers observe
  // that order).
  static const std::vector<EventObj*> kEmpty;
  const auto direct_it = tid_index_.find(tid);
  const std::vector<EventObj*>& direct =
      direct_it != tid_index_.end() ? direct_it->second : kEmpty;
  const auto leader_it =
      leader != tid ? tid_index_.find(leader) : tid_index_.end();
  const std::vector<EventObj*>& inherited =
      leader_it != tid_index_.end() ? leader_it->second : kEmpty;

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
    apply_counts(*ev, counts, dt, dt, cpu, core_type, tid, now, ip);
  }
}

void PerfSubsystem::on_cpu_execution(int cpu, cpumodel::CoreTypeId core_type,
                                     const ExecCounts& counts,
                                     SimDuration dt, Tid tid, SimTime now,
                                     std::uint64_t ip) {
  const auto it = cpu_index_.find(cpu);
  if (it == cpu_index_.end()) return;
  for (EventObj* ev : it->second) {
    if (!ev->enabled) continue;
    if (ev->pmu->pmu_class != PmuClass::kCore) continue;
    if (ev->pmu->core_type != core_type) continue;
    apply_counts(*ev, counts, dt, dt, cpu, core_type, tid, now, ip);
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
    ++ev.samples_lost;
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
    ++ev.samples_lost;
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
                                 int cpu, cpumodel::CoreTypeId core_type,
                                 Tid tid, SimTime now, std::uint64_t ip) {
  ev.time_enabled += wall;
  if (!ev.scheduled) {
    publish_user_page(ev);  // keep the page's time_enabled moving
    return;
  }
  ev.time_running += running;
  ev.value += counts.get(ev.kind);
  publish_user_page(ev);

  // Sampling: deliver one notification per slice that crosses period
  // boundaries (coalesced, as an interrupt storm would be), advancing
  // the threshold past the current value.
  if (ev.attr.sample_period > 0 && ev.value >= ev.next_overflow_at) {
    const std::uint64_t periods =
        (ev.value - ev.next_overflow_at) / ev.attr.sample_period + 1;
    ev.total_overflows += periods;
    ev.next_overflow_at += periods * ev.attr.sample_period;
    // Ring-buffer records: one per period, coalesced at the slice end
    // (interrupt storms coalesce the same way on hardware).
    for (std::uint64_t i = 0; i < periods; ++i) {
      ring_emit_sample(ev, ip, tid, cpu, now);
    }
    if (ev.overflow_handler) {
      OverflowInfo info;
      info.fd = ev.fd;
      info.value = ev.value;
      info.overflows = periods;
      info.cpu = cpu;
      info.core_type = core_type;
      ev.overflow_handler(info);
    }
  }
}

Status PerfSubsystem::set_overflow_handler(int fd, OverflowHandler handler) {
  EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  if (ev->attr.sample_period == 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "event was opened in counting mode (no sample_period)");
  }
  ev->overflow_handler = std::move(handler);
  return Status::ok();
}

Expected<std::uint64_t> PerfSubsystem::overflow_count(int fd) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  return ev->total_overflows;
}

Expected<std::vector<PerfSubsystem::SampleRecord>> PerfSubsystem::read_samples(
    int fd) {
  EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  if (ev->attr.sample_period == 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "event is in counting mode: no sample ring");
  }
  std::vector<SampleRecord> out;
  if (ev->user_page == nullptr || ev->ring_data.empty()) return out;
  PerfRingCursor cursor(ring_view(*ev));
  PerfEventHeader hdr;
  std::uint8_t body[sizeof(PerfEventHeader) + 5 * 8];
  while (cursor.next(&hdr, body, sizeof(body))) {
    if (hdr.type != kPerfRecordSample) continue;  // LOST is in samples_lost
    PerfSampleParsed parsed;
    if (!perf_parse_sample(ev->attr.sample_type, body,
                           hdr.size - sizeof(PerfEventHeader), &parsed)) {
      continue;
    }
    SampleRecord rec;
    rec.ip = parsed.ip;
    rec.time_ns = parsed.time;
    rec.cpu = static_cast<int>(parsed.cpu);
    rec.tid = static_cast<Tid>(parsed.tid);
    // SAMPLE records carry no core type on real kernels either; the
    // event's PMU implies it — apply_counts only fires on a matching
    // core type.
    rec.core_type = ev->pmu->core_type;
    rec.period = parsed.period;
    out.push_back(rec);
  }
  cursor.commit();
  ev->wakeups_pending = 0;
  ev->samples_since_wakeup = 0;
  return out;
}

Expected<PerfRingView> PerfSubsystem::mmap_ring(int fd) {
  EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
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
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
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

Expected<std::uint64_t> PerfSubsystem::lost_samples(int fd) const {
  const EventObj* ev = find(fd);
  if (ev == nullptr) {
    return make_error(StatusCode::kInvalidArgument, "bad fd");
  }
  return ev->samples_lost;
}

void PerfSubsystem::on_software(Tid tid, CountKind kind, std::uint64_t delta) {
  const auto it = tid_index_.find(tid);
  if (it == tid_index_.end()) return;
  for (EventObj* ev : it->second) {
    if (!ev->enabled) continue;
    if (ev->pmu->pmu_class != PmuClass::kSoftware) continue;
    if (ev->kind != kind) continue;
    ev->value += delta;
  }
}

bool PerfSubsystem::is_scheduled(int fd) const {
  const EventObj* ev = find(fd);
  return ev != nullptr && ev->scheduled;
}

int PerfSubsystem::multiplexing_contexts() const {
  int count = 0;
  for (const auto& [key, ctx] : contexts_) {
    if (ctx.needs_rotation) ++count;
  }
  return count;
}

}  // namespace hetpapi::simkernel
