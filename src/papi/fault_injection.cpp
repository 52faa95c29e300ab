#include "papi/fault_injection.hpp"

namespace hetpapi::papi {

Expected<FaultProfile> FaultProfile::named(std::string_view name) {
  FaultProfile p;
  p.name = std::string(name);
  if (name == "none") return p;
  if (name == "flaky-open") {
    // Missing hybrid PMUs / paranoid settings: opens refuse outright.
    p.open_fail_prob = 0.25;
    p.open_enoent_weight = 2.0;
    p.open_eacces_weight = 1.0;
    p.open_emfile_weight = 1.0;
    return p;
  }
  if (name == "fd-pressure") {
    // RLIMIT_NOFILE headroom of a busy server process.
    p.max_open_fds = 6;
    return p;
  }
  if (name == "transient-read") {
    // Signal-heavy process: reads and ioctls keep getting interrupted,
    // in bursts short enough that the bounded retry rides them out.
    p.read_transient_prob = 0.30;
    p.ioctl_transient_prob = 0.15;
    p.transient_burst = 2;
    return p;
  }
  if (name == "stale-fd") {
    // Counters die under the reader (hotplug, PMU reassignment).
    p.stale_fd_prob = 0.02;
    p.rdpmc_unavailable = true;
    return p;
  }
  if (name == "mixed") {
    // Everything at once, each at a rate a long soak will hit often.
    p.open_fail_prob = 0.10;
    p.open_enoent_weight = 1.0;
    p.open_eacces_weight = 1.0;
    p.open_emfile_weight = 1.0;
    p.max_open_fds = 24;
    p.read_transient_prob = 0.10;
    p.ioctl_transient_prob = 0.05;
    p.transient_burst = 2;
    p.stale_fd_prob = 0.005;
    p.rdpmc_unavailable = true;
    return p;
  }
  if (name == "sampling-chaos") {
    // The sampling fault mix: wakeups vanish, drains stall in bursts
    // the retry budget can ride out, counters still die occasionally.
    // Ring mmaps stay up — the denied-mmap degradation path has its own
    // deterministic switch (ring_mmap_denied) because it is a
    // capability, not a rate.
    p.wakeup_drop_prob = 0.30;
    p.poll_stall_prob = 0.20;
    p.transient_burst = 2;
    p.read_transient_prob = 0.10;
    p.stale_fd_prob = 0.002;
    return p;
  }
  return make_error(StatusCode::kInvalidArgument,
                    "unknown fault profile \"" + std::string(name) + "\"");
}

std::vector<std::string> FaultProfile::profile_names() {
  return {"none",      "flaky-open", "fd-pressure",
          "transient-read", "stale-fd",   "mixed", "sampling-chaos"};
}

Expected<int> FaultInjectingBackend::perf_event_open(const PerfEventAttr& attr,
                                                     Tid tid, int cpu,
                                                     int group_fd,
                                                     std::uint64_t flags) {
  ++stats_.opens_attempted;
  if (profile_.max_open_fds >= 0 &&
      static_cast<int>(live_fds_.size()) >= profile_.max_open_fds) {
    ++stats_.opens_injected_failed;
    return make_error(StatusCode::kNoMemory,
                      "injected EMFILE: fd limit (" +
                          std::to_string(profile_.max_open_fds) +
                          ") reached");
  }
  if (profile_.open_fail_prob > 0.0 &&
      rng_.uniform() < profile_.open_fail_prob) {
    ++stats_.opens_injected_failed;
    const double total = profile_.open_enoent_weight +
                         profile_.open_eacces_weight +
                         profile_.open_emfile_weight;
    const double pick = rng_.uniform() * (total > 0.0 ? total : 1.0);
    if (pick < profile_.open_enoent_weight) {
      return make_error(StatusCode::kNotFound,
                        "injected ENOENT: event not present on this PMU");
    }
    if (pick < profile_.open_enoent_weight + profile_.open_eacces_weight) {
      return make_error(StatusCode::kPermission,
                        "injected EACCES: perf_event_paranoid refuses");
    }
    return make_error(StatusCode::kNoMemory, "injected EMFILE");
  }
  auto fd = inner_->perf_event_open(attr, tid, cpu, group_fd, flags);
  if (fd) live_fds_.insert(*fd);
  return fd;
}

Status FaultInjectingBackend::read_fault(int fd) {
  if (stale_fds_.count(fd) != 0) {
    ++stats_.stale_fd_hits;
    return make_error(StatusCode::kSystem,
                      "injected stale fd: counter died under the reader");
  }
  if (auto it = pending_transients_.find(fd);
      it != pending_transients_.end()) {
    if (--it->second <= 0) pending_transients_.erase(it);
    ++stats_.reads_injected_transient;
    return make_error(StatusCode::kInterrupted, "injected EINTR (burst)");
  }
  if (profile_.stale_fd_prob > 0.0 &&
      rng_.uniform() < profile_.stale_fd_prob) {
    stale_fds_.insert(fd);
    ++stats_.fds_gone_stale;
    ++stats_.stale_fd_hits;
    return make_error(StatusCode::kSystem,
                      "injected stale fd: counter died under the reader");
  }
  if (profile_.read_transient_prob > 0.0 &&
      rng_.uniform() < profile_.read_transient_prob) {
    if (profile_.transient_burst > 1) {
      pending_transients_[fd] = profile_.transient_burst - 1;
    }
    ++stats_.reads_injected_transient;
    return make_error(StatusCode::kInterrupted, "injected EINTR");
  }
  return Status::ok();
}

Status FaultInjectingBackend::perf_ioctl(int fd, PerfIoctl op,
                                         std::uint32_t flags) {
  if (stale_fds_.count(fd) != 0) {
    ++stats_.stale_fd_hits;
    return make_error(StatusCode::kSystem, "injected stale fd");
  }
  if (profile_.ioctl_transient_prob > 0.0 &&
      rng_.uniform() < profile_.ioctl_transient_prob) {
    ++stats_.ioctls_injected_transient;
    return make_error(StatusCode::kInterrupted, "injected EINTR (ioctl)");
  }
  return inner_->perf_ioctl(fd, op, flags);
}

Status FaultInjectingBackend::perf_read_group_into(
    int fd, std::vector<PerfValue>& out) {
  ++stats_.reads_attempted;
  HETPAPI_RETURN_IF_ERROR(read_fault(fd));
  return inner_->perf_read_group_into(fd, out);
}

Expected<const simkernel::PerfUserPage*>
FaultInjectingBackend::perf_mmap_user_page(int fd) {
  // The user page is the only rdpmc path, so an rdpmc-less host refuses
  // the mapping outright (echoing a kernel with /sys/devices/cpu/rdpmc
  // = 0), and a stale fd can no longer be mapped.
  if (profile_.rdpmc_unavailable) {
    ++stats_.mmaps_denied;
    return make_error(StatusCode::kNotSupported, "injected: rdpmc disabled");
  }
  if (stale_fds_.count(fd) != 0) {
    ++stats_.stale_fd_hits;
    return make_error(StatusCode::kSystem, "injected stale fd");
  }
  return inner_->perf_mmap_user_page(fd);
}

Expected<simkernel::PerfRingView> FaultInjectingBackend::perf_mmap_ring(
    int fd) {
  if (profile_.ring_mmap_denied) {
    ++stats_.ring_mmaps_denied;
    return make_error(StatusCode::kNotSupported,
                      "injected: sample-ring mmap denied");
  }
  if (stale_fds_.count(fd) != 0) {
    ++stats_.stale_fd_hits;
    return make_error(StatusCode::kSystem, "injected stale fd");
  }
  return inner_->perf_mmap_ring(fd);
}

Expected<bool> FaultInjectingBackend::perf_ring_poll(int fd) {
  if (stale_fds_.count(fd) != 0) {
    ++stats_.stale_fd_hits;
    return make_error(StatusCode::kSystem, "injected stale fd");
  }
  if (auto it = pending_poll_stalls_.find(fd);
      it != pending_poll_stalls_.end()) {
    if (--it->second <= 0) pending_poll_stalls_.erase(it);
    ++stats_.polls_stalled;
    return make_error(StatusCode::kInterrupted, "injected EINTR (poll burst)");
  }
  if (profile_.poll_stall_prob > 0.0 &&
      rng_.uniform() < profile_.poll_stall_prob) {
    if (profile_.transient_burst > 1) {
      pending_poll_stalls_[fd] = profile_.transient_burst - 1;
    }
    ++stats_.polls_stalled;
    return make_error(StatusCode::kInterrupted, "injected EINTR (poll)");
  }
  auto fired = inner_->perf_ring_poll(fd);
  if (fired && *fired && profile_.wakeup_drop_prob > 0.0 &&
      rng_.uniform() < profile_.wakeup_drop_prob) {
    // The wakeup is eaten after the kernel consumed it — the ring still
    // carries every record, the reader just is not told. Only a drain
    // that trusts poll over head/tail can lose data here.
    ++stats_.wakeups_dropped;
    return false;
  }
  return fired;
}

Status FaultInjectingBackend::perf_close(int fd) {
  // Closes always reach the inner backend — a ledger that "loses" fds
  // on injected close failures would fabricate leaks.
  live_fds_.erase(fd);
  stale_fds_.erase(fd);
  pending_transients_.erase(fd);
  pending_poll_stalls_.erase(fd);
  return inner_->perf_close(fd);
}

}  // namespace hetpapi::papi
