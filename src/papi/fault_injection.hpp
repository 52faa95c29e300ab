// Deterministic, seed-driven fault injection over the Backend seam.
//
// FaultInjectingBackend decorates any Backend (sim or Linux) and
// injects the failure mix real Linux hits constantly but tests never
// exercise: perf_event_open refusing with ENOENT/EACCES/EMFILE,
// RLIMIT_NOFILE-style fd exhaustion after N opens, EINTR/EAGAIN bursts
// on reads and ioctls, rdpmc unavailability, and the stale-fd death of
// a running counter. Every decision is drawn from a seeded xoshiro
// stream, so the same seed against the same call sequence reproduces
// the same faults bit-for-bit — a chaos run is a deterministic test.
//
// The injector doubles as an accounting oracle: it keeps a ledger of
// every fd opened through it and not yet closed, so a test can assert
// "zero leaked fds" at teardown no matter which faults fired.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "papi/backend.hpp"

namespace hetpapi::papi {

/// The failure model: per-call probabilities plus structural limits.
/// All probabilities are in [0, 1] and evaluated independently per
/// backend call in a fixed order.
struct FaultProfile {
  std::string name = "none";

  /// perf_event_open refuses with this probability...
  double open_fail_prob = 0.0;
  /// ...picking the failure flavour by these relative weights.
  double open_enoent_weight = 1.0;  // -> kNotFound  (no such event/PMU)
  double open_eacces_weight = 0.0;  // -> kPermission (paranoid/seccomp)
  double open_emfile_weight = 0.0;  // -> kNoMemory   (fd table full)

  /// RLIMIT_NOFILE stand-in: opens beyond this many live fds fail with
  /// EMFILE (-1 = unlimited).
  int max_open_fds = -1;

  /// Transient EINTR/EAGAIN (-> kInterrupted) on perf_read_group_into,
  /// the seam's one counter read, delivered in bursts of
  /// `transient_burst` consecutive failures per trigger so the library's
  /// retry_transient loop either rides it out (burst < budget) or
  /// genuinely exhausts (burst >= budget).
  double read_transient_prob = 0.0;
  /// Transient failures on perf_ioctl (enable/disable/reset).
  double ioctl_transient_prob = 0.0;
  int transient_burst = 2;

  /// Permanent death of a live counter: each read rolls this chance of
  /// the fd going stale; every later operation on it fails (kSystem).
  double stale_fd_prob = 0.0;

  /// No rdpmc: perf_mmap_user_page refuses with kNotSupported, so the
  /// read planner keeps every group on the group read.
  bool rdpmc_unavailable = false;

  /// Sampling faults. Denying the sample-ring mmap models a kernel
  /// refusing the buffer pages (mlock limit, EPERM): the PAPI drain
  /// loop must degrade that slot to counting mode, not fail the set.
  bool ring_mmap_denied = false;
  /// Ring wakeups get eaten: poll reports "nothing" though records are
  /// waiting. A drop delays the drain; the head/tail words still carry
  /// every record, so nothing may be lost.
  double wakeup_drop_prob = 0.0;
  /// Drains stall: perf_ring_poll fails with EINTR in
  /// `transient_burst`-long bursts, exercising the drain's retry path.
  double poll_stall_prob = 0.0;

  /// A named profile ("none", "flaky-open", "fd-pressure",
  /// "transient-read", "stale-fd", "mixed", "sampling-chaos");
  /// kInvalidArgument for unknown names.
  static Expected<FaultProfile> named(std::string_view name);
  /// All names accepted by named(), for CLI help text.
  static std::vector<std::string> profile_names();
};

class FaultInjectingBackend final : public Backend {
 public:
  /// What the injector did and saw — consistency oracles for tests.
  struct Stats {
    std::uint64_t opens_attempted = 0;
    std::uint64_t opens_injected_failed = 0;
    std::uint64_t reads_attempted = 0;
    std::uint64_t reads_injected_transient = 0;
    std::uint64_t ioctls_injected_transient = 0;
    std::uint64_t fds_gone_stale = 0;
    std::uint64_t stale_fd_hits = 0;
    /// User-page mmaps refused (rdpmc_unavailable profiles): forces the
    /// read planner onto the fd path. Tracked separately from
    /// total_injected() — a denied mmap is a capability report, not a
    /// failed operation the retry machinery must survive.
    std::uint64_t mmaps_denied = 0;
    /// Sample-ring mmaps refused (ring_mmap_denied profiles): the slot
    /// must degrade to counting mode. A capability report like
    /// mmaps_denied, not part of total_injected().
    std::uint64_t ring_mmaps_denied = 0;
    /// Ring wakeups eaten before the caller saw them (wakeup_drop_prob).
    std::uint64_t wakeups_dropped = 0;
    /// perf_ring_poll calls failed with injected EINTR (poll_stall_prob).
    std::uint64_t polls_stalled = 0;

    std::uint64_t total_injected() const {
      return opens_injected_failed + reads_injected_transient +
             ioctls_injected_transient + fds_gone_stale + stale_fd_hits;
    }
  };

  FaultInjectingBackend(Backend* inner, FaultProfile profile,
                        std::uint64_t seed)
      : inner_(inner), profile_(std::move(profile)), rng_(seed) {}

  Expected<int> perf_event_open(const PerfEventAttr& attr, Tid tid, int cpu,
                                int group_fd, std::uint64_t flags) override;
  Status perf_ioctl(int fd, PerfIoctl op, std::uint32_t flags) override;
  Status perf_read_group_into(int fd, std::vector<PerfValue>& out) override;
  Expected<const simkernel::PerfUserPage*> perf_mmap_user_page(
      int fd) override;
  Status perf_close(int fd) override;
  Expected<simkernel::PerfRingView> perf_mmap_ring(int fd) override;
  Expected<bool> perf_ring_poll(int fd) override;

  const pfm::Host& host() const override { return inner_->host(); }
  bool supports_component(std::string_view name) const override {
    return inner_->supports_component(name);
  }
  Tid default_target() const override { return inner_->default_target(); }
  void charge_call_overhead(Tid tid, std::uint64_t instructions) override {
    inner_->charge_call_overhead(tid, instructions);
  }

  /// The open-fd ledger: fds opened through this backend and not yet
  /// closed. Empty at teardown == nothing leaked, whatever faults fired.
  std::size_t open_fd_count() const { return live_fds_.size(); }
  std::vector<int> leaked_fds() const {
    return {live_fds_.begin(), live_fds_.end()};
  }

  const Stats& stats() const { return stats_; }
  const FaultProfile& profile() const { return profile_; }

 private:
  /// Shared fault ladder for read-shaped calls; kOk means "forward".
  Status read_fault(int fd);

  Backend* inner_;
  FaultProfile profile_;
  Rng rng_;
  std::set<int> live_fds_;
  std::set<int> stale_fds_;
  /// Remaining consecutive transient failures owed per fd.
  std::map<int, int> pending_transients_;
  /// Remaining consecutive poll stalls owed per fd (sampling drains).
  std::map<int, int> pending_poll_stalls_;
  Stats stats_;
};

}  // namespace hetpapi::papi
