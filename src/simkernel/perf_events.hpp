// Simulated perf_event subsystem.
//
// Implements the kernel semantics the paper's PAPI changes are written
// against (§IV-A):
//  * perf_event_open(attr, tid, cpu, group_fd) with attr.type selecting
//    a PMU; on hybrid machines each core type is its own PMU.
//  * A thread-bound event follows its thread across context switches and
//    migrations, but *only counts while the thread runs on a core whose
//    type matches the event's PMU* — counting retired instructions
//    across all core types therefore requires one event per core PMU.
//  * Event groups schedule atomically on one PMU; a sibling whose PMU
//    differs from the leader's is rejected (software events are the
//    kernel-sanctioned exception and may join any group).
//  * When the groups on a context need more counters than the PMU has,
//    they are multiplexed by rotation; reads report time_enabled and
//    time_running so users can scale estimates.
//  * RAPL / uncore PMUs are package-scoped: events bind to a cpu, not a
//    thread, and read free-running hardware registers.
//  * An mmap'd rdpmc fast path serves userspace reads without a syscall
//    while the event is resident on a counter.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "base/status.hpp"
#include "base/units.hpp"
#include "simkernel/perf_abi.hpp"
#include "simkernel/pmu.hpp"
#include "simkernel/program.hpp"
#include "simkernel/thread.hpp"

namespace hetpapi::simkernel {

/// Free-running package counters the perf layer reads through (RAPL
/// energy, IMC traffic). Provided by the kernel each time it is needed.
struct PackageCounters {
  std::uint64_t energy_pkg_uj = 0;
  std::uint64_t energy_cores_uj = 0;
  std::uint64_t energy_dram_uj = 0;
  std::uint64_t imc_cas_reads = 0;
  std::uint64_t imc_cas_writes = 0;

  std::uint64_t get(CountKind kind) const {
    switch (kind) {
      case CountKind::kEnergyPkgUj: return energy_pkg_uj;
      case CountKind::kEnergyCoresUj: return energy_cores_uj;
      case CountKind::kEnergyDramUj: return energy_dram_uj;
      case CountKind::kUncoreCasReads: return imc_cas_reads;
      case CountKind::kUncoreCasWrites: return imc_cas_writes;
      default: return 0;
    }
  }
};

/// The package counters one read consults, computed on first use and
/// then held for the rest of that read: only read-through (RAPL/uncore)
/// events need them, so a core-PMU read never pays for the energy
/// arithmetic.
class LazyPackageCounters {
 public:
  using Compute = PackageCounters (*)(const void* context);
  LazyPackageCounters(Compute compute, const void* context)
      : compute_(compute), context_(context) {}

  const PackageCounters& get() const {
    if (!ready_) {
      value_ = compute_(context_);
      ready_ = true;
    }
    return value_;
  }

 private:
  Compute compute_;
  const void* context_;
  mutable bool ready_ = false;
  mutable PackageCounters value_;
};

class PerfSubsystem {
 public:
  struct Config {
    /// Multiplex rotation period (kernel uses the scheduler tick).
    SimDuration rotation_period{std::chrono::milliseconds(1)};
    int max_open_fds = 4096;
    /// Per-event sample ring capacity (the mmap buffer size, in
    /// records). When full, further samples are dropped and counted as
    /// lost — perf's overwrite-less semantics.
    std::size_t sample_ring_capacity = 4096;
    /// Advertise cap_user_rdpmc on the user pages of core-PMU events
    /// (/sys/devices/cpu/rdpmc on). Off models a locked-down host: pages
    /// still exist but readers must take the fd path.
    bool user_rdpmc = true;
  };

  PerfSubsystem(const PmuRegistry* pmus, Config config);
  explicit PerfSubsystem(const PmuRegistry* pmus)
      : PerfSubsystem(pmus, Config{}) {}

  /// perf_event_open(2). `tid` >= 0 binds to a thread (cpu must be -1 or
  /// restricts to one cpu); tid == -1 with cpu >= 0 is a cpu-scoped
  /// event (needed for RAPL/uncore). Returns the new fd.
  Expected<int> open(const PerfEventAttr& attr, Tid tid, int cpu,
                     int group_fd, std::uint64_t flags,
                     const PackageCounters& pkg, SimTime now);

  Status ioctl(int fd, PerfIoctl op, std::uint32_t flags,
               const PackageCounters& pkg, SimTime now);

  /// read(2) on a single event fd.
  Expected<PerfValue> read(int fd, const LazyPackageCounters& pkg,
                           SimTime now) const;

  /// read(2) with PERF_FORMAT_GROUP on the leader: leader first, then
  /// siblings in creation order. `out` is resized to the group and keeps
  /// its capacity, so a reused buffer reads without allocating.
  Status read_group_into(int fd, const LazyPackageCounters& pkg,
                         SimTime now, std::vector<PerfValue>& out) const;

  Status close(int fd);

  /// mmap(2) of the event's first perf page: the seqlock-published
  /// perf_event_mmap_page userspace read plans are built on (§V-5).
  /// Only core-PMU events carry one — software and read-through package
  /// events return kNotSupported, as the real fast path serves only
  /// hardware counters. The pointer stays valid until close(fd).
  Expected<const PerfUserPage*> mmap_user_page(int fd) const;

  // --- Kernel-side hooks -------------------------------------------------

  /// Attribute one execution slice of `tid` on a core of `core_type`.
  /// time_enabled advances only while the thread runs on a matching core
  /// type, so unscaled hybrid counts sum correctly (the convention the
  /// paper's summed P+E validation relies on).
  /// `leader` is the executing thread's process-group leader: events
  /// opened with attr.inherit on the leader match every group member.
  /// `ip` is the slice's synthetic instruction pointer (ExecSlice::
  /// sample_ip), stamped into SAMPLE records whose period crossing lands
  /// in the slice.
  void on_execution(Tid tid, Tid leader, int cpu,
                    cpumodel::CoreTypeId core_type, const ExecCounts& counts,
                    SimDuration dt, SimTime now, std::uint64_t ip = 0);

  /// Attribute cpu-scope execution (for cpu-bound core events).
  void on_cpu_execution(int cpu, cpumodel::CoreTypeId core_type,
                        const ExecCounts& counts, SimDuration dt, Tid tid,
                        SimTime now, std::uint64_t ip = 0);

  /// Advance software-event values for a slice of `tid`.
  void on_software(Tid tid, CountKind kind, std::uint64_t delta);

  /// Rotate multiplexed contexts whose period elapsed.
  void rotate(SimTime now);

  /// Number of live events (tests / leak checks).
  std::size_t open_event_count() const { return live_events_; }

  /// Count of contexts currently multiplexing (diagnostics).
  int multiplexing_contexts() const { return rotating_contexts_; }

  /// Total period crossings recorded for a sampling event — the
  /// simulator's ground truth: every crossing is either a SAMPLE record
  /// in the ring or counted by an in-band PERF_RECORD_LOST.
  Expected<std::uint64_t> overflow_count(int fd) const;

  /// mmap(2) of the event's full perf region: the control page plus the
  /// sample ring data area. Only sampling-mode core events carry a ring;
  /// counting-mode events serve just the user page via mmap_user_page.
  /// The view stays valid until close(fd).
  Expected<PerfRingView> mmap_ring(int fd);

  /// poll(2) on the event fd with a zero timeout: true when a sampling
  /// wakeup is pending — every ring write with wakeup_events == 0, every
  /// wakeup_events-th sample otherwise. Readers treat this as a hint;
  /// the ring's data_head/data_tail words are the ground truth.
  Expected<bool> ring_poll(int fd);

 private:
  struct EventObj {
    // What a read(2) consults comes first, so a group read touches one
    // or two cache lines per event.
    int fd = -1;
    int leader_fd = -1;     // == fd for leaders
    bool enabled = false;
    std::uint64_t value = 0;
    SimDuration time_enabled{0};
    SimDuration time_running{0};
    /// Snapshot base for read-through package counters.
    std::uint64_t base = 0;
    SimTime enabled_at{};
    const PmuDesc* pmu = nullptr;
    /// Leader only: the sibling EventObjs in creation order. The fd
    /// table owns each event through a unique_ptr, so addresses are
    /// stable and group reads and ioctls fan out without one fd lookup
    /// per sibling.
    std::vector<EventObj*> sibling_ptrs;
    PerfEventAttr attr;
    CountKind kind = CountKind::kInstructions;
    Tid tid = kInvalidTid;  // -1 for cpu scope
    int cpu = -1;           // -1 for any cpu
    bool scheduled = false;  // resident on a counter right now
    /// False while the event's thread last executed on a core type the
    /// event's PMU does not serve — the migration case whose page must
    /// report index == 0 so userspace falls back to the fd path.
    bool core_match = true;
    /// Hardware counter slot while scheduled (page index = slot + 1).
    int counter_slot = 0;
    /// Counter value at the moment the event last became resident; the
    /// user page publishes offset = pmc_base, sim_pmc = value - pmc_base.
    std::uint64_t pmc_base = 0;
    /// The event's perf_event_mmap_page (core-PMU events only). Heap
    /// allocated so mmap_user_page can hand out a stable pointer.
    std::unique_ptr<PerfUserPage> user_page;
    /// Sampling state.
    std::uint64_t next_overflow_at = 0;  // value threshold
    std::uint64_t total_overflows = 0;
    /// The mmap ring data area (ABI record bytes; sampling core events
    /// only). data_head/data_tail live in the user page, exactly as the
    /// kernel keeps them in the mmap control page.
    std::vector<std::uint8_t> ring_data;
    /// Drops not yet surfaced as an in-band PERF_RECORD_LOST record
    /// (written the next time ring space frees up, kernel-style).
    std::uint64_t pending_lost = 0;
    /// Wakeup accounting for ring_poll: samples written since the last
    /// wakeup fired, and wakeups not yet consumed by a poll.
    std::uint32_t samples_since_wakeup = 0;
    std::uint64_t wakeups_pending = 0;

    bool is_leader() const { return leader_fd == fd; }
    bool is_readthrough() const {
      return pmu->pmu_class == PmuClass::kRapl ||
             pmu->pmu_class == PmuClass::kUncore;
    }
  };

  /// Multiplexing context: all groups of one (scope, pmu) pair.
  struct Context {
    std::vector<int> group_leaders;  // rotation order
    bool needs_rotation = false;
    SimTime last_rotation{};
  };
  using ContextKey = std::pair<std::int64_t, std::uint32_t>;  // scope, pmu

  static std::int64_t scope_key(Tid tid, int cpu) {
    // Thread scopes are positive, cpu scopes negative (offset to keep
    // cpu 0 distinct).
    return tid >= 0 ? static_cast<std::int64_t>(tid)
                    : -1000 - static_cast<std::int64_t>(cpu);
  }

  /// The fd table lookup: a bounds check and an index, as the real
  /// kernel's fd table is. nullptr for never-opened and closed fds.
  const EventObj* find(int fd) const {
    if (fd < 0 || static_cast<std::size_t>(fd) >= events_.size()) {
      return nullptr;
    }
    return events_[static_cast<std::size_t>(fd)].get();
  }
  EventObj* find(int fd) {
    return const_cast<EventObj*>(std::as_const(*this).find(fd));
  }
  Context& context_of(const EventObj& ev);

  /// Re-run counter scheduling for a context: greedily place groups in
  /// rotation order, pinned leaders first; sets `scheduled` flags.
  void reschedule(Context& ctx);
  /// The one writer of Context::needs_rotation, keeping
  /// rotating_contexts_ in step with it.
  void set_needs_rotation(Context& ctx, bool needs);

  int gp_counters_needed(const EventObj& leader) const;

  /// The event's read(2) value at `now`. Read-through package events
  /// add the counters' movement since enable (out of line: the core-PMU
  /// hot path never takes it).
  PerfValue snapshot(const EventObj& ev, const LazyPackageCounters& pkg,
                     SimTime now) const {
    PerfValue out{ev.value,
                  static_cast<std::uint64_t>(ev.time_enabled.count()),
                  static_cast<std::uint64_t>(ev.time_running.count())};
    if (ev.is_readthrough() && ev.enabled) {
      add_package_window(ev, pkg, now, out);
    }
    return out;
  }
  void add_package_window(const EventObj& ev, const LazyPackageCounters& pkg,
                          SimTime now, PerfValue& out) const;

  void apply_counts(EventObj& ev, const ExecCounts& counts,
                    SimDuration wall, SimDuration running, int cpu, Tid tid,
                    SimTime now, std::uint64_t ip);

  /// A PerfRingView over the event's own ring (writer side).
  static PerfRingView ring_view(EventObj& ev);

  /// Copy `size` ring bytes in at data_head (wrapping) and publish the
  /// new head with the release ordering readers pair with. Returns false
  /// (and touches nothing) when the unread span leaves no room.
  bool ring_write(EventObj& ev, const void* bytes, std::size_t size);

  /// Write one SAMPLE record (per attr.sample_type) for a period
  /// crossing; emits the deferred LOST record first when space allows,
  /// and does the wakeup accounting.
  void ring_emit_sample(EventObj& ev, std::uint64_t ip, Tid tid, int cpu,
                        SimTime now);

  /// Publish the deferred LOST record if one is pending and the ring
  /// has room. Called before every new SAMPLE (drops stay ordered ahead
  /// of newer data) and from ring_poll — the reader's kernel entry —
  /// so drops after the final sample write still surface in-band once a
  /// drain frees space. Returns false while the record does not fit.
  bool ring_flush_lost(EventObj& ev);

  Status do_ioctl_one(EventObj& ev, PerfIoctl op, const PackageCounters& pkg,
                      SimTime now);

  /// Seqlock-publish the event's current state to its user page (no-op
  /// for events without one): bump lock to odd, update the fields, bump
  /// back to even — the writer half of the protocol readers retry on.
  static void publish_user_page(EventObj& ev);

  /// Register a newly opened event in the scope index; drop on close.
  void index_event(EventObj& ev);
  void unindex_event(EventObj& ev);
  /// The event's list in its scope index, grown to reach it.
  std::vector<EventObj*>& scope_list(const EventObj& ev);
  using ScopeIndex = std::vector<std::vector<EventObj*>>;
  static std::span<EventObj* const> scope_events(const ScopeIndex& index,
                                                 int slot) {
    if (slot < 0 || static_cast<std::size_t>(slot) >= index.size()) return {};
    return index[static_cast<std::size_t>(slot)];
  }

  const PmuRegistry* pmus_;
  Config config_;
  /// The fd table, indexed by fd; closed and never-opened slots are
  /// null. fds are minted monotonically from 3 and never reused, so the
  /// table only grows, and unique_ptr ownership keeps every EventObj at
  /// a stable address (sibling_ptrs and the scope indexes hold raw
  /// pointers) across that growth.
  std::vector<std::unique_ptr<EventObj>> events_;
  std::size_t live_events_ = 0;
  std::map<ContextKey, Context> contexts_;
  /// Scope indexes for the per-tick attribution hooks: thread-bound
  /// events by tid, cpu-bound (tid < 0) events by cpu, each list in
  /// ascending-fd order (fds are never reused, so appends keep the order
  /// sorted). Tids and cpus are dense, so each index is a vector.
  ScopeIndex tid_index_;
  ScopeIndex cpu_index_;
  /// Contexts with needs_rotation set: rotate() is free while it is 0.
  int rotating_contexts_ = 0;
  int next_fd_ = 3;
};

}  // namespace hetpapi::simkernel
