// Shared machinery for components whose counters live behind the
// kernel's perf_event syscalls: group bookkeeping (one group per PMU
// type, or one per event when multiplexed), leader-disabled open
// protocol, the sample-ring drain, the cached read-plan fan-out and the
// rdpmc singleton fast path (§IV-E, §V-5).
//
// Concrete subclasses only decide *where* an event binds — to the
// EventSet's target thread/cpu (perf_core) or to the PMU's designated
// package cpu (rapl, uncore).
#pragma once

#include "base/fixed_vector.hpp"
#include "papi/component.hpp"

namespace hetpapi::papi {

class PerfBackedComponent : public Component {
 public:
  explicit PerfBackedComponent(ComponentEnv env) : env_(env) {}

  std::unique_ptr<ComponentState> create_state() const override;
  Status open_slot(ComponentState& state, const SlotRequest& request,
                   const MeasureTarget& target) override;
  Status close_all(ComponentState& state) override;
  Status start(ComponentState& state) override;
  Status stop(ComponentState& state) override;
  Status reset(ComponentState& state) override;
  Status read(const ComponentState& state, bool scale,
              std::vector<double>& values,
              std::vector<std::uint8_t>* valid = nullptr) const override;
  int group_count(const ComponentState& state) const override;
  /// The safe drain loop: for every sampling slot, consult the wakeup
  /// surface (advisory; transient stalls retry within the budget, a
  /// persistent stall skips the slot for this pass), then decode the
  /// mmap ring through the shared PerfRingCursor and advance data_tail.
  /// Slots whose ring mmap was denied at open count as rings_denied —
  /// counting-mode degradation, not an error.
  Status drain_samples(ComponentState& state, SampleBatch& batch) override;

 protected:
  /// Where the slot's kernel event attaches.
  struct Binding {
    Tid tid = simkernel::kInvalidTid;
    int cpu = -1;
  };
  virtual Expected<Binding> bind(const pfm::ActivePmu& pmu,
                                 const MeasureTarget& target) const = 0;

  ComponentEnv env_;

 private:
  struct Slot {
    SlotRequest request;
    int fd = -1;
    /// Sample-ring mapping for sampling slots (sample_period > 0). A
    /// denied mmap is survivable: the slot degrades to counting mode
    /// (no sample records, so no overflow callbacks).
    simkernel::PerfRingView ring{};
    bool ring_mapped = false;
    bool ring_denied = false;
  };

  struct Group {
    std::uint32_t perf_type = 0;
    int leader_fd = -1;
    /// Indices into PerfState::slots, in sibling order (leader first).
    FixedVector<int, kMaxEventSetEvents> members;
  };

  /// One pre-resolved group read in the collect fan-out. Value
  /// destinations are resolved to global (EventSet-wide) indices at plan
  /// build time so the read loop does no slot-table chasing.
  struct ReadPlanEntry {
    int leader_fd = -1;
    /// Every member of this group has a mapped user page advertising
    /// cap_user_rdpmc: the whole group is served by seqlock page reads
    /// (§V-5), with the fd path as the per-read fallback when any member
    /// is not resident or the retry budget exhausts.
    bool rdpmc_group = false;
    /// Members' global value indices in sibling order, flattened into
    /// PerfState::plan_members.
    std::size_t member_begin = 0;
    std::size_t member_count = 0;
  };

  struct PerfState final : ComponentState {
    std::vector<Slot> slots;
    /// One entry per PMU type normally; one per event when multiplexed,
    /// hence sized for the worst case.
    FixedVector<Group, kMaxEventSetEvents> groups;
    /// Cached read fan-out (mutable: read() is logically const).
    /// Invalidated by any group-layout change (open_slot / close_all).
    mutable bool read_plan_valid = false;
    mutable std::vector<ReadPlanEntry> read_plan;
    mutable std::vector<std::size_t> plan_members;
    /// Reused group-read buffer for the fd path: sized by the first
    /// read of the largest group, then every read is allocation-free.
    mutable std::vector<PerfValue> group_scratch;
    /// Per plan-member mmap'd user page (nullptr when unmapped), in
    /// plan_members order; populated at plan build, pointers live until
    /// the fds close (which also invalidates the plan).
    mutable std::vector<const simkernel::PerfUserPage*> plan_pages;
    /// Between a successful start() and the next stop(): the kernel may
    /// still write into the sample rings.
    bool enabled = false;
  };

  static PerfState& perf_state(ComponentState& state) {
    return static_cast<PerfState&>(state);
  }
  static const PerfState& perf_state(const ComponentState& state) {
    return static_cast<const PerfState&>(state);
  }

  /// Decode the slot's unread ring span into `batch` and advance
  /// data_tail (one PerfRingCursor pass).
  static void drain_ring(const Slot& slot, SampleBatch& batch);
  /// Map the sample ring of a freshly opened sampling slot. Denial is
  /// absorbed (ring_denied), never surfaced: ISSUE-10 graceful
  /// degradation to counting mode.
  void map_ring(Slot& slot) const;
  void build_read_plan(const PerfState& state) const;
};

}  // namespace hetpapi::papi
