// Shared machinery for components whose counters live behind the
// kernel's perf_event syscalls: group bookkeeping (one group per PMU
// type, or one per event when multiplexed), leader-disabled open
// protocol and the sample-ring drain (§IV-E). Reads do not come through
// here: the component hands its groups to the EventSet's flat read plan
// (kernel_groups), which reads them through the Backend directly.
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
  bool kernel_groups(const ComponentState& state,
                     std::vector<KernelGroupMember>& out) const override;
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

  struct PerfState final : ComponentState {
    std::vector<Slot> slots;
    /// One entry per PMU type normally; one per event when multiplexed,
    /// hence sized for the worst case.
    FixedVector<Group, kMaxEventSetEvents> groups;
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
};

}  // namespace hetpapi::papi
