// The EventSet core: everything an EventSet is, with every counter
// operation dispatched through the component registry instead of
// hard-coded perf calls. The core knows *which* component serves each
// native event and in what order to fan start/stop/read across them; it
// never knows *how* a component measures. The Library facade resolves
// names (presets, custom presets, native encodings) and delegates here.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/fixed_vector.hpp"
#include "base/status.hpp"
#include "papi/component.hpp"
#include "papi/config.hpp"

namespace hetpapi::papi {

/// The names a Library interns once and keeps for its lifetime: each
/// native event's labels and each user event's display name. Samples and
/// qualified readings hold views into it, so they stay valid past
/// destroy_eventset. Map and set nodes never move and nothing is erased.
class NameTable {
 public:
  /// `core_type` labels a PMU with its detected core type ("" for
  /// non-core PMUs).
  explicit NameTable(std::function<std::string(std::string_view)> core_type)
      : core_type_(std::move(core_type)) {}

  /// The labels of `enc`, created on first use.
  const SampleSource* labels(const pfm::Encoding& enc);
  /// An interned copy of `name`.
  std::string_view intern(std::string_view name);

 private:
  std::function<std::string(std::string_view)> core_type_;
  std::mutex mutex_;
  std::map<std::string, SampleSource, std::less<>> labels_;
  std::set<std::string, std::less<>> names_;
};

class EventSetCore {
 public:
  EventSetCore(int id, Backend* backend, const pfm::PfmLibrary* pfm,
               const LibraryConfig* config, const ComponentRegistry* registry,
               ComponentLocks* locks, NameTable* names)
      : id_(id),
        backend_(backend),
        pfm_(pfm),
        config_(config),
        registry_(registry),
        locks_(locks),
        names_(names),
        target_(backend->default_target()) {}

  EventSetCore(const EventSetCore&) = delete;
  EventSetCore& operator=(const EventSetCore&) = delete;

  int id() const { return id_; }
  bool running() const { return state_ == SetState::kRunning; }
  /// True when any user event opened on only a subset of its
  /// constituent PMUs (LibraryConfig::degrade_partial_presets): plain
  /// read() values for those slots are partial sums.
  bool degraded() const;

  /// Bind to a thread. Existing events transparently re-open.
  Status attach(Tid tid);
  /// Bind to a logical cpu (validated by the caller against hwinfo).
  Status attach_cpu(int cpu);

  /// Add one user-visible event backed by `constituents` (encoding,
  /// sign) pairs, all-or-nothing: any constituent failing to open rolls
  /// the whole addition back.
  Status add_user_event(std::string_view display_name, bool is_preset,
                        const std::vector<std::pair<pfm::Encoding, int>>&
                            constituents);

  /// Drop an event by display name (case-insensitive); survivors keep
  /// their order and are re-opened.
  Status remove_event(std::string_view name);

  Status set_multiplex();
  /// Arm PAPI_overflow-style sampling on one user event. Transactional:
  /// if any constituent refuses to re-open with the sampling
  /// configuration, the set is restored to its previous (counting)
  /// layout and periods — arming never empties a working set. Only a
  /// failure of the restoration itself falls back to the empty state.
  Status set_overflow(int user_event_index, std::uint64_t threshold,
                      OverflowCallback callback);

  /// Drain every sampling slot's mmap ring into `batch` (append-only),
  /// fanning across the components in use, then call the overflow
  /// callback once per sample this pass appended. Components without a
  /// sampling surface are skipped. kInvalidArgument when no event of
  /// this set is in overflow mode.
  Status drain_samples(SampleBatch& batch);

  Status start();
  Expected<std::vector<long long>> stop();
  /// The in-place read primitives; the Library's allocating read(),
  /// read_checked() and read_qualified() wrap them. All three are thin
  /// wrappers over collect(). read_into folds the current counts
  /// straight into `out` (one slot per user event; a reused buffer keeps
  /// its capacity), strictly: a group that cannot deliver fails the call.
  Status read_into(std::vector<long long>& out) const;
  /// Tolerant: a counter that cannot deliver (dead fd, retry budget
  /// exhausted) flags its group's slots as partial sums instead of
  /// failing the call.
  Status read_checked_into(Reading& out) const;
  /// PAPI_read_qualified, tolerant like read_checked_into: per user
  /// event the derived total plus the raw per-constituent (per-PMU)
  /// values. Labels are views into the NameTable, assigned on every
  /// call, so a reused (or caller-mutated) buffer is refilled without
  /// comparing or copying strings; it reshapes only when the layout
  /// changed.
  Status read_qualified_into(std::vector<QualifiedReading>& out) const;
  Status accum(std::vector<long long>& values);
  Status reset();

  Expected<std::vector<EventInfo>> info() const;

  /// Kernel groups across every component in use — the unit the
  /// per-call overhead model charges.
  int group_count() const { return static_cast<int>(kernel_groups_); }

  /// Close every slot of every component and drop the component states.
  /// Safe to call repeatedly; used by destroy and the Library dtor.
  Status close_everything();

 private:
  struct NativeSlot {
    pfm::Encoding enc;
    Component* component = nullptr;
    /// Interned names: what samples and qualified parts point into.
    const SampleSource* labels = nullptr;
    /// Sampling period when this slot is in overflow mode (0 = counting).
    std::uint64_t sample_period = 0;
    /// Which user event this slot belongs to, its position among that
    /// event's constituents and its +1 / -1 weight (DERIVED_SUB presets
    /// subtract).
    int user_event_index = -1;
    std::uint32_t part = 0;
    int sign = 1;
  };

  /// A constituent that failed to open under graceful degradation:
  /// remembered so read_qualified() can report it with its validity bit
  /// cleared instead of silently narrowing the breakdown.
  struct MissingConstituent {
    const SampleSource* labels = nullptr;
    int sign = 1;
  };

  struct UserEvent {
    std::string_view display_name;  // interned in the NameTable
    bool is_preset = false;
    FixedVector<int, 2 * kMaxPmuGroups> native_indices;
    /// Constituents that refused to open (degrade_partial_presets);
    /// non-empty implies the event's values are partial sums.
    std::vector<MissingConstituent> missing;
  };

  /// One component with open slots on behalf of this EventSet, in
  /// first-use order — the order start/stop fan out in.
  struct ComponentUse {
    Component* component = nullptr;
    std::unique_ptr<ComponentState> state;
  };

  /// One native slot in the flat read plan: where its value comes from
  /// and where it folds to. Entries of one kernel group are contiguous,
  /// leader first, in the order the group read returns them; the
  /// group's first entry also says how to read the group.
  struct PlanEntry {
    /// Mapped user page advertising cap_user_rdpmc; set only in rdpmc
    /// groups.
    const simkernel::PerfUserPage* page = nullptr;
    int leader_fd = -1;       // first entry: the fd to read(2)
    std::uint16_t count = 0;  // first entry: entries in the group
    /// First entry: every member's page advertises rdpmc, so the group
    /// is served by seqlock page reads, with the group read as per-call
    /// fallback when a member is not resident.
    bool rdpmc = false;
    std::uint32_t native = 0;  // slot in natives_
    std::uint32_t user = 0;    // fold target: user-event index
    std::uint32_t part = 0;    // position among the user event's parts
    int sign = 1;
  };

  /// A component without kernel groups (sysinfo), read through
  /// Component::read, and the plan entries of its natives.
  struct PlanSeam {
    const ComponentUse* use = nullptr;
    std::vector<PlanEntry> entries;
  };

  enum class SetState { kStopped, kRunning };

  MeasureTarget target() const { return {target_, target_cpu_, multiplexed_}; }

  /// The use record for `component`, created on first touch.
  ComponentUse& use_for(Component* component);

  /// Resolve + open one native event (grouping rules applied by the
  /// component). On failure the set is unchanged.
  Status add_native(const pfm::Encoding& enc, int sign, UserEvent& user);

  /// Ask the owning component to open native slot `native_idx`.
  Status open_slot(std::size_t native_idx);

  Status reopen_all();

  /// Open every native slot in order and compile the read plan. On
  /// failure every fd is closed (leak-free) but the slot/user-event
  /// layout is preserved, so the caller can amend the layout and try
  /// again — the building block of transactional set_overflow.
  Status try_open_slots();

  /// Undo a partially applied multi-native add: drop every native slot
  /// beyond `natives_before`, close everything and rebuild survivors.
  Status rollback_natives(std::size_t natives_before);

  /// Re-open every surviving native slot; if any refuses, tear the set
  /// down to empty (consistent, zero leaked fds) rather than leave a
  /// half-open layout that would read stale values.
  Status reopen_slots_or_empty();

  /// Compile the flat read plan from the open layout. Called on every
  /// layout change (start() changes none); the read paths never check it.
  void build_plan();

  /// The one collection behind every read entry point: each group is
  /// read once (pages, group read or seam) and `sink` folds each value
  /// straight into the caller's buffer. Strict sinks fail on a group
  /// that cannot deliver; tolerant ones mark its entries and go on.
  template <typename Sink>
  Status collect(Sink& sink) const;
  /// collect() with totals only, strictly, into `out` (resized to one
  /// slot per user event). On failure `out` holds a partial fold.
  Status collect_totals(std::vector<long long>& out) const;
  /// Serve an rdpmc group from its user pages into page_values_; false
  /// (fall back to the group read) when any page cannot serve.
  bool read_pages(const PlanEntry* group) const;
  /// Charge the per-call overhead model for one read-shaped call.
  void charge_read_overhead() const;

  int id_;
  Backend* backend_;
  const pfm::PfmLibrary* pfm_;
  const LibraryConfig* config_;
  const ComponentRegistry* registry_;
  ComponentLocks* locks_;
  NameTable* names_;

  SetState state_ = SetState::kStopped;
  Tid target_ = simkernel::kInvalidTid;
  /// >= 0: cpu-scoped measurement (target_ is ignored).
  int target_cpu_ = -1;
  bool multiplexed_ = false;

  /// The flat read plan (build_plan): kernel-group entries, then the
  /// seam components.
  std::vector<PlanEntry> plan_;
  std::vector<PlanSeam> seams_;
  /// Kernel groups in the plan: the per-call overhead unit.
  std::uint64_t kernel_groups_ = 0;
  /// Per user event: 1 when a constituent never opened, so every
  /// reading of the slot is partial.
  std::vector<std::uint8_t> plan_partial_;

  /// Collection scratch sized by build_plan (mutable: reads are
  /// logically const).
  mutable std::vector<PerfValue> group_values_;
  mutable std::vector<PerfValue> page_values_;
  mutable std::vector<double> scaled_sums_;
  mutable std::vector<double> seam_values_;
  mutable std::vector<std::uint8_t> seam_valid_;

  std::vector<UserEvent> user_events_;
  std::vector<ComponentUse> uses_;
  OverflowCallback overflow_callback_;
  /// accum()'s collection target.
  std::vector<long long> accum_values_;
  /// Last: the slot table is large and the read path never touches it.
  FixedVector<NativeSlot, kMaxEventSetEvents> natives_;
};

}  // namespace hetpapi::papi
