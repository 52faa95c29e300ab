// The EventSet core: everything an EventSet is, with every counter
// operation dispatched through the component registry instead of
// hard-coded perf calls. The core knows *which* component serves each
// native event and in what order to fan start/stop/read across them; it
// never knows *how* a component measures. The Library facade resolves
// names (presets, custom presets, native encodings) and delegates here.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/fixed_vector.hpp"
#include "base/status.hpp"
#include "papi/component.hpp"
#include "papi/config.hpp"

namespace hetpapi::papi {

class EventSetCore {
 public:
  EventSetCore(int id, Backend* backend, const pfm::PfmLibrary* pfm,
               const LibraryConfig* config, const ComponentRegistry* registry,
               ComponentLocks* locks)
      : id_(id),
        backend_(backend),
        pfm_(pfm),
        config_(config),
        registry_(registry),
        locks_(locks),
        target_(backend->default_target()) {}

  EventSetCore(const EventSetCore&) = delete;
  EventSetCore& operator=(const EventSetCore&) = delete;

  int id() const { return id_; }
  bool running() const { return state_ == SetState::kRunning; }
  bool has_natives() const { return !natives_.empty(); }
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
  Expected<std::vector<long long>> read() const;
  /// Allocation-free read(): folds the current counts into `out`
  /// (resized to one slot per user event; steady-state callers reuse the
  /// buffer's capacity, so the hot path never allocates). The marker API
  /// and the low-tens-of-ns read target are built on this.
  Status read_into(std::vector<long long>& out) const;
  /// Allocation-free read_qualified(): updates `out` in place when its
  /// shape matches the set's layout (sizes and part names are verified
  /// and repaired per call); reshapes — and then allocates — only when
  /// the layout actually changed.
  Status read_qualified_into(std::vector<QualifiedReading>& out) const;
  /// Resolver from PMU name to detected core-type label, installed by
  /// the Library facade so read_qualified_into can label parts without a
  /// round trip through the facade.
  void set_core_type_resolver(
      std::function<std::string(std::string_view)> resolver) {
    core_type_resolver_ = std::move(resolver);
  }
  /// Interner from a native event to its Library-owned SampleSource,
  /// installed by the Library facade; consulted when a slot opens in
  /// sampling mode.
  void set_sample_source_resolver(
      std::function<const SampleSource*(const pfm::Encoding&)> resolver) {
    sample_source_resolver_ = std::move(resolver);
  }
  /// read() plus per-slot degradation tags, collected tolerantly: a
  /// counter that cannot deliver (dead fd, retry budget exhausted)
  /// degrades its slot to a partial sum instead of failing the call.
  /// The strict read() surfaces the same situation as an error.
  Expected<Reading> read_checked() const;
  /// PAPI_read_qualified: one reading per user event carrying the raw
  /// per-constituent (per-PMU) values alongside the derived total. The
  /// totals are computed from the same collection as read(), so a
  /// qualified read never disagrees with the transparent sum. Core-type
  /// labels are filled in by the Library facade, which owns the
  /// detection result.
  Expected<std::vector<QualifiedReading>> read_qualified() const;
  Status accum(std::vector<long long>& values);
  Status reset();

  Expected<std::vector<EventInfo>> info() const;

  /// Kernel groups across every component in use — the unit the
  /// per-call overhead model charges.
  int group_count() const;

  /// Close every slot of every component and drop the component states.
  /// Safe to call repeatedly; used by destroy and the Library dtor.
  Status close_everything();

 private:
  struct NativeSlot {
    pfm::Encoding enc;
    Component* component = nullptr;
    /// Sampling period when this slot is in overflow mode (0 = counting).
    std::uint64_t sample_period = 0;
    /// Which user event this slot belongs to.
    int user_event_index = -1;
  };

  /// A constituent that failed to open under graceful degradation:
  /// remembered so read_qualified() can report it with its validity bit
  /// cleared instead of silently narrowing the breakdown.
  struct MissingConstituent {
    pfm::Encoding enc;
    int sign = 1;
    std::string error;  // why the open failed, for reporting
  };

  struct UserEvent {
    std::string display_name;
    bool is_preset = false;
    FixedVector<int, 2 * kMaxPmuGroups> native_indices;
    /// +1 / -1 weight per constituent (DERIVED_SUB presets subtract).
    FixedVector<int, 2 * kMaxPmuGroups> native_signs;
    /// Constituents that refused to open (degrade_partial_presets);
    /// non-empty implies the event's values are partial sums.
    std::vector<MissingConstituent> missing;
  };

  /// One component with open slots on behalf of this EventSet, in
  /// first-use order — the order start/stop/read fan out in.
  struct ComponentUse {
    Component* component = nullptr;
    std::unique_ptr<ComponentState> state;
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

  /// Open every native slot in order. On failure every fd is closed
  /// (leak-free) but the slot/user-event layout is preserved, so the
  /// caller can amend the layout and try again — the building block of
  /// transactional set_overflow.
  Status try_open_slots();

  /// Undo a partially applied multi-native add: drop every native slot
  /// beyond `natives_before`, close everything and rebuild survivors.
  Status rollback_natives(std::size_t natives_before);

  /// Re-open every surviving native slot; if any refuses, tear the set
  /// down to empty (consistent, zero leaked fds) rather than leave a
  /// half-open layout that would read stale values.
  Status reopen_slots_or_empty();

  Expected<std::vector<long long>> collect() const;
  /// Tolerant collection: per-native validity recorded in
  /// valid_scratch_, failed slots contribute 0 (see Component::read).
  Status collect_checked() const;
  /// Fan the component reads into native_scratch_ (strict; the shared
  /// first half of collect(), read_into() and accum()).
  Status collect_natives() const;
  /// Fold native_scratch_ into per-user-event sums, reusing `out`.
  void fold_user_events(std::vector<long long>& out) const;
  /// One user event's signed sum over native_scratch_.
  long long user_event_sum(const UserEvent& user) const;
  /// Charge the per-call overhead model for one read-shaped call.
  void charge_read_overhead() const;

  int id_;
  Backend* backend_;
  const pfm::PfmLibrary* pfm_;
  const LibraryConfig* config_;
  const ComponentRegistry* registry_;
  ComponentLocks* locks_;

  SetState state_ = SetState::kStopped;
  /// group_count() snapshotted at start(): the layout is frozen while
  /// running, and the per-call overhead charge sits on the read hot
  /// path where re-summing the components would cost virtual dispatch.
  std::uint64_t running_group_count_ = 0;
  Tid target_ = simkernel::kInvalidTid;
  /// >= 0: cpu-scoped measurement (target_ is ignored).
  int target_cpu_ = -1;
  bool multiplexed_ = false;
  OverflowCallback overflow_callback_;

  FixedVector<NativeSlot, kMaxEventSetEvents> natives_;
  std::vector<UserEvent> user_events_;
  std::vector<ComponentUse> uses_;

  /// Per-native value scratch for collect() (mutable: read is logically
  /// const).
  mutable std::vector<double> native_scratch_;
  /// Per-native validity scratch for the tolerant collection paths.
  mutable std::vector<std::uint8_t> valid_scratch_;
  std::function<std::string(std::string_view)> core_type_resolver_;
  std::function<const SampleSource*(const pfm::Encoding&)>
      sample_source_resolver_;
};

}  // namespace hetpapi::papi
