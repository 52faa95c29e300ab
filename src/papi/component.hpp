// The component abstraction: PAPI's framework/components split.
//
// The framework (EventSet core + Library facade) never touches a
// counter directly; every measurement domain — core/software perf
// events, RAPL energy, uncore, procfs/sysfs readings — is a Component
// registered at init time. The framework resolves each native event to
// the component serving its PMU and dispatches open/start/stop/read
// through this interface, so adding a measurement domain is a new file
// under src/papi/components/, not surgery on the core (§IV-E; the same
// layering real PAPI uses and papi_component_avail reports).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.hpp"
#include "papi/backend.hpp"
#include "papi/config.hpp"
#include "pfm/pfmlib.hpp"

namespace hetpapi::papi {

/// Lock granularity of a component's counters: per measured thread
/// (core PMUs) or package-global (RAPL, uncore — one reader at a time,
/// whatever thread or cpu the EventSet targets).
enum class ComponentScope { kThread, kPackage };
std::string_view to_string(ComponentScope scope);

/// Capability flags, reported like papi_component_avail's columns.
struct ComponentCaps {
  bool rdpmc = false;      // userspace fast-path reads
  bool overflow = false;   // sampling / PAPI_overflow
  bool multiplex = false;  // events can rotate
};

/// Everything a component needs from its surroundings. The pointers
/// outlive the registry (they belong to the Library that registered the
/// component).
struct ComponentEnv {
  Backend* backend = nullptr;
  const pfm::PfmLibrary* pfm = nullptr;
  const LibraryConfig* config = nullptr;
};

/// What an EventSet is bound to when a component opens or reads slots.
struct MeasureTarget {
  Tid tid = simkernel::kInvalidTid;
  /// >= 0: cpu-scoped measurement (tid is ignored).
  int cpu = -1;
  /// Every event becomes its own rotatable group.
  bool multiplexed = false;
};

/// One native event the EventSet asks a component to open.
struct SlotRequest {
  pfm::Encoding enc;
  /// Value slot this event fills in the EventSet-wide read vector.
  std::size_t global_index = 0;
  /// Sampling period when in overflow mode (0 = counting).
  std::uint64_t sample_period = 0;
  int eventset_id = -1;
  int user_event_index = -1;
  /// Non-null when sampling: stable pointer into the owning EventSet.
  const OverflowCallback* overflow = nullptr;
  /// Non-null when sampling: the Library-owned names every sample and
  /// overflow event of this slot points into.
  const SampleSource* sample_source = nullptr;
};

/// Per-EventSet state a component keeps (its slots, fds, groups, read
/// plans). Owned by the EventSet, created via Component::create_state.
class ComponentState {
 public:
  virtual ~ComponentState() = default;
};

class Component {
 public:
  virtual ~Component() = default;

  virtual std::string_view name() const = 0;
  virtual ComponentScope scope() const = 0;
  virtual ComponentCaps caps() const = 0;

  /// True when this component hosts events of `pmu`. The registry asks
  /// components in registration order; first yes wins.
  virtual bool serves(const pfm::ActivePmu& pmu) const = 0;

  virtual std::unique_ptr<ComponentState> create_state() const = 0;

  /// Open one native event. On failure the state is unchanged.
  virtual Status open_slot(ComponentState& state, const SlotRequest& request,
                           const MeasureTarget& target) = 0;

  /// Close every slot and clear the state back to empty; returns the
  /// first close error but keeps going.
  virtual Status close_all(ComponentState& state) = 0;

  virtual Status start(ComponentState& state) = 0;
  virtual Status stop(ComponentState& state) = 0;
  virtual Status reset(ComponentState& state) = 0;

  /// Read every open slot into values[slot.global_index]. `scale`
  /// requests multiplex-scaled estimates where supported.
  ///
  /// `valid` selects the failure policy. nullptr (the strict, default
  /// path behind read()/stop()/accum()) fails the whole call when any
  /// slot cannot deliver. Non-null (the tolerant path behind
  /// read_checked()/read_qualified()) must be sized like `values`; a
  /// slot whose counter cannot deliver — dead fd, retry budget
  /// exhausted — gets its entry cleared to 0 and a 0.0 value while the
  /// remaining slots still report, so one dead counter degrades one
  /// slot instead of aborting the collection.
  virtual Status read(const ComponentState& state, bool scale,
                      std::vector<double>& values,
                      std::vector<std::uint8_t>* valid = nullptr) const = 0;

  /// Kernel-level groups currently held — the unit of per-call overhead
  /// accounting and of eventset_group_count().
  virtual int group_count(const ComponentState& state) const = 0;

  /// Drain every sampling slot's mmap ring into `batch` (append-only:
  /// callers may fan one batch across components). Components without a
  /// sampling surface report kNotSupported; the EventSet skips them.
  virtual Status drain_samples(ComponentState& state, SampleBatch& batch) {
    (void)state;
    (void)batch;
    return make_error(StatusCode::kNotSupported,
                      "component has no sampling rings");
  }
};

/// The component table built at Library::init — the registry
/// papi_component_avail walks.
class ComponentRegistry {
 public:
  /// Rejects duplicate names (kConflict).
  Status register_component(std::unique_ptr<Component> component);

  /// nullptr when no component of that name is registered.
  Component* find(std::string_view name) const;

  /// The component serving a PMU (first registered that claims it);
  /// nullptr when none does.
  Component* component_for(const pfm::ActivePmu& pmu) const;

  const std::vector<std::unique_ptr<Component>>& components() const {
    return components_;
  }

 private:
  std::vector<std::unique_ptr<Component>> components_;
};

/// "PAPI only allows one EventSet to be active per component at a time"
/// (per measured thread) — the constraint that defeats the two-EventSet
/// workaround (§IV-E). Keyed by (component, scope): per-thread
/// components lock their target tid (or attached cpu); package-scope
/// components are genuinely global.
class ComponentLocks {
 public:
  /// The scope key `component` takes for an EventSet bound to `target`.
  static Tid scope_key(const Component& component,
                       const MeasureTarget& target) {
    if (component.scope() == ComponentScope::kPackage) {
      return simkernel::kInvalidTid;
    }
    if (target.cpu >= 0) return -1000 - target.cpu;
    return target.tid;
  }

  /// kConflict when another EventSet already holds the lock.
  Status check(const Component& component, const MeasureTarget& target,
               int eventset) const;
  void acquire(const Component& component, const MeasureTarget& target,
               int eventset);
  void release(const Component& component, const MeasureTarget& target);

 private:
  std::map<std::pair<const Component*, Tid>, int> held_;
};

}  // namespace hetpapi::papi
