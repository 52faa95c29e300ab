// The measurement library: a modern-C++ rendition of PAPI with the
// heterogeneous support this paper adds.
//
// Library is a thin facade over the componentized core:
//  * Name resolution lives here — presets (PAPI_TOT_INS, ...) resolve
//    per PMU and become derived sums across core PMUs on hybrid
//    machines (§V-2), custom preset files take precedence, native names
//    encode through the pfm layer.
//  * Everything an EventSet *does* lives in EventSetCore
//    (papi/eventset.hpp), which dispatches through the component
//    registry (papi/component.hpp): core/software perf events, RAPL,
//    uncore and the sysinfo software component are peer components
//    registered at init (papi/components/). With hybrid_support=false
//    an EventSet is pinned to its first PMU and a second PMU draws
//    PAPI_ECNFLCT — the legacy behaviour whose failure the paper
//    demonstrates. Uncore PMUs are served by the perf_event component
//    outright, so their events fold into ordinary mixed EventSets
//    (§V-3; the historical exclusive uncore component is retired).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "papi/backend.hpp"
#include "papi/component.hpp"
#include "papi/config.hpp"
#include "papi/detect.hpp"
#include "papi/eventset.hpp"
#include "papi/preset_defs.hpp"
#include "papi/presets.hpp"
#include "pfm/pfmlib.hpp"

namespace hetpapi::papi {

class Library {
 public:
  /// Initialize against a backend: scans PMUs (via the pfm layer), runs
  /// core-type detection, registers the built-in components, prepares
  /// preset resolution.
  static Expected<std::unique_ptr<Library>> init(Backend* backend,
                                                 LibraryConfig config);
  static Expected<std::unique_ptr<Library>> init(Backend* backend) {
    return init(backend, LibraryConfig{});
  }

  ~Library();
  Library(const Library&) = delete;
  Library& operator=(const Library&) = delete;

  // --- information ---------------------------------------------------------

  const HardwareInfo& hardware_info() const { return hwinfo_; }
  const pfm::PfmLibrary& pfm() const { return pfm_; }
  const LibraryConfig& config() const { return config_; }

  /// The component table built at init — what papi_component_avail
  /// walks: perf_event (core + folded uncore), rapl, sysinfo.
  const ComponentRegistry& registry() const { return registry_; }

  /// All native event names across active PMUs.
  std::vector<std::string> native_event_names() const;

  /// Presets measurable on this machine under the current policy.
  std::vector<std::string> available_presets() const;

  /// Load user preset definitions (the PAPI_events.csv role, keyed by
  /// PMU instead of family/model — §V-2). Loaded definitions take
  /// precedence over the built-in preset table. Replaces any previously
  /// loaded definitions.
  Status load_preset_definitions(std::string_view text);

  /// Names defined by the loaded definition file (empty if none).
  std::vector<std::string> custom_preset_names() const {
    return custom_presets_.preset_names();
  }

  /// Canonical spelling of an event name without touching any EventSet:
  /// presets resolve to their table spelling ("papi_tot_ins" ->
  /// "PAPI_TOT_INS"), natives to the pfm canonical form
  /// ("INST_RETIRED" -> "adl_glc::INST_RETIRED:ANY"). The sharing hook
  /// the counter-service daemon keys shared subscriptions on — two
  /// clients spelling the same event differently must coalesce onto one
  /// server-side EventSet (src/service/daemon.cpp).
  Expected<std::string> canonical_event_name(std::string_view name) const;

  // --- EventSet lifecycle ----------------------------------------------------

  Expected<int> create_eventset();
  Status destroy_eventset(int eventset);
  /// Teardown-grade destroy for session reapers: stop is best-effort
  /// and the set is closed and erased even when the backend faults
  /// mid-stop (plain destroy_eventset refuses a running set, which
  /// would pin its fds forever behind an injected stop failure).
  Status force_destroy_eventset(int eventset);

  /// Bind the EventSet to a thread. Allowed while stopped; existing
  /// events are transparently re-opened on the new target.
  Status attach(int eventset, Tid tid);

  /// Bind the EventSet to a logical CPU instead of a thread
  /// (PAPI_attach with cpu granularity / `perf stat -C`): core events
  /// count everything executing on that cpu regardless of thread. Core
  /// events must come from the PMU that serves the cpu; adding a
  /// foreign core type's event fails the way the kernel does.
  Status attach_cpu(int eventset, int cpu);

  /// Add a native event ("adl_glc::INST_RETIRED:ANY", "INST_RETIRED")
  /// or a preset ("PAPI_TOT_INS").
  Status add_event(int eventset, std::string_view name);

  /// PAPI_remove_event: drop a previously added event (matched against
  /// its display name, case-insensitively). The set must be stopped; the
  /// surviving events keep their relative order and are transparently
  /// re-opened, so a subsequent read returns one value per remaining
  /// event.
  Status remove_event(int eventset, std::string_view name);

  /// Convert the EventSet to multiplexed operation: every event becomes
  /// its own group leader so the kernel can rotate freely (§IV-E's
  /// multiplexing caveat). Must be stopped; every component in the set
  /// must advertise the multiplex capability.
  Status set_multiplex(int eventset);

  /// PAPI_overflow equivalent: arm sampling on one of the EventSet's
  /// user events. The set must be stopped; its constituent native events
  /// are re-opened in sampling mode with `threshold` as the period. On a
  /// hybrid machine a derived preset samples on every constituent PMU.
  /// Samples reach the caller only through the mmap rings, as on real
  /// Linux: `callback` (may be null) fires from read_samples /
  /// read_samples_into, once per Sample that drain decodes, so each call
  /// names the native event — and core type — that fired. A slot whose
  /// ring mmap was denied keeps counting but delivers no callbacks.
  using OverflowCallback = ::hetpapi::papi::OverflowCallback;
  /// What a callback receives: the drained Sample itself. The name is
  /// kept for callers written against the earlier callback type.
  using OverflowEvent = Sample;
  Status set_overflow(int eventset, int user_event_index,
                      std::uint64_t threshold, OverflowCallback callback);

  /// Drain the EventSet's sample rings: one safe pass over every
  /// sampling slot's mmap ring, decoding PERF_RECORD_SAMPLE records
  /// into typed samples labelled per core type (the core_type_for_pmu
  /// ladder), summing PERF_RECORD_LOST drops, and reporting the
  /// degradation counters (denied rings, stalled drains, dropped
  /// wakeups). The set's overflow callback fires once per decoded
  /// sample before this returns. Callable while running or after stop;
  /// each record is returned exactly once, and one call after stop()
  /// returns every record and every LOST count. A sample's names are views into
  /// Library-owned storage, valid until the Library is destroyed.
  /// kInvalidArgument when the set has no event in overflow mode.
  Expected<SampleBatch> read_samples(int eventset);
  /// read_samples() into a caller-owned batch: `batch` is cleared but
  /// keeps its capacity, so a steady-state drain loop reusing one batch
  /// does not allocate.
  Status read_samples_into(int eventset, SampleBatch& batch);

  Status start(int eventset);
  /// Stop counting; returns the final values (one per added event, in
  /// add order).
  Expected<std::vector<long long>> stop(int eventset);
  /// Current values, one per added event in add order. Every read below
  /// wraps one allocation-free collection over the set's flat read plan
  /// (DESIGN.md §10).
  Expected<std::vector<long long>> read(int eventset) const;
  /// Allocation-free read(): folds the current counts into `out`
  /// (resized to one slot per event; a reused buffer keeps its capacity,
  /// so the hot path never allocates). Strict: any group that cannot
  /// deliver fails the call, and `out` is then unspecified. The marker
  /// API is built on this.
  Status read_into(int eventset, std::vector<long long>& out) const;
  /// Allocation-free read_qualified(): rewrites `out` in place, label
  /// views included; reshapes only when the set's layout changed.
  Status read_qualified_into(int eventset,
                             std::vector<QualifiedReading>& out) const;
  /// read() plus degradation tags, collected tolerantly: one dead
  /// counter (stale fd, exhausted retry budget) degrades its group's
  /// slots to partial sums with Reading::value_degraded[i] set, instead
  /// of failing the whole call the way the strict read() does.
  Expected<Reading> read_checked(int eventset) const;
  /// Allocation-free read_checked() into a reused Reading: the surface
  /// the telemetry sampler and the counter-service daemon tick through.
  Status read_checked_into(int eventset, Reading& out) const;
  /// PAPI_read_qualified: like read(), but each value slot carries the
  /// per-PMU breakdown a derived preset was transparently summed from,
  /// with every constituent labelled by its detected core type (§V-2's
  /// per-core-type reporting). For non-derived events the breakdown is
  /// the single constituent; totals always equal what read() returns.
  /// Collected tolerantly, like read_checked(). Labels are views into
  /// names the Library interns once: valid for the Library's lifetime,
  /// past destroy_eventset.
  Expected<std::vector<QualifiedReading>> read_qualified(int eventset) const;
  /// Detected core-type label serving `pmu_name` ("" when the PMU is not
  /// a core PMU or is unknown).
  std::string core_type_for_pmu(std::string_view pmu_name) const;
  /// PAPI_accum: add the current counts into `values` (which must have
  /// one slot per added event) and reset the counters — the idiom for
  /// accumulating across loop iterations without stop/start pairs.
  Status accum(int eventset, std::vector<long long>& values);
  Status reset(int eventset);

  /// PAPI_state equivalent.
  enum class SetStatePublic { kStopped, kRunning };
  Expected<SetStatePublic> state(int eventset) const;

  /// Value-slot descriptions, in add order.
  Expected<std::vector<EventInfo>> eventset_info(int eventset) const;

  /// Number of perf groups the EventSet currently holds (1 on legacy,
  /// one per PMU type with hybrid support) — exposed for tests and the
  /// overhead bench.
  Expected<int> eventset_group_count(int eventset) const;

 private:
  Library(Backend* backend, LibraryConfig config);

  EventSetCore* find_set(int eventset);
  const EventSetCore* find_set(int eventset) const;

  /// Expand a custom (file-defined) preset into the set.
  Status add_custom_preset(EventSetCore& set, std::string_view name);

  Backend* backend_;
  LibraryConfig config_;
  pfm::PfmLibrary pfm_;
  PresetDefinitionFile custom_presets_;
  HardwareInfo hwinfo_;
  ComponentRegistry registry_;
  ComponentLocks locks_;
  std::vector<std::unique_ptr<EventSetCore>> sets_;
  int next_set_id_ = 0;
  /// What samples and qualified readings point into.
  NameTable names_;
};

}  // namespace hetpapi::papi
