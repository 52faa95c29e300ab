// Shared public types of the measurement library: configuration,
// capacities, and the value-slot / overflow descriptions.
//
// These used to live in library.hpp; they moved here so the component
// and EventSet layers can consume them without depending on the facade
// (library.hpp re-exports everything, so user code is unaffected).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "papi/presets.hpp"
#include "pfm/pfmlib.hpp"

namespace hetpapi::papi {

/// Compile-time capacities for the static bookkeeping arrays.
inline constexpr std::size_t kMaxEventSetEvents = 64;
inline constexpr std::size_t kMaxPmuGroups = 8;

struct LibraryConfig {
  /// The paper's contribution on/off switch.
  bool hybrid_support = true;
  PresetPolicy preset_policy = PresetPolicy::kDerivedSum;
  pfm::PfmLibrary::Config pfm{};
  /// Instructions charged to the measured thread per start/stop/read
  /// call, per perf group touched (models caliper overhead; §V-5).
  std::uint64_t call_overhead_instructions = 900;
  /// Serve reads through the userspace rdpmc read plan: mmap each
  /// resident event's perf user page and read counters with the seqlock
  /// protocol, falling back to read(2) when a page reports rdpmc off,
  /// the event is not resident (multiplexed out / migrated core types),
  /// or retries exhaust (§V-5).
  bool use_rdpmc = false;
  /// Graceful degradation for multi-constituent (derived hybrid)
  /// events: when one core-type PMU refuses to open its constituent,
  /// keep the constituents that did open instead of failing the whole
  /// add. The event is flagged degraded, read() returns the partial sum
  /// and read_qualified() reports the missing constituents with their
  /// validity bit cleared. Off (the default) preserves the historical
  /// all-or-nothing behaviour — a partial sum must be asked for.
  bool degrade_partial_presets = false;
};

/// Describes one value slot of an EventSet read.
struct EventInfo {
  std::string display_name;       // what the user added
  bool is_preset = false;
  std::vector<std::string> native_names;  // canonical constituent events
  /// True when the event opened on only a subset of its constituent
  /// PMUs (LibraryConfig::degrade_partial_presets); reads of this slot
  /// are partial sums.
  bool degraded = false;
  /// Canonical names of constituents that failed to open (empty unless
  /// degraded).
  std::vector<std::string> missing_names;
};

/// A tagged read: the values read() would return plus the degradation
/// state of each slot, so callers can tell a full count from a partial
/// one. A slot is degraded when its event opened on only a subset of
/// its PMUs, or when a live counter failed to deliver this collection
/// (stale fd, retry budget exhausted) — the value is then the sum of
/// the constituents that did report. Library::read_checked_into fills a
/// reused Reading in place, without allocating.
struct Reading {
  std::vector<long long> values;            // one per user event, add order
  std::vector<std::uint8_t> value_degraded; // 1 = values[i] is partial
  bool degraded = false;                    // any slot degraded
};

/// One constituent of a qualified (per-PMU) read: the raw value the
/// native event counted on its PMU, before derived summation. The three
/// labels are views into names the Library interns once per native
/// event (see SampleSource): valid for the Library's lifetime, whatever
/// happens to the EventSet, and refilled by pointer assignment on every
/// read_qualified_into.
struct QualifiedValue {
  std::string_view native_name;  // canonical, e.g. "adl_glc::INST_RETIRED:ANY"
  std::string_view pmu_name;     // pfm table name, e.g. "adl_glc"
  /// Detected core-type label serving this PMU ("intel_core",
  /// "capacity-1024", ...); empty for non-core PMUs (rapl, uncore,
  /// software).
  std::string_view core_type;
  /// +1 / -1 weight this constituent contributes to the derived total.
  int sign = 1;
  long long value = 0;
  /// False when this constituent delivered no count: it never opened
  /// (degraded add) or its counter died / kept failing at read time.
  /// Invalid parts carry value 0 and are excluded from the total.
  bool valid = true;
};

/// PAPI_read_qualified-style result for one user event: the transparent
/// derived total (identical to what read() returns for the slot) plus
/// the per-PMU breakdown it was summed from (§V-2).
struct QualifiedReading {
  /// What the user added, interned by the Library like the part labels.
  std::string_view display_name;
  bool is_preset = false;
  long long total = 0;
  std::vector<QualifiedValue> parts;
  /// True when any part is invalid: the total is a partial sum over the
  /// valid constituents only.
  bool degraded = false;
};

/// The names of one native event: what every Sample it produces and
/// every qualified part it reads as point into. The Library interns one
/// per native event the first time the event is added and never frees
/// it while the Library lives, so those string_views stay valid until
/// the Library is destroyed — past destroy_eventset and re-adding.
struct SampleSource {
  std::string native_name;  // canonical, e.g. "adl_glc::INST_RETIRED:ANY"
  std::string pmu_name;     // pfm table name, e.g. "adl_glc"
  /// Detected core-type label serving the PMU ("intel_core",
  /// "capacity-1024", ...) via the core_type_for_pmu ladder; empty for
  /// non-core PMUs.
  std::string core_type;
};

/// One decoded PERF_RECORD_SAMPLE, attributed back to the user event
/// whose constituent native event wrote it — what the drain loop
/// (Library::read_samples) returns after walking each slot's mmap ring.
/// The three names are views into the Library's SampleSource table:
/// valid for the Library's lifetime, whatever happens to the EventSet.
struct Sample {
  int eventset = -1;
  int user_event_index = -1;
  std::string_view native_name;  // constituent whose ring carried the record
  std::string_view pmu_name;     // pfm table name, e.g. "adl_glc"
  std::string_view core_type;    // see SampleSource::core_type
  std::uint64_t ip = 0;       // sampled instruction pointer
  std::uint32_t tid = 0;      // sampled thread
  std::uint64_t time_ns = 0;  // sample timestamp
  int cpu = -1;               // cpu the period crossing landed on
  std::uint64_t period = 0;   // counts this sample represents
};

/// PAPI_overflow delivery: called once per Sample a drain pass
/// (Library::read_samples / read_samples_into) decodes from the ring, so
/// hybrid callers can split samples per core type as they arrive.
using OverflowCallback = std::function<void(const Sample&)>;

/// The result of one drain pass over an EventSet's sample rings.
struct SampleBatch {
  std::vector<Sample> samples;
  /// Records dropped ring-side (decoded PERF_RECORD_LOST sums).
  std::uint64_t lost = 0;
  /// Records the cursor resynchronized past after a malformed header.
  std::uint64_t malformed = 0;
  /// Slots running in counting-mode degradation: their ring mmap was
  /// denied, so they keep counting but deliver no samples and no
  /// overflow callbacks — what real Linux gives a reader without a ring.
  int rings_denied = 0;
  /// Slots skipped this pass because the poll/wakeup surface kept
  /// failing transiently (stalled drain); their records stay queued for
  /// the next pass.
  int drains_stalled = 0;
  /// Slots whose ring held records although the wakeup surface reported
  /// none (dropped wakeups) — drained anyway, counted for diagnostics.
  int wakeups_missed = 0;
};

}  // namespace hetpapi::papi
