// The per-core-type hybrid sampling profiler: instruments a
// SimpleMOC-kernel-style workload with PAPI_overflow-style sampling,
// drains the sample rings through Library::read_samples, and renders a
// flat hot-spot table with one column per detected core type — the §V
// observation that a hybrid profile is only meaningful when samples are
// attributed to the core type that produced them.
//
// Everything the profiler prints is deterministic (simulated time,
// exact-truth counters), so the rendered report is golden-testable
// byte-for-byte and must be identical at any executor thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "workload/simplemoc.hpp"

namespace hetpapi::telemetry {

struct ProfileOptions {
  /// Machine preset alias ("raptorlake", "dynamiq", ...).
  std::string machine = "raptorlake";
  /// Event to sample — a preset or native name; on hybrid machines a
  /// derived preset samples on every constituent PMU.
  std::string event = "PAPI_TOT_INS";
  /// SimpleMOC-kernel-style numbered event set; >= 0 overrides `event`
  /// with the set's first event (the others ride along counting).
  int event_set = -1;
  /// Sampling period (counts per sample). Deliberately off-round: a
  /// period that divides the workload's per-segment instruction count
  /// would alias every sample onto the same phase (classic profiler
  /// lockstep), so the default is coprime with the segment period.
  std::uint64_t period = 1'111'111;
  /// Simulated worker threads, round-robin pinned across the machine's
  /// core types — pinning makes per-core-type attribution exactly
  /// checkable (a worker pinned to E cores must produce zero P samples).
  int workers = 4;
  workload::SimpleMocConfig moc{};
};

/// Per-worker validation numbers: the sample count reconciled against
/// the stopped counter value and the kernel's exact ground truth.
struct ProfileWorkerStats {
  int worker = -1;
  std::string core_type;  // label of the pinned core type
  std::uint64_t samples = 0;
  std::uint64_t lost = 0;
  /// Final value of the sampled event at stop().
  std::uint64_t counter = 0;
  /// Ground-truth instructions the worker retired on its pinned type.
  std::uint64_t truth_instructions = 0;
  /// Samples from a core type other than the pinned one (must be 0).
  std::uint64_t foreign_samples = 0;
  bool ok = false;
};

struct ProfileReport {
  /// The rendered flat profile (header, per-symbol rows split per core
  /// type, totals, drain counters, validation lines).
  std::string table;
  std::vector<std::string> core_type_labels;  // column order
  std::vector<ProfileWorkerStats> workers;
  std::uint64_t total_samples = 0;
  std::uint64_t lost = 0;
  std::uint64_t malformed = 0;
  int rings_denied = 0;
  int drains_stalled = 0;
  int wakeups_missed = 0;
  /// Every worker reconciled: delivered + lost == floor(counter/period)
  /// exactly, |(samples + lost) x period - counter| <= period, zero foreign
  /// samples.
  bool validated = false;
};

/// Run the instrumented workload on `options.machine` and profile it.
Expected<ProfileReport> run_simplemoc_profile(const ProfileOptions& options);

}  // namespace hetpapi::telemetry
