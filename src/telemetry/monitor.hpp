// Monitored benchmark runs: spawn an HPL simulation on a set of cores,
// sample telemetry at 1 Hz while it runs, wait for thermal settle
// between repetitions, and aggregate repeated runs — the workflow of the
// paper's mon_hpl.py (T1) and process_runs.py (T2).
#pragma once

#include <vector>

#include "simkernel/kernel.hpp"
#include "telemetry/sampler.hpp"
#include "workload/hpl.hpp"

namespace hetpapi::telemetry {

/// Health summary of a monitored run's counter path (aggregated from the
/// sampler's per-tick accounting, plus the fault injector's ledger when
/// chaos is enabled).
struct RunHealth {
  std::uint64_t ticks_attempted = 0;
  std::uint64_t ticks_failed = 0;
  std::uint64_t ticks_degraded = 0;
  /// Counters individually dropped after repeated consecutive failures.
  std::size_t counters_dropped = 0;
  std::vector<std::string> dropped_counters;
  /// Counter sampling was abandoned mid-run (telemetry continued).
  bool sampling_abandoned = false;
  /// Events requested in MonitorConfig::sample_events that could not be
  /// added to the EventSet (the rest were still sampled).
  std::vector<std::string> events_not_added;
  /// Fault-injection accounting (zero when no fault profile is active).
  std::uint64_t faults_injected = 0;
  /// Fds still open in the injector's ledger after the measurement
  /// library was torn down — must be zero.
  std::size_t leaked_fds = 0;
};

/// Per-region marker aggregation over one run (MonitorConfig::
/// mark_hpl_phases): counter deltas, entries and time spent inside each
/// instrumented region, merged across threads by the marker manager.
struct RegionReport {
  std::string name;
  std::uint64_t entries = 0;
  double time_s = 0.0;
  /// Summed per-event counter deltas, aligned with
  /// RunResult::counter_names.
  std::vector<long long> totals;
};

struct RunResult {
  std::vector<Sample> samples;
  /// Display names of the per-sample PAPI counters (one per
  /// Sample::counters slot); empty when no events were sampled.
  std::vector<std::string> counter_names;
  /// Labels of the per-PMU constituents behind each counters slot
  /// ("adl_glc::INST_RETIRED:ANY[intel_core]", ...), aligned with
  /// Sample::counter_parts. Filled only with
  /// MonitorConfig::per_core_type_counters.
  std::vector<std::vector<std::string>> counter_part_names;
  SimDuration elapsed{0};
  double gflops = 0.0;
  std::uint64_t spin_instructions = 0;
  std::uint64_t work_instructions = 0;
  /// Ground-truth counters per core type (what perf would report),
  /// summed over all worker threads.
  std::vector<simkernel::ExecCounts> counts_per_type;
  /// Counter-path health over the run (all zeros without sample_events).
  RunHealth health;
  /// Per-region marker tables ("hpl", "factor", "update"), filled only
  /// with MonitorConfig::mark_hpl_phases.
  std::vector<RegionReport> regions;
};

struct MonitorConfig {
  double sample_period_s = 1.0;
  /// Wait for the package to cool to this temperature before starting
  /// (the paper settles at 35 C so thermal history is identical).
  double settle_temp_c = 35.0;
  double settle_timeout_s = 600.0;
  /// Abandon a run that exceeds this much simulated time.
  double run_timeout_s = 3600.0;
  /// PAPI events to read at every sample (presets, natives or sysinfo
  /// events — anything the component registry serves). When non-empty
  /// the monitor builds a measurement Library over the kernel, attaches
  /// an EventSet to the master worker and fills Sample::counters.
  /// Default empty: telemetry output is byte-identical to before.
  std::vector<std::string> sample_events;
  /// Sample through the qualified read path: every Sample additionally
  /// carries the per-PMU sub-counts of each event (derived hybrid
  /// presets split per core type — §V-2), and the run labels them in
  /// RunResult::counter_part_names. Default off: samples are
  /// byte-identical to the plain read path.
  bool per_core_type_counters = false;
  /// Serve the monitor's counter reads through the userspace rdpmc
  /// read plan (LibraryConfig::use_rdpmc): mmap'd user pages + seqlock
  /// reads with per-read fd fallback. Off preserves the pure
  /// syscall-path behaviour (and its overhead numbers).
  bool use_rdpmc = false;
  /// Instrument the HPL run with LIKWID-style markers: a "hpl" region
  /// around the whole run plus "factor"/"update" regions bracketing the
  /// master worker's work items, reported in RunResult::regions.
  /// Requires sample_events (the regions accumulate those counters).
  bool mark_hpl_phases = false;
  /// Chaos mode: wrap the monitor's measurement backend in a
  /// FaultInjectingBackend with this named profile (see
  /// papi::FaultProfile::named; "none" disables injection) and seed.
  /// The run itself must survive any profile — failures degrade
  /// sampling, never abort the workload.
  std::string fault_profile = "none";
  std::uint64_t fault_seed = 0;
};

/// Run one monitored HPL execution: one worker thread pinned to each cpu
/// in `cpus` (worker 0 on cpus[0] is the master).
RunResult run_monitored_hpl(simkernel::SimKernel& kernel,
                            const workload::HplConfig& hpl_config,
                            const std::vector<int>& cpus,
                            const MonitorConfig& monitor_config);

/// Let the machine idle until the package/hottest-cluster temperature
/// drops to `settle_temp_c` (bounded by the timeout).
void wait_for_thermal_settle(simkernel::SimKernel& kernel,
                             double settle_temp_c, double timeout_s);

/// Element-wise average of repeated runs (samples aligned by index,
/// truncated to the shortest run) — process_runs.py's job.
RunResult average_runs(const std::vector<RunResult>& runs);

}  // namespace hetpapi::telemetry
