// 1 Hz system telemetry, the C++ equivalent of the paper's mon_hpl.py:
// polls per-core frequency (cpufreq), package temperature (the
// x86_pkg_temp thermal zone on Intel, soc-thermal on ARM), and RAPL
// energy (powercap, with wraparound handling) — all through the sysfs
// surface, exactly as the Python scripts do on real hardware.
#pragma once

#include <optional>
#include <vector>

#include "base/status.hpp"
#include "base/units.hpp"
#include "papi/library.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi::telemetry {

struct Sample {
  double t_seconds = 0.0;
  std::vector<double> core_freq_mhz;  // indexed by logical cpu
  double package_temp_c = 0.0;
  /// Average package power over the interval since the previous sample,
  /// derived from the RAPL energy counter delta (NaN when RAPL absent).
  double package_power_w = 0.0;
  /// Wall-meter reading (board power; ARM path, Figure 3).
  double board_power_w = 0.0;
  /// PAPI counter readings (one per sampled event, in add order) when a
  /// running EventSet is attached via attach_counters; empty otherwise.
  /// Slots that could not deliver this tick (dropped counter, degraded
  /// read) carry NaN.
  std::vector<double> counters;
  /// Per-PMU sub-counts behind each counters slot (derived hybrid
  /// presets split per core PMU; single-constituent events carry one
  /// entry). Filled only when the sampler reads qualified — empty by
  /// default so existing consumers see identical samples.
  std::vector<std::vector<double>> counter_parts;
  /// False when the counter read failed outright this tick: counters
  /// holds NaNs (or is empty if no read ever succeeded). Telemetry
  /// fields above are valid regardless — a failed caliper does not
  /// invalidate the thermals.
  bool counters_ok = true;
};

/// Health of the counter-sampling path over a run: every tick is
/// attempted, failures are counted instead of aborting, and counters
/// that keep failing are dropped individually.
struct CounterHealth {
  std::uint64_t ticks_attempted = 0;
  /// Ticks where the set-wide read failed (no counter values at all).
  std::uint64_t ticks_failed = 0;
  /// Ticks that delivered values but with at least one degraded slot.
  std::uint64_t ticks_degraded = 0;
  /// Per-slot drop flags (sized once the slot count is known): 1 after
  /// a counter crossed the consecutive-failure threshold and was
  /// removed from reporting.
  std::vector<std::uint8_t> dropped;
  /// Whole-set reads crossed the threshold: counter sampling was
  /// abandoned for the rest of the run (telemetry continues).
  bool abandoned = false;

  std::size_t dropped_count() const {
    std::size_t n = 0;
    for (const std::uint8_t d : dropped) n += d;
    return n;
  }
};

/// Consecutive failed ticks after which a counter is dropped, and
/// after which whole-set read failures abandon counter sampling.
inline constexpr int kMaxConsecutiveCounterFailures = 3;

class Sampler {
 public:
  explicit Sampler(const simkernel::SimKernel* kernel);

  /// Also read `eventset` (already created and started on `library`) at
  /// every sample — the monitor's path from telemetry into the
  /// component registry. Pass nullptr to detach. With `qualified` the
  /// sampler reads through read_qualified and additionally fills
  /// Sample::counter_parts with the per-PMU breakdown of every slot.
  /// A slot that fails kMaxConsecutiveCounterFailures ticks in a row
  /// is dropped (reported NaN from then on); the same threshold on
  /// whole-set read failures abandons counter sampling entirely. The
  /// run itself is never aborted by a failing counter.
  void attach_counters(const papi::Library* library, int eventset,
                       bool qualified = false);

  /// Take one sample at the kernel's current time.
  Sample sample();

  /// Reset inter-sample state (energy baseline, counter health) for a
  /// new run.
  void reset();

  /// Health of the counter path so far (all zeros when no counters are
  /// attached).
  const CounterHealth& counter_health() const { return health_; }

 private:
  std::optional<double> read_energy_uj();
  /// The counter-reading part of sample(); failures degrade, never throw.
  void sample_counters(Sample& s);

  const simkernel::SimKernel* kernel_;
  const papi::Library* library_ = nullptr;
  int eventset_ = -1;
  bool qualified_ = false;
  CounterHealth health_;
  /// Consecutive failed/degraded ticks per slot (drop bookkeeping).
  std::vector<int> consecutive_invalid_;
  /// Per-tick scratch, persistent for capacity reuse: the qualified and
  /// plain in-place read targets and the shared (value, validity)
  /// staging.
  std::vector<papi::QualifiedReading> qualified_scratch_;
  papi::Reading checked_scratch_;
  std::vector<double> values_scratch_;
  std::vector<std::uint8_t> valid_tick_scratch_;
  int consecutive_set_failures_ = 0;
  std::string temp_path_;
  bool has_rapl_ = false;
  /// Wrap handling for the 32-bit microjoule register.
  std::uint64_t last_energy_raw_ = 0;
  double unwrapped_energy_uj_ = 0.0;
  bool have_baseline_ = false;
  double last_sample_t_ = 0.0;
  double last_sample_energy_uj_ = 0.0;
};

}  // namespace hetpapi::telemetry
