// Package power model and RAPL (Running Average Power Limit) emulation.
//
// RAPL enforces two limits (Figure 2 of the paper): a short-term cap
// (PL2, 219 W on the studied system) averaged over a small window, and a
// long-term cap (PL1, 65 W) averaged over a large window. From idle the
// long-window average is low, so the package may burn up to PL2 for a
// few seconds (the "initial spike" in Figures 1-2) before the long
// average saturates and sustained power falls to PL1.
#pragma once

#include "base/units.hpp"
#include "cpumodel/machine.hpp"
#include "cpumodel/types.hpp"

namespace hetpapi::cpumodel {

/// Instantaneous power of one logical CPU.
/// `util` is the busy fraction of the interval (0..1); `activity` is the
/// switching-activity factor of the running code (SIMD-dense HPL ~1.0,
/// scalar ~0.6, idle 0). SMT threads of one core share the core's
/// dynamic power, handled by the caller dividing util across threads.
Watts cpu_power(const CoreTypeSpec& type, MegaHertz freq, double util,
                double activity);

/// Running-average power limiter with microjoule energy accounting
/// (RAPL's native unit) and the standard MSR-style wraparound.
class RaplModel {
 public:
  explicit RaplModel(const RaplSpec& spec);

  /// Power the package is currently allowed to draw, considering both
  /// sliding windows. Infinite when RAPL is absent.
  Watts allowed_power() const;

  /// Integrate `power` over `dt`: advances energy counters and both
  /// window averages.
  void step(SimDuration dt, Watts power);

  /// Cumulative package energy counter in microjoules, wrapping at 2^32
  /// like the real MSR_PKG_ENERGY_STATUS register. The telemetry module
  /// must handle the wrap, exactly as the paper's mon_hpl.py does.
  std::uint32_t energy_status_uj() const;

  /// Unwrapped total for verification (sim-only backdoor).
  Joules total_energy() const { return total_energy_; }

  Watts long_window_average() const { return Watts{avg_long_}; }
  Watts short_window_average() const { return Watts{avg_short_}; }
  const RaplSpec& spec() const { return spec_; }

 private:
  RaplSpec spec_;
  double avg_long_ = 0.0;   // EWMA over tau_long
  double avg_short_ = 0.0;  // EWMA over tau_short
  Joules total_energy_{0.0};
  /// The two EWMA factors for the last step's dt: a tick length rarely
  /// changes, so step() pays for its two exp() calls once.
  double factors_dt_s_ = 0.0;
  double a_long_ = 0.0;
  double a_short_ = 0.0;
};

/// Wall-socket power meter (WattsUpPro stand-in for the OrangePi board,
/// Figure 3): board idle draw plus SoC power through PSU efficiency.
class BoardPowerMeter {
 public:
  BoardPowerMeter(Watts board_idle, double psu_efficiency)
      : board_idle_(board_idle), psu_efficiency_(psu_efficiency) {}

  Watts reading(Watts soc_power) const {
    return Watts{(board_idle_.value + soc_power.value) / psu_efficiency_};
  }

 private:
  Watts board_idle_;
  double psu_efficiency_;
};

}  // namespace hetpapi::cpumodel
