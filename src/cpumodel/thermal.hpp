// Lumped-RC thermal model plus the throttling state machine.
//
// dT/dt = (P - (T - T_ambient) / R) / C
//
// The Raptor Lake box has a big cooler (high C, low R): at 65 W it
// settles far below the 100 C limit and never throttles (Figure 2). The
// OrangePi's passive case (low C, high R per cluster) pushes the big
// cluster past its 85 C trip within seconds of running HPL at 1.8 GHz,
// producing the sawtooth of Figure 3.
#pragma once

#include "base/units.hpp"
#include "cpumodel/machine.hpp"

namespace hetpapi::cpumodel {

class ThermalNode {
 public:
  explicit ThermalNode(const ThermalSpec& spec)
      : spec_(spec), temp_(spec.idle_settle) {}

  /// Integrate one timestep with `power` flowing into the node.
  void step(SimDuration dt, Watts power);

  Celsius temperature() const { return temp_; }
  const ThermalSpec& spec() const { return spec_; }

  /// Equilibrium temperature at constant power (for tests/calibration).
  Celsius equilibrium(Watts power) const {
    return Celsius{spec_.ambient.value + power.value * spec_.r_thermal_c_per_w};
  }

  void set_temperature(Celsius t) { temp_ = t; }

 private:
  ThermalSpec spec_;
  Celsius temp_;
};

/// Step-wise thermal throttle, modelling the kernel's cpufreq cooling
/// device: above the trip point the allowed frequency ratio ramps down;
/// once the node cools below (trip - hysteresis) it ramps back up.
class ThermalThrottle {
 public:
  explicit ThermalThrottle(const ThermalSpec& spec) : spec_(spec) {}

  /// Update throttle level from the node's temperature. Returns the
  /// allowed fraction of f_max in (0, 1].
  double update(SimDuration dt, Celsius temperature);

  double level() const { return level_; }
  bool throttling() const { return level_ < 1.0; }
  /// Total time spent with the throttle engaged (reported by telemetry).
  SimDuration throttled_time() const { return throttled_time_; }

 private:
  ThermalSpec spec_;
  double level_ = 1.0;
  SimDuration throttled_time_{0};
};

}  // namespace hetpapi::cpumodel
