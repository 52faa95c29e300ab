#include "cpumodel/power.hpp"

#include <cmath>
#include <limits>

namespace hetpapi::cpumodel {

Watts cpu_power(const CoreTypeSpec& type, MegaHertz freq, double util,
                double activity) {
  const double v = type.dvfs.voltage_at(freq);
  const double dyn =
      util * activity * type.power.c_dyn * freq.gigahertz() * v * v;
  return Watts{dyn + type.power.leakage_w};
}

RaplModel::RaplModel(const RaplSpec& spec) : spec_(spec) {}

Watts RaplModel::allowed_power() const {
  if (!spec_.present) return Watts{std::numeric_limits<double>::infinity()};
  // An EWMA-constrained limiter: pick the instantaneous power p such that
  // the window average never exceeds its limit. With avg' = avg +
  // (p - avg) * dt/tau the headroom is (limit - avg) * tau/dt; rather than
  // expose a dt-dependent bound we use the steady-state form: while the
  // average is below the limit, the hard ceiling is the other window's
  // limit; once the average reaches the limit, power is clamped to it.
  const double head_long = spec_.pl1.value - avg_long_;
  const double head_short = spec_.pl2.value - avg_short_;
  // Proportional controller: full PL2 headroom while the long window is
  // cold; approach PL1 smoothly as it warms up. The 6x gain keeps the
  // transition sharp (a few hundred ms) like real firmware.
  double allowed = spec_.pl1.value + head_long * 6.0;
  if (allowed > spec_.pl2.value) allowed = spec_.pl2.value;
  const double short_cap = spec_.pl2.value + head_short * 6.0;
  if (allowed > short_cap) allowed = short_cap;
  if (allowed < spec_.pl1.value * 0.5) allowed = spec_.pl1.value * 0.5;
  return Watts{allowed};
}

void RaplModel::step(SimDuration dt, Watts power) {
  const double dt_s = std::chrono::duration<double>(dt).count();
  if (dt_s <= 0.0) return;
  total_energy_ += power * dt;
  if (dt_s != factors_dt_s_) {
    factors_dt_s_ = dt_s;
    a_long_ = 1.0 - std::exp(-dt_s / spec_.tau_long_s);
    a_short_ = 1.0 - std::exp(-dt_s / spec_.tau_short_s);
  }
  avg_long_ += (power.value - avg_long_) * a_long_;
  avg_short_ += (power.value - avg_short_) * a_short_;
}

std::uint32_t RaplModel::energy_status_uj() const {
  const double uj = total_energy_.value * 1e6;
  // Wrap modulo 2^32 as the hardware register does.
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(uj) & 0xFFFFFFFFULL);
}

}  // namespace hetpapi::cpumodel
