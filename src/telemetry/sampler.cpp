#include "telemetry/sampler.hpp"

#include <cmath>

#include "base/strings.hpp"
#include "cpumodel/power.hpp"

namespace hetpapi::telemetry {

namespace {
constexpr std::uint64_t kEnergyWrap = 1ULL << 32;  // max_energy_range_uj + 1
}

Sampler::Sampler(const simkernel::SimKernel* kernel) : kernel_(kernel) {
  const auto& machine = kernel_->machine();
  temp_path_ = machine.vendor == cpumodel::Vendor::kIntel
                   ? "/sys/class/thermal/thermal_zone9/temp"
                   : "/sys/class/thermal/thermal_zone0/temp";
  has_rapl_ = machine.rapl.present;
}

void Sampler::attach_counters(const papi::Library* library, int eventset,
                              bool qualified) {
  library_ = library;
  eventset_ = eventset;
  qualified_ = qualified;
  health_ = CounterHealth{};
  consecutive_invalid_.clear();
  consecutive_set_failures_ = 0;
}

void Sampler::reset() {
  have_baseline_ = false;
  last_energy_raw_ = 0;
  unwrapped_energy_uj_ = 0.0;
  last_sample_t_ = 0.0;
  last_sample_energy_uj_ = 0.0;
  health_ = CounterHealth{};
  consecutive_invalid_.clear();
  consecutive_set_failures_ = 0;
}

std::optional<double> Sampler::read_energy_uj() {
  if (!has_rapl_) return std::nullopt;
  const auto raw_str =
      kernel_->sysfs_read("/sys/class/powercap/intel-rapl:0/energy_uj");
  if (!raw_str) return std::nullopt;
  const auto raw = parse_int(trim(*raw_str));
  if (!raw) return std::nullopt;
  const auto value = static_cast<std::uint64_t>(*raw);
  if (!have_baseline_) {
    last_energy_raw_ = value;
    return unwrapped_energy_uj_;
  }
  // Unwrap: the register is monotonically increasing modulo 2^32.
  std::uint64_t delta = value >= last_energy_raw_
                            ? value - last_energy_raw_
                            : value + kEnergyWrap - last_energy_raw_;
  last_energy_raw_ = value;
  unwrapped_energy_uj_ += static_cast<double>(delta);
  return unwrapped_energy_uj_;
}

Sample Sampler::sample() {
  Sample s;
  s.t_seconds = kernel_->now().seconds();

  const int n = kernel_->machine().num_cpus();
  s.core_freq_mhz.reserve(static_cast<std::size_t>(n));
  for (int cpu = 0; cpu < n; ++cpu) {
    const auto khz = kernel_->sysfs_read(
        "/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
        "/cpufreq/scaling_cur_freq");
    double mhz = 0.0;
    if (khz) {
      if (const auto parsed = parse_int(trim(*khz))) {
        mhz = static_cast<double>(*parsed) / 1000.0;
      }
    }
    s.core_freq_mhz.push_back(mhz);
  }

  if (const auto temp = kernel_->sysfs_read(temp_path_)) {
    if (const auto parsed = parse_int(trim(*temp))) {
      s.package_temp_c = static_cast<double>(*parsed) / 1000.0;
    }
  }

  const auto energy = read_energy_uj();
  if (energy && have_baseline_) {
    const double dt = s.t_seconds - last_sample_t_;
    if (dt > 0.0) {
      s.package_power_w = (*energy - last_sample_energy_uj_) / 1e6 / dt;
    }
  } else {
    s.package_power_w = std::nan("");
  }
  if (energy) {
    last_sample_energy_uj_ = *energy;
  }
  have_baseline_ = true;
  last_sample_t_ = s.t_seconds;

  // Board power (WattsUpPro stand-in): PSU losses plus board idle draw
  // over the SoC power. Sampled directly from the model because a wall
  // meter is outside the DUT.
  const cpumodel::BoardPowerMeter meter(Watts{2.6}, 0.82);
  s.board_power_w =
      meter.reading(kernel_->governor().package_power()).value;

  if (library_ != nullptr) sample_counters(s);
  return s;
}

void Sampler::sample_counters(Sample& s) {
  ++health_.ticks_attempted;
  const std::size_t known_slots = health_.dropped.size();

  const auto fail_tick = [&] {
    s.counters_ok = false;
    s.counters.assign(known_slots, std::nan(""));
    ++health_.ticks_failed;
    if (!health_.abandoned &&
        ++consecutive_set_failures_ >= kMaxConsecutiveCounterFailures) {
      health_.abandoned = true;
    }
  };
  if (health_.abandoned) {
    fail_tick();
    return;
  }

  // Collect this tick's per-slot (value, validity) pairs — same shape
  // for the plain and qualified paths, so the drop bookkeeping below is
  // shared. The scratch buffers persist across ticks (capacity reuse),
  // and both paths read in place (read_qualified_into /
  // read_checked_into), so a steady-state tick allocates only the
  // Sample's own vectors.
  std::vector<double>& values = values_scratch_;
  std::vector<std::uint8_t>& valid = valid_tick_scratch_;
  values.clear();
  valid.clear();
  if (qualified_) {
    const Status read = library_->read_qualified_into(eventset_,
                                                      qualified_scratch_);
    if (!read.is_ok()) {
      fail_tick();
      return;
    }
    const std::vector<papi::QualifiedReading>& readings = qualified_scratch_;
    values.reserve(readings.size());
    valid.reserve(readings.size());
    s.counter_parts.reserve(readings.size());
    for (const papi::QualifiedReading& reading : readings) {
      values.push_back(static_cast<double>(reading.total));
      valid.push_back(reading.degraded ? 0 : 1);
      std::vector<double> parts;
      parts.reserve(reading.parts.size());
      for (const papi::QualifiedValue& part : reading.parts) {
        parts.push_back(part.valid
                            ? static_cast<double>(part.sign * part.value)
                            : std::nan(""));
      }
      s.counter_parts.push_back(std::move(parts));
    }
  } else {
    papi::Reading& reading = checked_scratch_;
    if (!library_->read_checked_into(eventset_, reading).is_ok()) {
      fail_tick();
      return;
    }
    values.reserve(reading.values.size());
    valid.reserve(reading.values.size());
    for (std::size_t i = 0; i < reading.values.size(); ++i) {
      values.push_back(static_cast<double>(reading.values[i]));
      valid.push_back(i < reading.value_degraded.size() &&
                              reading.value_degraded[i] != 0
                          ? 0
                          : 1);
    }
  }
  consecutive_set_failures_ = 0;

  if (health_.dropped.size() != values.size()) {
    health_.dropped.assign(values.size(), 0);
    consecutive_invalid_.assign(values.size(), 0);
  }
  bool any_degraded = false;
  s.counters.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (health_.dropped[i] != 0) {
      s.counters.push_back(std::nan(""));
      continue;
    }
    if (valid[i] != 0) {
      consecutive_invalid_[i] = 0;
      s.counters.push_back(values[i]);
      continue;
    }
    any_degraded = true;
    s.counters.push_back(std::nan(""));
    if (++consecutive_invalid_[i] >= kMaxConsecutiveCounterFailures) {
      health_.dropped[i] = 1;
    }
  }
  if (any_degraded) ++health_.ticks_degraded;
}

}  // namespace hetpapi::telemetry
