// Strong unit types for the physical quantities the models exchange.
//
// Frequencies, powers, energies, temperatures and simulated time flow
// between the DVFS governor, the RAPL model, the thermal model and the
// telemetry pollers; strong types keep W from being added to J.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>

namespace hetpapi {

/// Simulated time. Nanosecond resolution, 64-bit: covers ~292 years.
using SimDuration = std::chrono::nanoseconds;

struct SimTime {
  SimDuration since_epoch{0};

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimDuration d) const { return SimTime{since_epoch + d}; }
  constexpr SimDuration operator-(SimTime other) const {
    return since_epoch - other.since_epoch;
  }
  constexpr SimTime& operator+=(SimDuration d) {
    since_epoch += d;
    return *this;
  }

  constexpr double seconds() const {
    return std::chrono::duration<double>(since_epoch).count();
  }
  static constexpr SimTime from_seconds(double s) {
    return SimTime{std::chrono::duration_cast<SimDuration>(
        std::chrono::duration<double>(s))};
  }
};

/// CRTP base for double-valued strong unit types.
template <typename Derived>
struct UnitBase {
  double value = 0.0;

  constexpr auto operator<=>(const UnitBase&) const = default;

  friend constexpr Derived operator+(Derived a, Derived b) { return Derived{a.value + b.value}; }
  friend constexpr Derived operator-(Derived a, Derived b) { return Derived{a.value - b.value}; }
  friend constexpr Derived operator*(Derived a, double k) { return Derived{a.value * k}; }
  friend constexpr Derived operator*(double k, Derived a) { return Derived{a.value * k}; }
  friend constexpr Derived operator/(Derived a, double k) { return Derived{a.value / k}; }
  friend constexpr double operator/(Derived a, Derived b) { return a.value / b.value; }
  constexpr Derived& operator+=(Derived other) {
    value += other.value;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator-=(Derived other) {
    value -= other.value;
    return static_cast<Derived&>(*this);
  }
};

/// Clock frequency in MHz (the native unit of cpufreq sysfs files is kHz;
/// conversion helpers below).
struct MegaHertz : UnitBase<MegaHertz> {
  constexpr double gigahertz() const { return value / 1e3; }
  constexpr std::int64_t kilohertz() const {
    return static_cast<std::int64_t>(value * 1e3);
  }
  static constexpr MegaHertz from_ghz(double ghz) { return MegaHertz{ghz * 1e3}; }
  static constexpr MegaHertz from_khz(std::int64_t khz) {
    return MegaHertz{static_cast<double>(khz) / 1e3};
  }
};

struct Watts : UnitBase<Watts> {};

struct Joules : UnitBase<Joules> {
  constexpr Watts over(SimDuration dt) const {
    return Watts{value / std::chrono::duration<double>(dt).count()};
  }
};

constexpr Joules operator*(Watts p, SimDuration dt) {
  return Joules{p.value * std::chrono::duration<double>(dt).count()};
}

struct Celsius : UnitBase<Celsius> {
  /// Linux thermal zones report millidegrees.
  constexpr std::int64_t millidegrees() const {
    return static_cast<std::int64_t>(value * 1000.0);
  }
};

/// Giga floating-point operations per second (HPL's reporting unit).
struct GigaFlops : UnitBase<GigaFlops> {};

}  // namespace hetpapi
