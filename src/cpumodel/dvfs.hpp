// Package DVFS governor: picks per-cluster frequencies each tick,
// subject to the RAPL power budget and per-cluster thermal throttles.
//
// The emergent behaviours this produces are exactly the paper's
// motivation section:
//  * Figure 1 - frequencies spike while the RAPL long window is cold,
//    then settle to whatever the 65 W budget affords; idle E-cores
//    (OpenBLAS barrier stragglers finish early) leave more budget for
//    the P-cores, so the hybrid-unaware run shows *higher* P frequency
//    yet lower throughput.
//  * Figure 2 - package power spikes toward PL2 then rides PL1.
//  * Figure 3 - the OrangePi big cluster trips its thermal throttle in
//    seconds and oscillates, so LITTLE cores end up doing most work.
#pragma once

#include <span>
#include <vector>

#include "base/rng.hpp"
#include "base/units.hpp"
#include "cpumodel/machine.hpp"
#include "cpumodel/power.hpp"
#include "cpumodel/thermal.hpp"

namespace hetpapi::cpumodel {

/// Per-logical-CPU load for one tick.
struct CpuLoad {
  double util = 0.0;      // busy fraction of the tick, 0..1
  double activity = 0.0;  // switching activity of the running code, 0..1
};

class PackageGovernor {
 public:
  explicit PackageGovernor(const MachineSpec& spec, std::uint64_t seed = 1);

  /// Advance one tick. `loads` is indexed by logical CPU.
  void step(SimDuration dt, std::span<const CpuLoad> loads);

  /// Current operating frequency of a logical CPU.
  MegaHertz frequency(int cpu) const {
    return freq_[static_cast<std::size_t>(cpu)];
  }

  /// Package power over the last tick (SoC power on ARM).
  Watts package_power() const { return last_power_; }

  /// Performance level the last tick ran busy cores at: 1.0 when the
  /// RAPL budget allowed full speed, else k / 2^20.
  double level() const {
    return static_cast<double>(level_k_) / kLevelSteps;
  }

  Celsius package_temperature() const { return package_node_.temperature(); }
  Celsius cluster_temperature(int cluster) const;
  bool cluster_throttling(int cluster) const;

  RaplModel& rapl() { return rapl_; }
  const RaplModel& rapl() const { return rapl_; }

  /// Return to the state right after construction (between telemetry
  /// runs): settled idle, cold RAPL windows, no warm-start level, and the
  /// jitter RNG reseeded.
  void reset();

  const MachineSpec& spec() const { return spec_; }

 private:
  static constexpr int kLevelSteps = 1 << 20;  // levels are k / 2^20

  /// One (core type, cluster) pair: its busy cores share a frequency and
  /// voltage, so a probe prices each group once.
  struct Group {
    DvfsSpec dvfs;
    int type_id = 0;
    int cluster = 0;
    double span = 0.0;  // MHz from freq_min to this tick's ceiling
    double mhz = 0.0;   // at the last set_level()
    double ghz = 0.0;
    double volt = 0.0;
  };

  /// One physical core, its load folded from its SMT threads once per
  /// tick so a probe is one allocation-free pass.
  struct CoreLoad {
    std::vector<int> cpus;  // ascending: the order loads accumulate in
    int type_id = 0;
    int group = 0;
    double leakage = 0.0;
    bool busy = false;    // util > 0.01: runs at the probed level
    double weight = 0.0;  // util * activity * c_dyn (busy cores)
    double fixed = 0.0;   // the whole term of a core that is not busy
  };

  void aggregate_core_loads(std::span<const CpuLoad> loads);
  void set_level(double s);
  /// A core's power at the last set_level(): cpu_power()'s multiply
  /// chain, in its order.
  double core_power(const CoreLoad& core) const {
    if (!core.busy) return core.fixed;
    const Group& g = groups_[static_cast<std::size_t>(core.group)];
    return core.weight * g.ghz * g.volt * g.volt + core.leakage;
  }
  /// Package power at the last set_level().
  double package_power_now() const;
  /// Set level_k_ to the largest level index in [0, kLevelSteps] whose
  /// package power fits `budget` (see dvfs.cpp), leave the groups priced
  /// at it, and return that power.
  double search_level(double budget);

  MachineSpec spec_;
  RaplModel rapl_;
  ThermalNode package_node_;
  std::vector<ThermalNode> cluster_nodes_;
  std::vector<ThermalThrottle> cluster_throttles_;
  ThermalThrottle package_throttle_;
  std::vector<MegaHertz> freq_;  // per logical cpu
  std::vector<Group> groups_;
  std::vector<int> cpu_group_;        // logical cpu -> groups_ index
  std::vector<CoreLoad> core_loads_;  // per physical core, reused
  std::vector<int> busy_per_type_;    // busy core count per core type
  /// Per-cluster throttle caps and dissipation, sized per machine.
  std::vector<double> caps_;
  std::vector<double> cluster_power_;
  /// The last tick's level index, and its change since the tick before
  /// while both were limited: the level search's warm start.
  int level_k_ = kLevelSteps;
  int level_trend_ = 0;
  Watts last_power_{0.0};
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace hetpapi::cpumodel
