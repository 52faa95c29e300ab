#include "cpumodel/dvfs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace hetpapi::cpumodel {

PackageGovernor::PackageGovernor(const MachineSpec& spec, std::uint64_t seed)
    : spec_(spec),
      rapl_(spec.rapl),
      package_node_(spec.thermal),
      package_throttle_(spec.thermal),
      seed_(seed),
      rng_(seed) {
  for (const ThermalSpec& ts : spec_.cluster_thermal) {
    cluster_nodes_.emplace_back(ts);
    cluster_throttles_.emplace_back(ts);
  }
  freq_.resize(static_cast<std::size_t>(spec_.num_cpus()));
  for (int cpu = 0; cpu < spec_.num_cpus(); ++cpu) {
    freq_[static_cast<std::size_t>(cpu)] = spec_.type_of(cpu).dvfs.freq_min;
  }
  busy_per_type_.assign(spec_.core_types.size(), 0);
  // Map logical cpus onto (type, cluster) groups and physical cores
  // once. Cluster ids are labels, not bounded by cluster_thermal, so the
  // per-cluster arrays cover the largest id.
  std::size_t num_clusters = cluster_nodes_.size();
  std::map<std::pair<int, int>, int> group_of;
  std::map<int, int> core_slot;
  cpu_group_.resize(static_cast<std::size_t>(spec_.num_cpus()));
  for (const CpuSlot& slot : spec_.cpus) {
    assert(slot.cluster_id >= 0 && "validate() rejects negative cluster ids");
    num_clusters =
        std::max(num_clusters, static_cast<std::size_t>(slot.cluster_id) + 1);
    const CoreTypeSpec& type = spec_.type_of(slot.cpu);
    const auto [group, new_group] =
        group_of.emplace(std::pair{slot.type, slot.cluster_id},
                         static_cast<int>(groups_.size()));
    if (new_group) {
      groups_.push_back(Group{type.dvfs, slot.type, slot.cluster_id});
    }
    cpu_group_[static_cast<std::size_t>(slot.cpu)] = group->second;
    const auto [core, new_core] =
        core_slot.emplace(slot.core_id, static_cast<int>(core_loads_.size()));
    if (new_core) {
      core_loads_.push_back(
          CoreLoad{{}, slot.type, group->second, type.power.leakage_w});
    }
    core_loads_[static_cast<std::size_t>(core->second)].cpus.push_back(
        slot.cpu);
  }
  for (CoreLoad& core : core_loads_) {
    std::sort(core.cpus.begin(), core.cpus.end());
  }
  caps_.assign(num_clusters, 1.0);
  cluster_power_.assign(num_clusters, 0.0);
}

void PackageGovernor::reset() { *this = PackageGovernor(spec_, seed_); }

Celsius PackageGovernor::cluster_temperature(int cluster) const {
  if (cluster_nodes_.empty()) return package_node_.temperature();
  return cluster_nodes_[static_cast<std::size_t>(cluster)].temperature();
}

bool PackageGovernor::cluster_throttling(int cluster) const {
  if (cluster_throttles_.empty()) return package_throttle_.throttling();
  return cluster_throttles_[static_cast<std::size_t>(cluster)].throttling();
}

void PackageGovernor::aggregate_core_loads(std::span<const CpuLoad> loads) {
  std::fill(busy_per_type_.begin(), busy_per_type_.end(), 0);
  for (CoreLoad& core : core_loads_) {
    double util = 0.0;      // clamped sum of thread utils
    double activity = 0.0;  // max across threads
    for (const int cpu : core.cpus) {
      util = std::min(1.0, util + loads[static_cast<std::size_t>(cpu)].util);
      activity =
          std::max(activity, loads[static_cast<std::size_t>(cpu)].activity);
    }
    const CoreTypeSpec& type =
        spec_.core_types[static_cast<std::size_t>(core.type_id)];
    core.busy = util > 0.01;
    if (core.busy) {
      ++busy_per_type_[static_cast<std::size_t>(core.type_id)];
      core.weight = util * activity * type.power.c_dyn;
    } else {
      // freq_min whatever the level; cpu_power() of an idle core is
      // exactly its leakage.
      core.fixed = util == 0.0 ? core.leakage
                               : cpu_power(type, type.dvfs.freq_min, util,
                                           activity).value;
    }
  }
  // Each group's frequency range this tick. Turbo tables bin down once
  // several cores of a type are active.
  for (Group& g : groups_) {
    const bool multi_active =
        busy_per_type_[static_cast<std::size_t>(g.type_id)] > 2;
    const MegaHertz lo = g.dvfs.freq_min;
    const MegaHertz hi = g.dvfs.max_for(multi_active) *
                         caps_[static_cast<std::size_t>(g.cluster)];
    const MegaHertz ceiling = hi.value > lo.value ? hi : lo;
    g.span = ceiling.value - lo.value;
  }
}

void PackageGovernor::set_level(double s) {
  for (Group& g : groups_) {
    const MegaHertz f{g.dvfs.freq_min.value + s * g.span};
    g.mhz = f.value;
    g.ghz = f.gigahertz();
    g.volt = g.dvfs.voltage_at(f);
  }
}

double PackageGovernor::package_power_now() const {
  double total = spec_.rapl.present ? spec_.rapl.uncore_base.value : 0.6;
  for (const CoreLoad& core : core_loads_) total += core_power(core);
  return total;
}

// The level search. Levels are k / 2^20, and the answer is 2^20 (level
// 1.0) when full speed fits the budget, else the largest k < 2^20 that
// fits, else 0: what the original search returned, one probe at 1.0 then
// a 20-step bisection of [0, 1], whose midpoints are exactly these levels.
//
// Any search that keeps lo within budget (or 0) and hi over it (or past
// 2^20) until hi == lo + 1 finds that same k, because "power(k) >
// budget" is monotone in k. Within a tick only the level varies, and
// every operation on it is monotone non-decreasing under IEEE
// round-to-nearest: f = freq_min + s * span with span >= 0, ghz = f / 1e3,
// v = volt_min + max(0, slope * (ghz - ghz_min)) with slope >= 0 (checked
// by validate()), then per busy core weight * ghz * v * v + leakage with
// weight >= 0, summed in a fixed order with the other cores' constants.
//
// The level moves little and smoothly between 1 ms ticks, so the search
// starts where the last two limited ticks point and gallops with doubling
// steps before it bisects: a steady level costs two probes, not 21, and
// an unlimited tick one, as before.
double PackageGovernor::search_level(double budget) {
  int lo = 0;                // within budget, or the floor
  int hi = kLevelSteps + 1;  // over budget, or past the top
  bool lo_priced = false;
  double power = 0.0;
  int k = level_k_ + level_trend_;
  for (int step = 1; hi - lo > 1; step = std::min(2 * step, kLevelSteps)) {
    if (k <= lo || k >= hi) k = lo + (hi - lo) / 2;
    set_level(static_cast<double>(k) / kLevelSteps);
    const double p = package_power_now();
    if (p > budget) {
      hi = k;
      k -= step;
    } else {
      lo = k;
      lo_priced = true;
      power = p;
      k += step;
    }
  }
  // Extrapolate only across limited ticks: after an unlimited one the
  // next search starts at full speed.
  level_trend_ = lo < kLevelSteps && level_k_ < kLevelSteps ? lo - level_k_ : 0;
  level_k_ = lo;
  set_level(static_cast<double>(lo) / kLevelSteps);
  return lo_priced ? power : package_power_now();
}

void PackageGovernor::step(SimDuration dt, std::span<const CpuLoad> loads) {
  assert(loads.size() == freq_.size());

  // 1. Thermal throttle levels per cluster (or package-wide).
  if (cluster_throttles_.empty()) {
    std::fill(caps_.begin(), caps_.end(),
              package_throttle_.update(dt, package_node_.temperature()));
  } else {
    for (std::size_t i = 0; i < cluster_throttles_.size(); ++i) {
      caps_[i] =
          cluster_throttles_[i].update(dt, cluster_nodes_[i].temperature());
    }
  }

  // 2. Highest performance level the RAPL budget allows.
  aggregate_core_loads(loads);
  const double power = search_level(rapl_.allowed_power().value);

  // 3. Per-cpu frequencies with a touch of governor jitter; real
  //    P-state selection hunts around the target (the noise band in
  //    Figure 1).
  for (const CpuSlot& slot : spec_.cpus) {
    const auto cpu = static_cast<std::size_t>(slot.cpu);
    const Group& g = groups_[static_cast<std::size_t>(cpu_group_[cpu])];
    MegaHertz f = g.dvfs.freq_min;
    if (loads[cpu].util > 0.01) {
      f.value = g.mhz + rng_.gaussian(g.mhz * 0.012);
      f.value = std::clamp(f.value, g.dvfs.freq_min.value,
                           g.dvfs.freq_max.value);
    }
    freq_[cpu] = f;
  }

  // 4. Account the power actually drawn; integrate thermals.
  last_power_ = Watts{power};
  rapl_.step(dt, last_power_);
  package_node_.step(dt, last_power_);
  if (!cluster_nodes_.empty()) {
    // Per-cluster dissipation: own cores' power plus a coupling share of
    // the rest of the SoC (shared silicon and case), which is what lets
    // a busy LITTLE cluster push the big cluster over its trip point.
    constexpr double kClusterCoupling = 0.7;
    std::fill(cluster_power_.begin(), cluster_power_.end(), 0.0);
    double core_total = 0.0;
    for (const CoreLoad& core : core_loads_) {
      const double p = core_power(core);
      cluster_power_[static_cast<std::size_t>(
          groups_[static_cast<std::size_t>(core.group)].cluster)] += p;
      core_total += p;
    }
    for (std::size_t i = 0; i < cluster_nodes_.size(); ++i) {
      const double own = cluster_power_[i];
      const double coupled = kClusterCoupling * (core_total - own);
      cluster_nodes_[i].step(dt, Watts{own + coupled});
    }
  }
}

}  // namespace hetpapi::cpumodel
