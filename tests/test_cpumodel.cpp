// Machine presets, spec validation, and the power/thermal/DVFS models'
// physical invariants (energy conservation, RAPL capping, thermal
// equilibria, throttle hysteresis).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <string>

#include "base/rng.hpp"
#include "cpumodel/dvfs.hpp"
#include "cpumodel/machine.hpp"
#include "cpumodel/power.hpp"
#include "cpumodel/thermal.hpp"

namespace hetpapi::cpumodel {
namespace {

// --- presets -----------------------------------------------------------------

// Parameterised by preset name: gtest prints a MachineSpec as raw bytes,
// heap pointers included, and ctest puts the printed parameter in the test
// name, which would then change from build to build.
class PresetByNameTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetByNameTest, Validates) {
  const auto m = machine_preset_by_name(GetParam());
  ASSERT_TRUE(m.has_value()) << GetParam();
  EXPECT_EQ(m->name, GetParam());
  EXPECT_TRUE(m->validate().is_ok()) << m->validate().to_string();
}

INSTANTIATE_TEST_SUITE_P(AllMachines, PresetByNameTest,
                         ::testing::Values("raptor_lake_i7_13700",
                                           "orangepi800_rk3399",
                                           "homogeneous_xeon",
                                           "arm_three_type"),
                         [](const auto& param_info) { return param_info.param; });

class PresetTest : public ::testing::TestWithParam<MachineSpec> {};

TEST_P(PresetTest, CoreTypePartitionCoversAllCpus) {
  const MachineSpec& m = GetParam();
  std::size_t covered = 0;
  for (std::size_t t = 0; t < m.core_types.size(); ++t) {
    covered += m.cpus_of_type(static_cast<CoreTypeId>(t)).size();
  }
  EXPECT_EQ(covered, static_cast<std::size_t>(m.num_cpus()));
}

INSTANTIATE_TEST_SUITE_P(AllMachines, PresetTest,
                         ::testing::Values(raptor_lake_i7_13700(),
                                           orangepi800_rk3399(),
                                           homogeneous_xeon(),
                                           arm_three_type()),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(RaptorLakePreset, MatchesTableOne) {
  const MachineSpec m = raptor_lake_i7_13700();
  EXPECT_EQ(m.num_cpus(), 24);
  EXPECT_TRUE(m.is_hybrid());
  EXPECT_EQ(m.primary_threads_of_type(0).size(), 8u);  // 8 P cores
  EXPECT_EQ(m.cpus_of_type(0).size(), 16u);            // 16 P threads
  EXPECT_EQ(m.cpus_of_type(1).size(), 8u);             // 8 E cores
  EXPECT_DOUBLE_EQ(m.rapl.pl1.value, 65.0);
  EXPECT_DOUBLE_EQ(m.rapl.pl2.value, 219.0);
  // P/E share family/model/stepping — the detection pitfall of §IV-B.
  EXPECT_EQ(m.core_types[0].ident.model, m.core_types[1].ident.model);
  EXPECT_NE(m.core_types[0].ident.intel_kind,
            m.core_types[1].ident.intel_kind);
}

TEST(OrangePiPreset, MatchesTableFour) {
  const MachineSpec m = orangepi800_rk3399();
  EXPECT_EQ(m.num_cpus(), 6);
  EXPECT_EQ(m.cpus_of_type(0), (std::vector<int>{4, 5}));    // A72 big
  EXPECT_EQ(m.cpus_of_type(1), (std::vector<int>{0, 1, 2, 3}));  // A53
  EXPECT_FALSE(m.rapl.present);
  EXPECT_TRUE(m.exposes_cpu_capacity);
  EXPECT_NE(m.core_types[0].ident.arm_part, m.core_types[1].ident.arm_part);
}

TEST(MachineValidate, RejectsBrokenSpecs) {
  MachineSpec m = homogeneous_xeon(2);
  m.cpus[1].type = 7;  // out of range
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.cpus[1].cpu = 0;  // duplicate id
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.cpus[1].cpu = 5;  // hole in numbering
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.core_types[0].dvfs.freq_max = MegaHertz{100};
  m.core_types[0].dvfs.freq_min = MegaHertz{1000};
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.core_types.clear();
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.core_types[0].dvfs.volt_slope_per_ghz = -0.1;  // power falls with f
  EXPECT_FALSE(m.validate().is_ok());
}

TEST(MachineValidate, ClusterIds) {
  // Without per-cluster thermal nodes an id is a label: any non-negative
  // value is fine, a negative one never is.
  MachineSpec m = homogeneous_xeon(2);
  ASSERT_TRUE(m.cluster_thermal.empty());
  m.cpus[1].cluster_id = 17;
  EXPECT_TRUE(m.validate().is_ok());
  m.cpus[1].cluster_id = -1;
  EXPECT_FALSE(m.validate().is_ok());

  // With nodes, ids index them.
  m = homogeneous_xeon(20);
  m.cluster_thermal.assign(20, m.thermal);
  for (CpuSlot& slot : m.cpus) slot.cluster_id = slot.core_id;
  EXPECT_TRUE(m.validate().is_ok());
  m.cpus[3].cluster_id = 20;
  EXPECT_FALSE(m.validate().is_ok());
}

// --- power -------------------------------------------------------------------

TEST(CpuPower, MonotonicInFrequencyUtilAndActivity) {
  const CoreTypeSpec type = raptor_lake_i7_13700().core_types[0];
  const Watts base = cpu_power(type, MegaHertz{2000}, 0.5, 0.8);
  EXPECT_GT(cpu_power(type, MegaHertz{3000}, 0.5, 0.8).value, base.value);
  EXPECT_GT(cpu_power(type, MegaHertz{2000}, 0.9, 0.8).value, base.value);
  EXPECT_GT(cpu_power(type, MegaHertz{2000}, 0.5, 1.0).value, base.value);
  // Idle core burns only leakage.
  EXPECT_DOUBLE_EQ(cpu_power(type, MegaHertz{800}, 0.0, 0.0).value,
                   type.power.leakage_w);
}

TEST(RaplModel, AllowsBurstThenSettlesToPl1) {
  RaplModel rapl(raptor_lake_i7_13700().rapl);
  // Cold start: nearly the PL2 budget is available.
  EXPECT_GT(rapl.allowed_power().value, 150.0);
  // Run hot for two long-window time constants.
  for (int i = 0; i < 56000; ++i) {
    rapl.step(std::chrono::milliseconds(1),
              Watts{std::min(rapl.allowed_power().value, 180.0)});
  }
  EXPECT_NEAR(rapl.allowed_power().value, 65.0, 4.0)
      << "long-term average must converge to PL1";
  EXPECT_NEAR(rapl.long_window_average().value, 65.0, 5.0);
}

TEST(RaplModel, EnergyCounterIntegratesAndWraps) {
  RaplSpec spec;
  RaplModel rapl(spec);
  rapl.step(std::chrono::seconds(10), Watts{50.0});
  EXPECT_NEAR(rapl.total_energy().value, 500.0, 1e-6);
  EXPECT_EQ(rapl.energy_status_uj(), 500'000'000u);
  // Push past the 32-bit microjoule wrap (4294.97 J).
  rapl.step(std::chrono::seconds(100), Watts{50.0});
  EXPECT_NEAR(rapl.total_energy().value, 5500.0, 1e-6);
  EXPECT_EQ(rapl.energy_status_uj(),
            static_cast<std::uint32_t>(5'500'000'000ULL & 0xFFFFFFFFULL));
}

TEST(RaplModel, AbsentRaplImposesNoLimit) {
  RaplSpec spec;
  spec.present = false;
  RaplModel rapl(spec);
  EXPECT_TRUE(std::isinf(rapl.allowed_power().value));
}

TEST(BoardPowerMeter, AddsIdleAndPsuLoss) {
  const BoardPowerMeter meter(Watts{3.0}, 0.8);
  EXPECT_NEAR(meter.reading(Watts{5.0}).value, 10.0, 1e-9);
}

// --- thermal ------------------------------------------------------------------

TEST(ThermalNode, ApproachesEquilibrium) {
  ThermalSpec spec;
  spec.ambient = Celsius{25.0};
  spec.idle_settle = Celsius{25.0};
  spec.r_thermal_c_per_w = 0.5;
  spec.c_thermal_j_per_c = 100.0;
  ThermalNode node(spec);
  const Celsius eq = node.equilibrium(Watts{65.0});
  EXPECT_DOUBLE_EQ(eq.value, 25.0 + 65.0 * 0.5);
  for (int i = 0; i < 600'000; ++i) {
    node.step(std::chrono::milliseconds(1), Watts{65.0});
  }
  EXPECT_NEAR(node.temperature().value, eq.value, 0.5);
}

TEST(ThermalNode, CoolsToAmbientWithoutPower) {
  ThermalSpec spec;
  ThermalNode node(spec);
  node.set_temperature(Celsius{80.0});
  for (int i = 0; i < 2'000'000; ++i) {
    node.step(std::chrono::milliseconds(1), Watts{0.0});
  }
  EXPECT_NEAR(node.temperature().value, spec.ambient.value, 1.0);
}

TEST(ThermalThrottle, EngagesAboveTripAndRecoversWithHysteresis) {
  ThermalSpec spec;
  spec.t_junction_max = Celsius{85.0};
  spec.hysteresis_c = 5.0;
  ThermalThrottle throttle(spec);
  EXPECT_FALSE(throttle.throttling());
  // Hot for 2 seconds: level drops.
  for (int i = 0; i < 2000; ++i) {
    throttle.update(std::chrono::milliseconds(1), Celsius{90.0});
  }
  EXPECT_TRUE(throttle.throttling());
  EXPECT_LT(throttle.level(), 0.5);
  // Within the hysteresis band: level holds.
  const double held = throttle.level();
  for (int i = 0; i < 1000; ++i) {
    throttle.update(std::chrono::milliseconds(1), Celsius{82.0});
  }
  EXPECT_DOUBLE_EQ(throttle.level(), held);
  // Cool: level recovers to 1.
  for (int i = 0; i < 10'000; ++i) {
    throttle.update(std::chrono::milliseconds(1), Celsius{60.0});
  }
  EXPECT_DOUBLE_EQ(throttle.level(), 1.0);
  EXPECT_GT(throttle.throttled_time().count(), 0);
}

// --- governor -----------------------------------------------------------------

TEST(PackageGovernor, IdleMachineSitsAtMinFrequencyAndLowPower) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> idle(static_cast<std::size_t>(m.num_cpus()));
  for (int i = 0; i < 1000; ++i) {
    governor.step(std::chrono::milliseconds(1), idle);
  }
  EXPECT_DOUBLE_EQ(governor.frequency(0).value,
                   m.core_types[0].dvfs.freq_min.value);
  EXPECT_LT(governor.package_power().value, 25.0);
}

TEST(PackageGovernor, FullLoadSettlesNearPl1) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> full(static_cast<std::size_t>(m.num_cpus()),
                            CpuLoad{1.0, 1.0});
  for (int i = 0; i < 120'000; ++i) {
    governor.step(std::chrono::milliseconds(1), full);
  }
  EXPECT_NEAR(governor.package_power().value, 65.0, 6.0);
  // Both types still above their minimum but below single-core turbo.
  EXPECT_GT(governor.frequency(0).value, 1500.0);
  EXPECT_LT(governor.frequency(0).value, 4300.0);
  EXPECT_GT(governor.frequency(16).value, 1200.0);
}

TEST(PackageGovernor, SingleBusyCoreMayUseSingleCoreTurbo) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()));
  loads[0] = CpuLoad{1.0, 0.9};
  for (int i = 0; i < 2000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  // One busy core easily fits the PL2 budget: frequency near fmax 5.1.
  EXPECT_GT(governor.frequency(0).value, 4500.0);
}

TEST(PackageGovernor, MultiCoreTurboCapBindsWhenManyCoresBusy) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  // All 8 E-cores busy, P idle: plenty of power budget, so the binding
  // limit is the multi-core turbo cap (3.5 GHz), not RAPL.
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()));
  for (int cpu = 16; cpu < 24; ++cpu) {
    loads[static_cast<std::size_t>(cpu)] = CpuLoad{1.0, 1.0};
  }
  for (int i = 0; i < 2000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  EXPECT_LT(governor.frequency(16).value, 3700.0);
  EXPECT_GT(governor.frequency(16).value, 3200.0);
}

TEST(PackageGovernor, OrangePiBigClusterThermallyThrottles) {
  const MachineSpec m = orangepi800_rk3399();
  PackageGovernor governor(m);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()),
                             CpuLoad{1.0, 1.0});
  // Early: bigs at max.
  for (int i = 0; i < 3000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  const double early_big = governor.frequency(4).value;
  EXPECT_GT(early_big, 1600.0) << "bigs ramp to ~1.8 GHz first";
  // Two minutes in: throttled well below max (Figure 3).
  for (int i = 0; i < 120'000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  EXPECT_TRUE(governor.cluster_throttling(1));
  EXPECT_LT(governor.frequency(4).value, 1100.0);
  // LITTLE cluster keeps (close to) its max.
  EXPECT_GT(governor.frequency(0).value, 1300.0);
}

TEST(PackageGovernor, ResetRestoresColdState) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> full(static_cast<std::size_t>(m.num_cpus()),
                            CpuLoad{1.0, 1.0});
  for (int i = 0; i < 50'000; ++i) {
    governor.step(std::chrono::milliseconds(1), full);
  }
  governor.reset();
  EXPECT_DOUBLE_EQ(governor.package_temperature().value,
                   m.thermal.idle_settle.value);
  EXPECT_DOUBLE_EQ(governor.rapl().total_energy().value, 0.0);
  EXPECT_GT(governor.rapl().allowed_power().value, 150.0);

  // No warm-start level, jitter stream or RAPL factor survives reset():
  // from here on the governor is indistinguishable from a fresh one.
  PackageGovernor fresh(m);
  std::vector<CpuLoad> half(full.size(), CpuLoad{0.5, 0.7});
  for (int i = 0; i < 40'000; ++i) {
    const std::vector<CpuLoad>& loads = (i / 500) % 2 == 0 ? full : half;
    governor.step(std::chrono::milliseconds(1), loads);
    fresh.step(std::chrono::milliseconds(1), loads);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(governor.level()),
              std::bit_cast<std::uint64_t>(fresh.level()))
        << "tick " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(governor.package_power().value),
              std::bit_cast<std::uint64_t>(fresh.package_power().value))
        << "tick " << i;
    for (int cpu = 0; cpu < m.num_cpus(); ++cpu) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(governor.frequency(cpu).value),
                std::bit_cast<std::uint64_t>(fresh.frequency(cpu).value))
          << "tick " << i << " cpu " << cpu;
    }
  }
  EXPECT_LT(fresh.level(), 1.0) << "the sequence reaches the limited path";
}

// Property: package energy equals the integral of reported power.
TEST(PackageGovernor, EnergyEqualsIntegralOfPower) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()),
                             CpuLoad{0.7, 0.8});
  double integral = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
    integral += governor.package_power().value * 1e-3;
  }
  EXPECT_NEAR(governor.rapl().total_energy().value, integral,
              0.01 * integral);
}

// --- the governor's level search against a reference ------------------------

/// The governor as it was before its level search was warm-started: a
/// 20-step bisection of [0, 1] that re-prices every core through
/// cpu_power() on each step. Kept here, and only here, as the oracle
/// the production search must match bit for bit.
class ReferenceGovernor {
 public:
  ReferenceGovernor(const MachineSpec& spec, std::uint64_t seed)
      : spec_(spec),
        rapl_(spec.rapl),
        package_node_(spec.thermal),
        package_throttle_(spec.thermal),
        rng_(seed) {
    for (const ThermalSpec& ts : spec_.cluster_thermal) {
      cluster_nodes_.emplace_back(ts);
      cluster_throttles_.emplace_back(ts);
    }
    freq_.resize(static_cast<std::size_t>(spec_.num_cpus()));
    std::map<int, int> core_slot;
    for (const CpuSlot& slot : spec_.cpus) {
      num_clusters_ = std::max(num_clusters_, slot.cluster_id + 1);
      const auto [it, inserted] = core_slot.emplace(
          slot.core_id, static_cast<int>(cores_.size()));
      if (inserted) cores_.push_back(Core{slot.type, slot.cluster_id});
      cpu_core_.push_back(it->second);
    }
    num_clusters_ = std::max(num_clusters_,
                             static_cast<int>(cluster_nodes_.size()));
  }

  double level() const { return level_; }
  Watts package_power() const { return last_power_; }
  MegaHertz frequency(int cpu) const {
    return freq_[static_cast<std::size_t>(cpu)];
  }

  void step(SimDuration dt, const std::vector<CpuLoad>& loads) {
    std::vector<double> caps(static_cast<std::size_t>(num_clusters_));
    if (cluster_throttles_.empty()) {
      std::fill(caps.begin(), caps.end(),
                package_throttle_.update(dt, package_node_.temperature()));
    } else {
      for (std::size_t i = 0; i < cluster_throttles_.size(); ++i) {
        caps[i] =
            cluster_throttles_[i].update(dt, cluster_nodes_[i].temperature());
      }
    }
    for (Core& core : cores_) core.util = core.activity = 0.0;
    for (std::size_t cpu = 0; cpu < loads.size(); ++cpu) {
      Core& core = cores_[static_cast<std::size_t>(cpu_core_[cpu])];
      core.util = std::min(1.0, core.util + loads[cpu].util);
      core.activity = std::max(core.activity, loads[cpu].activity);
    }
    busy_per_type_.assign(spec_.core_types.size(), 0);
    for (const Core& core : cores_) {
      if (core.util > 0.01) {
        ++busy_per_type_[static_cast<std::size_t>(core.type)];
      }
    }

    const Watts budget = rapl_.allowed_power();
    double level = 1.0;
    if (power_at_level(1.0, caps) > budget.value) {
      double lo = 0.0;
      double hi = 1.0;
      for (int iter = 0; iter < 20; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (power_at_level(mid, caps) > budget.value) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      level = lo;
    }
    level_ = level;

    for (const CpuSlot& slot : spec_.cpus) {
      const CoreTypeSpec& type = spec_.type_of(slot.cpu);
      const CpuLoad& load = loads[static_cast<std::size_t>(slot.cpu)];
      MegaHertz f =
          load.util > 0.01
              ? freq_at_level(slot.type, level,
                              caps[static_cast<std::size_t>(slot.cluster_id)])
              : type.dvfs.freq_min;
      if (load.util > 0.01) {
        f.value += rng_.gaussian(f.value * 0.012);
        f.value = std::clamp(f.value, type.dvfs.freq_min.value,
                             type.dvfs.freq_max.value);
      }
      freq_[static_cast<std::size_t>(slot.cpu)] = f;
    }

    last_power_ = Watts{power_at_level(level, caps)};
    rapl_.step(dt, last_power_);
    package_node_.step(dt, last_power_);
    if (!cluster_nodes_.empty()) {
      std::vector<double> cluster_power(caps.size(), 0.0);
      double core_total = 0.0;
      for (const Core& core : cores_) {
        const double p = core_power(core, level, caps);
        cluster_power[static_cast<std::size_t>(core.cluster)] += p;
        core_total += p;
      }
      for (std::size_t i = 0; i < cluster_nodes_.size(); ++i) {
        const double own = cluster_power[i];
        cluster_nodes_[i].step(dt, Watts{own + 0.7 * (core_total - own)});
      }
    }
  }

 private:
  struct Core {
    int type = 0;
    int cluster = 0;
    double util = 0.0;
    double activity = 0.0;
  };

  MegaHertz freq_at_level(int type_id, double s, double cap) const {
    const CoreTypeSpec& type =
        spec_.core_types[static_cast<std::size_t>(type_id)];
    const bool multi = busy_per_type_[static_cast<std::size_t>(type_id)] > 2;
    const MegaHertz lo = type.dvfs.freq_min;
    const MegaHertz hi = type.dvfs.max_for(multi) * cap;
    const MegaHertz ceiling = hi.value > lo.value ? hi : lo;
    return MegaHertz{lo.value + s * (ceiling.value - lo.value)};
  }
  double core_power(const Core& core, double s,
                    const std::vector<double>& caps) const {
    const CoreTypeSpec& type =
        spec_.core_types[static_cast<std::size_t>(core.type)];
    const MegaHertz f =
        core.util > 0.01
            ? freq_at_level(core.type, s,
                            caps[static_cast<std::size_t>(core.cluster)])
            : type.dvfs.freq_min;
    return cpu_power(type, f, core.util, core.activity).value;
  }
  double power_at_level(double s, const std::vector<double>& caps) const {
    double total = spec_.rapl.present ? spec_.rapl.uncore_base.value : 0.6;
    for (const Core& core : cores_) total += core_power(core, s, caps);
    return total;
  }

  MachineSpec spec_;
  RaplModel rapl_;
  ThermalNode package_node_;
  std::vector<ThermalNode> cluster_nodes_;
  std::vector<ThermalThrottle> cluster_throttles_;
  ThermalThrottle package_throttle_;
  std::vector<MegaHertz> freq_;
  std::vector<Core> cores_;
  std::vector<int> cpu_core_;
  std::vector<int> busy_per_type_;
  int num_clusters_ = 1;
  double level_ = 1.0;
  Watts last_power_{0.0};
  Rng rng_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct SearchCoverage {
  int limited = 0;
  int unlimited = 0;
  int floor = 0;  // ticks at level 0: even freq_min is over budget
  int level_moves = 0;
};

/// Step both governors through `ticks` of seeded random loads and
/// require bit-identical levels, package power and frequencies.
void expect_matches_reference(const MachineSpec& m, std::uint64_t seed,
                              int ticks, SearchCoverage& coverage) {
  PackageGovernor governor(m, seed);
  ReferenceGovernor reference(m, seed);
  Rng rng(seed * 7919 + 1);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()));
  double previous_level = 1.0;
  for (int tick = 0; tick < ticks; ++tick) {
    // Load phases of random length and intensity swing the power, and
    // with it the RAPL budget, between ticks.
    const double intensity = rng.uniform();
    for (CpuLoad& load : loads) {
      const double roll = rng.uniform();
      load.util = roll < 0.1    ? 0.0
                  : roll < 0.15 ? 0.005
                  : roll < 0.7  ? 1.0
                                : intensity * rng.uniform();
      load.activity = 0.5 + 0.5 * rng.uniform();
    }
    const int repeat = 1 + static_cast<int>(rng.uniform() * 40.0);
    for (int r = 0; r < repeat && tick < ticks; ++r, ++tick) {
      governor.step(std::chrono::milliseconds(1), loads);
      reference.step(std::chrono::milliseconds(1), loads);
      ASSERT_EQ(bits(governor.level()), bits(reference.level()))
          << m.name << " tick " << tick;
      ASSERT_EQ(bits(governor.package_power().value),
                bits(reference.package_power().value))
          << m.name << " tick " << tick;
      for (int cpu = 0; cpu < m.num_cpus(); ++cpu) {
        ASSERT_EQ(bits(governor.frequency(cpu).value),
                  bits(reference.frequency(cpu).value))
            << m.name << " tick " << tick << " cpu " << cpu;
      }
      ++(governor.level() < 1.0 ? coverage.limited : coverage.unlimited);
      if (governor.level() == 0.0) ++coverage.floor;
      if (governor.level() != previous_level) ++coverage.level_moves;
      previous_level = governor.level();
    }
  }
}

/// `m` with a RAPL envelope inside the machine's power range, and
/// windows short enough, that the budget crosses it within a few ticks.
MachineSpec with_tight_rapl(MachineSpec m) {
  if (!m.rapl.present) {
    m.rapl.present = true;
    m.rapl.uncore_base = Watts{0.6};  // the SoC share the governor assumes
  }
  double floor = m.rapl.uncore_base.value;  // every core busy at freq_min
  double peak = floor;                      // every core busy at freq_max
  std::map<int, int> cores;
  for (const CpuSlot& slot : m.cpus) {
    if (!cores.emplace(slot.core_id, slot.type).second) continue;
    const CoreTypeSpec& type = m.type_of(slot.cpu);
    floor += cpu_power(type, type.dvfs.freq_min, 1.0, 1.0).value;
    peak += cpu_power(type, type.dvfs.freq_max, 1.0, 1.0).value;
  }
  m.rapl.pl1 = Watts{floor + 0.15 * (peak - floor)};
  m.rapl.pl2 = Watts{floor + 0.45 * (peak - floor)};
  m.rapl.tau_long_s = 0.4;
  m.rapl.tau_short_s = 0.05;
  return m;
}

TEST(GovernorSearch, MatchesReferenceBisection) {
  for (const std::string& name : machine_preset_names()) {
    const MachineSpec preset = *machine_preset_by_name(name);
    SCOPED_TRACE(name);
    SearchCoverage stock;
    expect_matches_reference(preset, 1, 3000, stock);
    SearchCoverage tight;
    for (std::uint64_t seed : {2ULL, 3ULL}) {
      expect_matches_reference(with_tight_rapl(preset), seed, 3000, tight);
    }
    EXPECT_GT(tight.limited, 500);
    EXPECT_GT(tight.unlimited, 20);
    EXPECT_GT(tight.level_moves, 300) << "the budget must swing";
    // A budget below the floor: busy ticks run at level 0.
    MachineSpec starved = with_tight_rapl(preset);
    starved.rapl.pl1 = starved.rapl.pl2 = Watts{0.1};
    SearchCoverage floor;
    expect_matches_reference(starved, 4, 1000, floor);
    EXPECT_GT(floor.floor, 500);
  }
}

TEST(GovernorSearch, TwentyClustersAndSparseClusterIds) {
  // More clusters than the governor once had fixed room for, each with
  // its own thermal node.
  MachineSpec many = homogeneous_xeon(20);
  many.cluster_thermal.assign(20, many.thermal);
  for (CpuSlot& slot : many.cpus) slot.cluster_id = slot.core_id;
  ASSERT_TRUE(many.validate().is_ok());
  SearchCoverage coverage;
  expect_matches_reference(with_tight_rapl(many), 5, 2000, coverage);
  EXPECT_GT(coverage.limited, 100);

  // A cluster label past the old fixed arrays, with no per-cluster
  // nodes: the package throttle caps it like any other id.
  MachineSpec sparse = homogeneous_xeon(4);
  MachineSpec dense = sparse;
  sparse.cpus[2].cluster_id = 17;
  ASSERT_TRUE(sparse.validate().is_ok());
  PackageGovernor a(with_tight_rapl(sparse), 9);
  PackageGovernor b(with_tight_rapl(dense), 9);
  const std::vector<CpuLoad> loads(4, CpuLoad{1.0, 1.0});
  for (int tick = 0; tick < 2000; ++tick) {
    a.step(std::chrono::milliseconds(1), loads);
    b.step(std::chrono::milliseconds(1), loads);
    ASSERT_EQ(bits(a.package_power().value), bits(b.package_power().value));
    ASSERT_EQ(bits(a.frequency(2).value), bits(b.frequency(2).value));
  }
  EXPECT_LT(a.level(), 1.0);
}

}  // namespace
}  // namespace hetpapi::cpumodel
