#include "cpumodel/machine.hpp"

#include <map>
#include <set>

namespace hetpapi::cpumodel {

std::vector<int> MachineSpec::cpus_of_type(CoreTypeId type) const {
  std::vector<int> out;
  for (const CpuSlot& slot : cpus) {
    if (slot.type == type) out.push_back(slot.cpu);
  }
  return out;
}

std::vector<int> MachineSpec::primary_threads_of_type(CoreTypeId type) const {
  std::vector<int> out;
  std::set<int> seen_cores;
  for (const CpuSlot& slot : cpus) {
    if (slot.type != type) continue;
    if (seen_cores.insert(slot.core_id).second) out.push_back(slot.cpu);
  }
  return out;
}

Status MachineSpec::validate() const {
  if (core_types.empty()) {
    return make_error(StatusCode::kInvalidArgument, "no core types");
  }
  if (cpus.empty()) {
    return make_error(StatusCode::kInvalidArgument, "no cpus");
  }
  std::set<int> cpu_ids;
  for (const CpuSlot& slot : cpus) {
    if (slot.type < 0 ||
        slot.type >= static_cast<CoreTypeId>(core_types.size())) {
      return make_error(StatusCode::kInvalidArgument,
                        "cpu " + std::to_string(slot.cpu) +
                            " has out-of-range core type");
    }
    if (!cpu_ids.insert(slot.cpu).second) {
      return make_error(StatusCode::kInvalidArgument,
                        "duplicate cpu id " + std::to_string(slot.cpu));
    }
  }
  // cpu ids must be dense 0..N-1: sysfs layout and affinity masks assume it.
  if (*cpu_ids.begin() != 0 || *cpu_ids.rbegin() != num_cpus() - 1) {
    return make_error(StatusCode::kInvalidArgument, "cpu ids not dense");
  }
  // SMT siblings must agree on core type.
  std::map<int, CoreTypeId> core_to_type;
  for (const CpuSlot& slot : cpus) {
    const auto [it, inserted] = core_to_type.emplace(slot.core_id, slot.type);
    if (!inserted && it->second != slot.type) {
      return make_error(StatusCode::kInvalidArgument,
                        "core " + std::to_string(slot.core_id) +
                            " spans two core types");
    }
  }
  for (const CoreTypeSpec& type : core_types) {
    // Power must not fall as frequency rises: the governor's level
    // search relies on it.
    if (type.dvfs.freq_min.value <= 0 ||
        type.dvfs.freq_max < type.dvfs.freq_min ||
        type.dvfs.volt_slope_per_ghz < 0 || type.power.c_dyn < 0) {
      return make_error(StatusCode::kInvalidArgument,
                        type.name + ": bad DVFS range or power curve");
    }
    if (type.num_gp_counters <= 0) {
      return make_error(StatusCode::kInvalidArgument,
                        type.name + ": PMU needs at least one counter");
    }
  }
  // Cluster ids index per-cluster state: never negative, and below the
  // thermal node count when clusters have their own nodes.
  for (const CpuSlot& slot : cpus) {
    if (slot.cluster_id < 0 ||
        (!cluster_thermal.empty() &&
         slot.cluster_id >= static_cast<int>(cluster_thermal.size()))) {
      return make_error(StatusCode::kInvalidArgument,
                        "cpu cluster id out of range");
    }
  }
  return Status::ok();
}

MachineSpec raptor_lake_i7_13700() {
  MachineSpec m;
  m.name = "raptor_lake_i7_13700";
  m.cpu_model_string = "13th Gen Intel(R) Core(TM) i7-13700";
  m.vendor = Vendor::kIntel;
  m.exposes_cpuid_hybrid = true;
  m.exposes_cpu_capacity = false;
  m.firmware = FirmwareNaming::kAcpi;

  CoreTypeSpec p;
  p.name = "P-core";
  p.uarch_name = "GoldenCove";         // Raptor Cove shares the ADL PMU
  p.pmu_sysfs_name = "cpu_core";
  p.pfm_pmu_name = "adl_glc";
  p.cpu_capacity = 1024;
  p.smt_per_core = 2;
  p.num_gp_counters = 8;
  p.num_fixed_counters = 4;            // incl. the topdown slots counter
  p.ident.vendor = Vendor::kIntel;
  p.ident.family = 6;
  p.ident.model = 0xB7;                // Raptor Lake-S
  p.ident.stepping = 1;
  p.ident.intel_kind = IntelCoreKind::kCore;
  p.perf.base_ipc = 4.6;
  p.perf.flops_per_cycle_dp = 16.0;    // AVX2: 2 FMA ports x 4 DP x 2
  p.perf.llc_miss_latency_ns = 72.0;
  p.perf.mlp_overlap = 0.72;
  p.perf.branch_miss_penalty_cycles = 17.0;
  p.cache = CacheSpec{48 * 1024, 2 * 1024 * 1024, 30 * 1024 * 1024};
  p.dvfs = DvfsSpec{.freq_min = MegaHertz{800},
                    .freq_base = MegaHertz{2100},
                    .freq_max = MegaHertz{5100},
                    .freq_max_multi = MegaHertz{4800},
                    .volt_min = 0.68,
                    .volt_slope_per_ghz = 0.16};
  p.power = PowerSpec{/*c_dyn=*/1.59, /*leakage_w=*/0.55};

  CoreTypeSpec e;
  e.name = "E-core";
  e.uarch_name = "Gracemont";
  e.pmu_sysfs_name = "cpu_atom";
  e.pfm_pmu_name = "adl_grt";
  e.cpu_capacity = 580;
  e.smt_per_core = 1;
  e.num_gp_counters = 6;
  e.num_fixed_counters = 3;
  e.ident = p.ident;                   // same family/model/stepping (§IV-B)
  e.ident.intel_kind = IntelCoreKind::kAtom;
  e.perf.base_ipc = 3.2;
  e.perf.flops_per_cycle_dp = 8.0;     // 128-bit datapath effective
  e.perf.llc_miss_latency_ns = 82.0;
  e.perf.mlp_overlap = 0.45;
  e.perf.branch_miss_penalty_cycles = 13.0;
  e.cache = CacheSpec{32 * 1024, 4 * 1024 * 1024 / 4, 30 * 1024 * 1024};
  e.dvfs = DvfsSpec{.freq_min = MegaHertz{800},
                    .freq_base = MegaHertz{1500},
                    .freq_max = MegaHertz{4100},
                    .freq_max_multi = MegaHertz{3500},
                    .volt_min = 0.66,
                    .volt_slope_per_ghz = 0.14};
  e.power = PowerSpec{/*c_dyn=*/1.28, /*leakage_w=*/0.22};

  m.core_types = {p, e};

  // Logical CPUs: 0-15 = 8 P-cores x 2 threads (0/1 on core 0, ...),
  // 16-23 = 8 E-cores. Matches Linux enumeration on this part and the
  // paper's taskset list.
  int cpu = 0;
  for (int core = 0; core < 8; ++core) {
    for (int thread = 0; thread < 2; ++thread) {
      m.cpus.push_back(CpuSlot{cpu++, /*type=*/0, core, /*cluster=*/0});
    }
  }
  for (int core = 8; core < 16; ++core) {
    m.cpus.push_back(CpuSlot{cpu++, /*type=*/1, core, /*cluster=*/1});
  }

  m.rapl = RaplSpec{true, Watts{65.0}, Watts{219.0}, 28.0, 2.5, Watts{7.5}};
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{100.0},
                          0.38, 220.0, 3.0};
  m.memory = MemorySpec{32LL * 1024 * 1024 * 1024, "32GB DDR5, 4.4G T/s", 68.0};
  return m;
}

MachineSpec orangepi800_rk3399() {
  MachineSpec m;
  m.name = "orangepi800_rk3399";
  m.cpu_model_string = "Rockchip RK3399 SoC";
  m.vendor = Vendor::kArm;
  m.exposes_cpuid_hybrid = false;
  m.exposes_cpu_capacity = true;
  m.firmware = FirmwareNaming::kDevicetree;

  CoreTypeSpec big;
  big.name = "big";
  big.uarch_name = "Cortex-A72";
  big.pmu_sysfs_name = "armv8_pmuv3_1";  // devicetree ambiguity (§IV-B)
  big.pfm_pmu_name = "arm_a72";
  big.cpu_capacity = 1024;
  big.smt_per_core = 1;
  big.num_gp_counters = 6;
  big.num_fixed_counters = 1;  // cycle counter
  big.ident.vendor = Vendor::kArm;
  big.ident.arm_implementer = 0x41;
  big.ident.arm_part = 0xd08;  // Cortex-A72
  big.ident.arm_variant = 0;
  big.ident.arm_revision = 2;
  big.perf.base_ipc = 2.2;
  big.perf.flops_per_cycle_dp = 4.0;  // NEON 128-bit FMA
  big.perf.llc_miss_latency_ns = 130.0;
  big.perf.mlp_overlap = 0.45;
  big.perf.branch_miss_penalty_cycles = 15.0;
  big.cache = CacheSpec{32 * 1024, 1024 * 1024, 1024 * 1024};
  big.dvfs = DvfsSpec{.freq_min = MegaHertz{408},
                    .freq_base = MegaHertz{1200},
                    .freq_max = MegaHertz{1800},
                    .volt_min = 0.80,
                    .volt_slope_per_ghz = 0.28};
  big.power = PowerSpec{/*c_dyn=*/1.9, /*leakage_w=*/0.12};

  CoreTypeSpec little;
  little.name = "LITTLE";
  little.uarch_name = "Cortex-A53";
  little.pmu_sysfs_name = "armv8_pmuv3_0";
  little.pfm_pmu_name = "arm_a53";
  little.cpu_capacity = 485;
  little.smt_per_core = 1;
  little.num_gp_counters = 6;
  little.num_fixed_counters = 1;
  little.ident.vendor = Vendor::kArm;
  little.ident.arm_implementer = 0x41;
  little.ident.arm_part = 0xd03;  // Cortex-A53
  little.ident.arm_variant = 0;
  little.ident.arm_revision = 4;
  little.perf.base_ipc = 1.2;   // in-order dual issue
  little.perf.flops_per_cycle_dp = 2.0;
  little.perf.llc_miss_latency_ns = 140.0;
  little.perf.mlp_overlap = 0.15;
  little.perf.branch_miss_penalty_cycles = 8.0;
  little.cache = CacheSpec{32 * 1024, 512 * 1024, 512 * 1024};
  little.dvfs = DvfsSpec{.freq_min = MegaHertz{408},
                    .freq_base = MegaHertz{1000},
                    .freq_max = MegaHertz{1400},
                    .volt_min = 0.82,
                    .volt_slope_per_ghz = 0.24};
  little.power = PowerSpec{/*c_dyn=*/0.55, /*leakage_w=*/0.05};

  m.core_types = {big, little};

  // RK3399 enumerates the LITTLE cluster first: cpus 0-3 = A53, 4-5 = A72.
  for (int core = 0; core < 4; ++core) {
    m.cpus.push_back(CpuSlot{core, /*type=*/1, core, /*cluster=*/0});
  }
  for (int core = 4; core < 6; ++core) {
    m.cpus.push_back(CpuSlot{core, /*type=*/0, core, /*cluster=*/1});
  }

  m.rapl.present = false;  // no RAPL on ARM; board meter only
  // Passively cooled SoC in a keyboard case: low capacitance, high
  // resistance — big cores at 1.8 GHz trip the 85 C throttle within
  // seconds (Figure 3).
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{85.0},
                          9.0, 5.5, 5.0};
  m.cluster_thermal = {
      // cluster 0 = LITTLE: lower power density, same heatsink
      ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{85.0}, 9.0, 5.5, 5.0},
      // cluster 1 = big: high power density under a tiny passive sink —
      // trips within seconds at 1.8 GHz and settles far down (Figure 3)
      ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{85.0}, 20.0, 4.0, 5.0},
  };
  m.memory = MemorySpec{4LL * 1024 * 1024 * 1024, "4GB LPDDR4", 9.5};
  return m;
}

MachineSpec homogeneous_xeon(int cores) {
  MachineSpec m;
  m.name = "homogeneous_xeon";
  m.cpu_model_string = "Intel(R) Xeon(R) Processor @ 2.10GHz";
  m.vendor = Vendor::kIntel;
  m.exposes_cpuid_hybrid = false;

  CoreTypeSpec c;
  c.name = "core";
  c.uarch_name = "SkylakeSP";
  c.pmu_sysfs_name = "cpu";  // traditional single-PMU name
  c.pfm_pmu_name = "skx";
  c.cpu_capacity = 1024;
  c.smt_per_core = 1;
  c.num_gp_counters = 4;
  c.num_fixed_counters = 3;
  c.ident.vendor = Vendor::kIntel;
  c.ident.family = 6;
  c.ident.model = 0x55;
  c.ident.stepping = 4;
  c.perf.base_ipc = 3.4;
  c.perf.flops_per_cycle_dp = 16.0;
  c.perf.llc_miss_latency_ns = 85.0;
  c.perf.mlp_overlap = 0.6;
  c.cache = CacheSpec{32 * 1024, 1024 * 1024, 24 * 1024 * 1024};
  c.dvfs = DvfsSpec{.freq_min = MegaHertz{1000},
                    .freq_base = MegaHertz{2100},
                    .freq_max = MegaHertz{3000},
                    .volt_min = 0.70,
                    .volt_slope_per_ghz = 0.12};
  c.power = PowerSpec{2.6, 0.8};
  m.core_types = {c};

  for (int core = 0; core < cores; ++core) {
    m.cpus.push_back(CpuSlot{core, 0, core, 0});
  }
  m.rapl = RaplSpec{true, Watts{120.0}, Watts{180.0}, 28.0, 2.5, Watts{15.0}};
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0},
                          0.30, 300.0, 3.0};
  m.memory = MemorySpec{64LL * 1024 * 1024 * 1024, "64GB DDR4", 90.0};
  return m;
}

MachineSpec alder_lake_i9_12900k() {
  // Start from the Raptor Lake preset: same microarchitectures and PMU
  // tables, different bins and power limits.
  MachineSpec m = raptor_lake_i7_13700();
  m.name = "alder_lake_i9_12900k";
  m.cpu_model_string = "12th Gen Intel(R) Core(TM) i9-12900K";
  CoreTypeSpec& p = m.core_types[0];
  p.ident.model = 0x97;  // Alder Lake-S
  p.dvfs.freq_base = MegaHertz{3200};
  p.dvfs.freq_max = MegaHertz{5200};
  p.dvfs.freq_max_multi = MegaHertz{4900};
  CoreTypeSpec& e = m.core_types[1];
  e.ident.model = 0x97;
  e.dvfs.freq_base = MegaHertz{2400};
  e.dvfs.freq_max = MegaHertz{3900};
  e.dvfs.freq_max_multi = MegaHertz{3700};
  // The K-part runs unlocked: PL1 = PL2 = 241 W on typical boards.
  m.rapl = RaplSpec{true, Watts{125.0}, Watts{241.0}, 28.0, 2.5, Watts{9.0}};
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{100.0},
                          0.28, 260.0, 3.0};
  return m;
}

MachineSpec sierra_forest_e_only(int cores) {
  MachineSpec m;
  m.name = "sierra_forest_e_only";
  m.cpu_model_string = "Intel(R) Xeon(R) 6E (Sierra Forest)";
  m.vendor = Vendor::kIntel;
  m.exposes_cpuid_hybrid = false;  // homogeneous: leaf 0x1A is moot

  CoreTypeSpec e;
  e.name = "E-core";
  e.uarch_name = "Crestmont";
  e.pmu_sysfs_name = "cpu";  // single PMU keeps the traditional name
  e.pfm_pmu_name = "srf";
  e.cpu_capacity = 1024;  // nothing to be relative to
  e.smt_per_core = 1;
  e.num_gp_counters = 8;
  e.num_fixed_counters = 3;
  e.ident.vendor = Vendor::kIntel;
  e.ident.family = 6;
  e.ident.model = 0xAF;
  e.ident.intel_kind = IntelCoreKind::kAtom;
  e.perf.base_ipc = 3.4;
  e.perf.flops_per_cycle_dp = 8.0;
  e.perf.llc_miss_latency_ns = 95.0;
  e.perf.mlp_overlap = 0.5;
  e.cache = CacheSpec{32 * 1024, 4 * 1024 * 1024, 96 * 1024 * 1024};
  e.dvfs = DvfsSpec{.freq_min = MegaHertz{800},
                    .freq_base = MegaHertz{2200},
                    .freq_max = MegaHertz{3200},
                    .freq_max_multi = MegaHertz{3000},
                    .volt_min = 0.65,
                    .volt_slope_per_ghz = 0.12};
  e.power = PowerSpec{1.2, 0.3};
  m.core_types = {e};
  for (int core = 0; core < cores; ++core) {
    m.cpus.push_back(CpuSlot{core, 0, core, 0});
  }
  m.rapl = RaplSpec{true, Watts{205.0}, Watts{250.0}, 28.0, 2.5, Watts{22.0}};
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0},
                          0.20, 400.0, 3.0};
  m.memory = MemorySpec{256LL * 1024 * 1024 * 1024, "256GB DDR5", 250.0};
  return m;
}

MachineSpec granite_rapids_p_only(int cores) {
  MachineSpec m;
  m.name = "granite_rapids_p_only";
  m.cpu_model_string = "Intel(R) Xeon(R) 6P (Granite Rapids)";
  m.vendor = Vendor::kIntel;
  m.exposes_cpuid_hybrid = false;

  CoreTypeSpec p;
  p.name = "P-core";
  p.uarch_name = "RedwoodCove";
  p.pmu_sysfs_name = "cpu";
  p.pfm_pmu_name = "gnr";
  p.cpu_capacity = 1024;
  p.smt_per_core = 2;
  p.num_gp_counters = 8;
  p.num_fixed_counters = 4;
  p.ident.vendor = Vendor::kIntel;
  p.ident.family = 6;
  p.ident.model = 0xAD;
  p.ident.intel_kind = IntelCoreKind::kCore;
  p.perf.base_ipc = 5.0;
  p.perf.flops_per_cycle_dp = 32.0;  // AVX-512, 2 FMA ports
  p.perf.llc_miss_latency_ns = 90.0;
  p.perf.mlp_overlap = 0.75;
  p.cache = CacheSpec{48 * 1024, 2 * 1024 * 1024, 288 * 1024 * 1024};
  p.dvfs = DvfsSpec{.freq_min = MegaHertz{800},
                    .freq_base = MegaHertz{2300},
                    .freq_max = MegaHertz{3900},
                    .freq_max_multi = MegaHertz{3400},
                    .volt_min = 0.68,
                    .volt_slope_per_ghz = 0.15};
  p.power = PowerSpec{2.4, 0.6};
  m.core_types = {p};
  int cpu = 0;
  for (int core = 0; core < cores; ++core) {
    for (int thread = 0; thread < 2; ++thread) {
      m.cpus.push_back(CpuSlot{cpu++, 0, core, 0});
    }
  }
  m.rapl = RaplSpec{true, Watts{350.0}, Watts{420.0}, 28.0, 2.5, Watts{35.0}};
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0},
                          0.12, 500.0, 3.0};
  m.memory = MemorySpec{512LL * 1024 * 1024 * 1024, "512GB DDR5", 350.0};
  return m;
}

MachineSpec arm_three_type() {
  // Modeled loosely on a phone SoC: 1 prime + 3 big + 4 little, with the
  // 250/512/1024 capacity split the paper mentions seeing in the wild.
  MachineSpec m;
  m.name = "arm_three_type";
  m.cpu_model_string = "Synthetic Tri-Cluster SoC";
  m.vendor = Vendor::kArm;
  m.exposes_cpu_capacity = true;
  m.firmware = FirmwareNaming::kAcpi;

  CoreTypeSpec prime;
  prime.name = "prime";
  prime.uarch_name = "Cortex-X1";
  prime.pmu_sysfs_name = "armv8_cortex_x1";
  prime.pfm_pmu_name = "arm_x1";
  prime.cpu_capacity = 1024;
  prime.num_gp_counters = 6;
  prime.num_fixed_counters = 1;
  prime.ident.vendor = Vendor::kArm;
  prime.ident.arm_part = 0xd44;
  prime.perf = UarchPerf{3.6, 8.0, 100.0, 16.0, 0.6};
  prime.dvfs = DvfsSpec{.freq_min = MegaHertz{500},
                    .freq_base = MegaHertz{1600},
                    .freq_max = MegaHertz{2800},
                    .volt_min = 0.75,
                    .volt_slope_per_ghz = 0.25};
  prime.power = PowerSpec{2.2, 0.15};

  CoreTypeSpec big = prime;
  big.name = "big";
  big.uarch_name = "Cortex-A78";
  big.pmu_sysfs_name = "armv8_cortex_a78";
  big.pfm_pmu_name = "arm_a78";
  big.cpu_capacity = 512;
  big.ident.arm_part = 0xd41;
  big.perf = UarchPerf{2.8, 8.0, 110.0, 14.0, 0.5};
  big.dvfs = DvfsSpec{.freq_min = MegaHertz{500},
                    .freq_base = MegaHertz{1400},
                    .freq_max = MegaHertz{2400},
                    .volt_min = 0.75,
                    .volt_slope_per_ghz = 0.22};
  big.power = PowerSpec{1.4, 0.10};

  CoreTypeSpec little = prime;
  little.name = "little";
  little.uarch_name = "Cortex-A55";
  little.pmu_sysfs_name = "armv8_cortex_a55";
  little.pfm_pmu_name = "arm_a55";
  little.cpu_capacity = 250;
  little.ident.arm_part = 0xd05;
  little.perf = UarchPerf{1.3, 2.0, 140.0, 8.0, 0.15};
  little.dvfs = DvfsSpec{.freq_min = MegaHertz{300},
                    .freq_base = MegaHertz{1000},
                    .freq_max = MegaHertz{1800},
                    .volt_min = 0.80,
                    .volt_slope_per_ghz = 0.20};
  little.power = PowerSpec{0.45, 0.04};

  m.core_types = {prime, big, little};
  int cpu = 0;
  for (int i = 0; i < 4; ++i) m.cpus.push_back(CpuSlot{cpu++, 2, i, 0});
  for (int i = 4; i < 7; ++i) m.cpus.push_back(CpuSlot{cpu++, 1, i, 1});
  m.cpus.push_back(CpuSlot{cpu++, 0, 7, 2});

  m.rapl.present = false;
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{90.0},
                          10.0, 4.5, 5.0};
  m.memory = MemorySpec{8LL * 1024 * 1024 * 1024, "8GB LPDDR5", 25.0};
  return m;
}

MachineSpec meteor_lake_like() {
  MachineSpec m;
  m.name = "meteor_lake_like";
  m.cpu_model_string = "Intel(R) Core(TM) Ultra 7 (Meteor Lake-like)";
  m.vendor = Vendor::kIntel;
  m.exposes_cpuid_hybrid = true;
  m.exposes_cpu_capacity = false;
  m.firmware = FirmwareNaming::kAcpi;

  CoreTypeSpec p;
  p.name = "P-core";
  p.uarch_name = "RedwoodCove";
  p.pmu_sysfs_name = "cpu_core";
  p.pfm_pmu_name = "mtl_rwc";
  p.cpu_capacity = 1024;
  p.smt_per_core = 2;
  p.num_gp_counters = 8;
  p.num_fixed_counters = 4;            // incl. the topdown slots counter
  p.ident.vendor = Vendor::kIntel;
  p.ident.family = 6;
  p.ident.model = 0xAA;                // Meteor Lake
  p.ident.stepping = 4;
  p.ident.intel_kind = IntelCoreKind::kCore;
  p.perf.base_ipc = 4.8;
  p.perf.flops_per_cycle_dp = 16.0;
  p.perf.llc_miss_latency_ns = 78.0;
  p.perf.mlp_overlap = 0.74;
  p.perf.branch_miss_penalty_cycles = 17.0;
  p.cache = CacheSpec{48 * 1024, 2 * 1024 * 1024, 24 * 1024 * 1024};
  p.dvfs = DvfsSpec{.freq_min = MegaHertz{700},
                    .freq_base = MegaHertz{1400},
                    .freq_max = MegaHertz{4800},
                    .freq_max_multi = MegaHertz{4500},
                    .volt_min = 0.66,
                    .volt_slope_per_ghz = 0.16};
  p.power = PowerSpec{/*c_dyn=*/1.45, /*leakage_w=*/0.45};

  CoreTypeSpec e;
  e.name = "E-core";
  e.uarch_name = "Crestmont";
  e.pmu_sysfs_name = "cpu_atom";
  e.pfm_pmu_name = "mtl_cmt";
  e.cpu_capacity = 590;
  e.smt_per_core = 1;
  e.num_gp_counters = 6;
  e.num_fixed_counters = 3;
  e.ident = p.ident;                   // same family/model/stepping (§IV-B)
  e.ident.intel_kind = IntelCoreKind::kAtom;
  e.perf.base_ipc = 3.3;
  e.perf.flops_per_cycle_dp = 8.0;
  e.perf.llc_miss_latency_ns = 88.0;
  e.perf.mlp_overlap = 0.46;
  e.perf.branch_miss_penalty_cycles = 13.0;
  e.cache = CacheSpec{32 * 1024, 2 * 1024 * 1024, 24 * 1024 * 1024};
  e.dvfs = DvfsSpec{.freq_min = MegaHertz{700},
                    .freq_base = MegaHertz{900},
                    .freq_max = MegaHertz{3800},
                    .freq_max_multi = MegaHertz{3500},
                    .volt_min = 0.64,
                    .volt_slope_per_ghz = 0.14};
  e.power = PowerSpec{/*c_dyn=*/1.18, /*leakage_w=*/0.20};

  // The low-power island: architecturally Crestmont like the E-cores —
  // CPUID leaf 0x1A reports the same kAtom kind — but on its own PMU
  // ("cpu_lowpower"), its own low-frequency bins, and off the ring bus.
  CoreTypeSpec lpe = e;
  lpe.name = "LP-E-core";
  lpe.uarch_name = "Crestmont-LP";
  lpe.pmu_sysfs_name = "cpu_lowpower";
  lpe.pfm_pmu_name = "mtl_lpe";
  lpe.cpu_capacity = 310;
  lpe.perf.base_ipc = 3.0;
  lpe.perf.llc_miss_latency_ns = 110.0;  // SoC-tile memory path
  lpe.perf.mlp_overlap = 0.40;
  lpe.cache = CacheSpec{32 * 1024, 2 * 1024 * 1024, 2 * 1024 * 1024};
  lpe.dvfs = DvfsSpec{.freq_min = MegaHertz{400},
                      .freq_base = MegaHertz{700},
                      .freq_max = MegaHertz{2500},
                      .freq_max_multi = MegaHertz{2100},
                      .volt_min = 0.60,
                      .volt_slope_per_ghz = 0.13};
  lpe.power = PowerSpec{/*c_dyn=*/0.75, /*leakage_w=*/0.08};

  m.core_types = {p, e, lpe};

  // Logical CPUs: 0-11 = 6 P-cores x 2 threads, 12-19 = 8 E-cores,
  // 20-21 = 2 LP-E cores — matching Linux enumeration on MTL-H parts.
  int cpu = 0;
  for (int core = 0; core < 6; ++core) {
    for (int thread = 0; thread < 2; ++thread) {
      m.cpus.push_back(CpuSlot{cpu++, /*type=*/0, core, /*cluster=*/0});
    }
  }
  for (int core = 6; core < 14; ++core) {
    m.cpus.push_back(CpuSlot{cpu++, /*type=*/1, core, /*cluster=*/1});
  }
  for (int core = 14; core < 16; ++core) {
    m.cpus.push_back(CpuSlot{cpu++, /*type=*/2, core, /*cluster=*/2});
  }

  m.rapl = RaplSpec{true, Watts{28.0}, Watts{115.0}, 28.0, 2.5, Watts{6.0}};
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{100.0},
                          0.60, 90.0, 3.0};
  m.memory = MemorySpec{32LL * 1024 * 1024 * 1024, "32GB LPDDR5x", 55.0};
  return m;
}

MachineSpec arm_dynamiq() {
  // A DynamIQ phone SoC: 1 Cortex-X2 + 3 Cortex-A710 + 4 Cortex-A510,
  // little cluster enumerated first (like the RK3399), every PMU hiding
  // behind an ambiguous devicetree "armv8_pmuv3_N" name so only MIDR
  // and cpu_capacity can tell the three clusters apart.
  MachineSpec m;
  m.name = "arm_dynamiq";
  m.cpu_model_string = "DynamIQ Tri-Cluster SoC";
  m.vendor = Vendor::kArm;
  m.exposes_cpu_capacity = true;
  m.firmware = FirmwareNaming::kDevicetree;

  CoreTypeSpec big;
  big.name = "big";
  big.uarch_name = "Cortex-X2";
  big.pmu_sysfs_name = "armv8_pmuv3_2";  // devicetree ambiguity (§IV-B)
  big.pfm_pmu_name = "arm_x2";
  big.cpu_capacity = 1024;
  big.num_gp_counters = 6;
  big.num_fixed_counters = 1;
  big.ident.vendor = Vendor::kArm;
  big.ident.arm_implementer = 0x41;
  big.ident.arm_part = 0xd48;  // Cortex-X2
  big.ident.arm_variant = 0;
  big.ident.arm_revision = 1;
  big.perf = UarchPerf{3.8, 8.0, 95.0, 16.0, 0.62};
  big.cache = CacheSpec{64 * 1024, 1024 * 1024, 6 * 1024 * 1024};
  big.dvfs = DvfsSpec{.freq_min = MegaHertz{500},
                      .freq_base = MegaHertz{1700},
                      .freq_max = MegaHertz{3000},
                      .volt_min = 0.75,
                      .volt_slope_per_ghz = 0.25};
  big.power = PowerSpec{2.4, 0.16};

  CoreTypeSpec mid = big;
  mid.name = "mid";
  mid.uarch_name = "Cortex-A710";
  mid.pmu_sysfs_name = "armv8_pmuv3_1";
  mid.pfm_pmu_name = "arm_a710";
  mid.cpu_capacity = 744;
  mid.ident.arm_part = 0xd47;  // Cortex-A710
  mid.perf = UarchPerf{3.0, 8.0, 105.0, 14.0, 0.52};
  mid.cache = CacheSpec{32 * 1024, 512 * 1024, 6 * 1024 * 1024};
  mid.dvfs = DvfsSpec{.freq_min = MegaHertz{500},
                      .freq_base = MegaHertz{1500},
                      .freq_max = MegaHertz{2500},
                      .volt_min = 0.75,
                      .volt_slope_per_ghz = 0.22};
  mid.power = PowerSpec{1.5, 0.11};

  CoreTypeSpec little = big;
  little.name = "little";
  little.uarch_name = "Cortex-A510";
  little.pmu_sysfs_name = "armv8_pmuv3_0";
  little.pfm_pmu_name = "arm_a510";
  little.cpu_capacity = 286;
  little.ident.arm_part = 0xd46;  // Cortex-A510
  little.ident.arm_revision = 2;
  little.perf = UarchPerf{1.4, 2.0, 135.0, 8.0, 0.18};
  little.cache = CacheSpec{32 * 1024, 256 * 1024, 6 * 1024 * 1024};
  little.dvfs = DvfsSpec{.freq_min = MegaHertz{300},
                         .freq_base = MegaHertz{900},
                         .freq_max = MegaHertz{2000},
                         .volt_min = 0.78,
                         .volt_slope_per_ghz = 0.20};
  little.power = PowerSpec{0.5, 0.04};

  m.core_types = {big, mid, little};
  int cpu = 0;
  for (int i = 0; i < 4; ++i) m.cpus.push_back(CpuSlot{cpu++, 2, i, 0});
  for (int i = 4; i < 7; ++i) m.cpus.push_back(CpuSlot{cpu++, 1, i, 1});
  m.cpus.push_back(CpuSlot{cpu++, 0, 7, 2});

  m.rapl.present = false;
  m.thermal = ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0},
                          8.0, 5.0, 5.0};
  m.cluster_thermal = {
      ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0}, 8.0, 5.0, 5.0},
      ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0}, 12.0, 4.5, 5.0},
      ThermalSpec{Celsius{25.0}, Celsius{35.0}, Celsius{95.0}, 18.0, 4.0, 5.0},
  };
  m.memory = MemorySpec{12LL * 1024 * 1024 * 1024, "12GB LPDDR5", 30.0};
  return m;
}

std::optional<MachineSpec> machine_preset_by_name(std::string_view name) {
  struct Entry {
    std::string_view alias;
    MachineSpec (*make)();
  };
  // Catalog order is also the order machine_preset_names() reports and
  // the order the validation tool sweeps.
  static constexpr Entry kCatalog[] = {
      {"raptorlake", [] { return raptor_lake_i7_13700(); }},
      {"orangepi", [] { return orangepi800_rk3399(); }},
      {"xeon", [] { return homogeneous_xeon(); }},
      {"tritype", [] { return arm_three_type(); }},
      {"alderlake", [] { return alder_lake_i9_12900k(); }},
      {"sierraforest", [] { return sierra_forest_e_only(); }},
      {"graniterapids", [] { return granite_rapids_p_only(); }},
      {"meteorlake", [] { return meteor_lake_like(); }},
      {"dynamiq", [] { return arm_dynamiq(); }},
  };
  for (const Entry& entry : kCatalog) {
    if (name == entry.alias) return entry.make();
  }
  // Full MachineSpec::name spellings resolve too.
  for (const Entry& entry : kCatalog) {
    MachineSpec m = entry.make();
    if (name == m.name) return m;
  }
  return std::nullopt;
}

std::vector<std::string> machine_preset_names() {
  return {"raptorlake",    "orangepi",      "xeon",
          "tritype",       "alderlake",     "sierraforest",
          "graniterapids", "meteorlake",    "dynamiq"};
}

}  // namespace hetpapi::cpumodel
