// Golden-output regression tests for the two §IV-B/§V-2 reporting
// surfaces: the papi_avail report and the sysdetect report, byte-exact
// on the Intel hybrid and ARM big.LITTLE sim models. The simulated
// machines are fully deterministic, so any diff here is a real change
// to the reporting layer — update the golden block deliberately when
// the format is meant to change.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/avail_report.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "papi/sysdetect.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi {
namespace {

struct Instance {
  simkernel::SimKernel kernel;
  papi::SimBackend backend;
  std::unique_ptr<papi::Library> lib;

  explicit Instance(const cpumodel::MachineSpec& machine)
      : kernel(machine), backend(&kernel) {
    papi::LibraryConfig config;
    config.preset_policy = papi::PresetPolicy::kDerivedSum;
    auto created = papi::Library::init(&backend, config);
    EXPECT_TRUE(created.has_value()) << created.status().to_string();
    lib = std::move(*created);
  }

  std::string avail(const std::string& machine_name) const {
    return papi::render_avail_report(*lib, machine_name, "derived");
  }

  std::string native_avail(const std::string& machine_name) const {
    return papi::render_native_avail_report(lib->pfm(), machine_name);
  }

  std::string sysdetect() const {
    return papi::build_sysdetect_report(backend.host(), lib->pfm(),
                                        lib->registry())
        .to_text();
  }
};

TEST(GoldenReports, PapiAvailRaptorLake) {
  Instance instance(cpumodel::raptor_lake_i7_13700());
  EXPECT_EQ(instance.avail("raptor_lake_i7_13700"),
            R"GOLDEN(Available PAPI preset events on raptor_lake_i7_13700 (policy: derived)
hybrid: yes; core PMUs: adl_glc[intel_core] adl_grt[intel_atom]
components: perf_event(thread) rapl(package) sysinfo(package)

+--------------+-------+-----------------------------+---------------------------------------------------------------------------------------------------------------------+
| preset       | avail | description                 | expands to                                                                                                          |
+--------------+-------+-----------------------------+---------------------------------------------------------------------------------------------------------------------+
| PAPI_TOT_INS | yes   | Total instructions retired  | adl_glc[intel_core]::INST_RETIRED:ANY + adl_grt[intel_atom]::INST_RETIRED:ANY                                       |
| PAPI_TOT_CYC | yes   | Total core cycles           | adl_glc[intel_core]::CPU_CLK_UNHALTED:THREAD + adl_grt[intel_atom]::CPU_CLK_UNHALTED:THREAD                         |
| PAPI_REF_CYC | yes   | Reference clock cycles      | adl_glc[intel_core]::CPU_CLK_UNHALTED:REF_TSC + adl_grt[intel_atom]::CPU_CLK_UNHALTED:REF_TSC                       |
| PAPI_L3_TCA  | yes   | L3 total cache accesses     | adl_glc[intel_core]::LONGEST_LAT_CACHE:REFERENCE + adl_grt[intel_atom]::LONGEST_LAT_CACHE:REFERENCE                 |
| PAPI_L3_TCM  | yes   | L3 total cache misses       | adl_glc[intel_core]::LONGEST_LAT_CACHE:MISS + adl_grt[intel_atom]::LONGEST_LAT_CACHE:MISS                           |
| PAPI_BR_INS  | yes   | Branch instructions retired | adl_glc[intel_core]::BR_INST_RETIRED:ALL_BRANCHES + adl_grt[intel_atom]::BR_INST_RETIRED:ALL_BRANCHES               |
| PAPI_BR_MSP  | yes   | Mispredicted branches       | adl_glc[intel_core]::BR_MISP_RETIRED:ALL_BRANCHES + adl_grt[intel_atom]::BR_MISP_RETIRED:ALL_BRANCHES               |
| PAPI_RES_STL | yes   | Cycles stalled on resources | adl_glc[intel_core]::RESOURCE_STALLS + adl_grt[intel_atom]::RESOURCE_STALLS                                         |
| PAPI_DP_OPS  | yes   | Double-precision operations | adl_glc[intel_core]::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE + adl_grt[intel_atom]::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE |
+--------------+-------+-----------------------------+---------------------------------------------------------------------------------------------------------------------+

9 of 9 presets available
)GOLDEN");
}

TEST(GoldenReports, PapiAvailOrangePi) {
  Instance instance(cpumodel::orangepi800_rk3399());
  EXPECT_EQ(instance.avail("orangepi800_rk3399"),
            R"GOLDEN(Available PAPI preset events on orangepi800_rk3399 (policy: derived)
hybrid: yes; core PMUs: arm_a72[capacity-1024] arm_a53[capacity-485]
components: perf_event(thread) rapl(package) sysinfo(package)

+--------------+-------+-----------------------------+------------------------------------------------------------------------------------------+
| preset       | avail | description                 | expands to                                                                               |
+--------------+-------+-----------------------------+------------------------------------------------------------------------------------------+
| PAPI_TOT_INS | yes   | Total instructions retired  | arm_a72[capacity-1024]::INST_RETIRED + arm_a53[capacity-485]::INST_RETIRED               |
| PAPI_TOT_CYC | yes   | Total core cycles           | arm_a72[capacity-1024]::CPU_CYCLES + arm_a53[capacity-485]::CPU_CYCLES                   |
| PAPI_REF_CYC | no    | Reference clock cycles      | arm_a72[capacity-1024]::<none> + arm_a53[capacity-485]::<none>                           |
| PAPI_L3_TCA  | yes   | L3 total cache accesses     | arm_a72[capacity-1024]::LL_CACHE + arm_a53[capacity-485]::LL_CACHE                       |
| PAPI_L3_TCM  | yes   | L3 total cache misses       | arm_a72[capacity-1024]::LL_CACHE_MISS + arm_a53[capacity-485]::LL_CACHE_MISS             |
| PAPI_BR_INS  | yes   | Branch instructions retired | arm_a72[capacity-1024]::BR_RETIRED + arm_a53[capacity-485]::BR_RETIRED                   |
| PAPI_BR_MSP  | yes   | Mispredicted branches       | arm_a72[capacity-1024]::BR_MIS_PRED_RETIRED + arm_a53[capacity-485]::BR_MIS_PRED_RETIRED |
| PAPI_RES_STL | yes   | Cycles stalled on resources | arm_a72[capacity-1024]::STALL_BACKEND + arm_a53[capacity-485]::STALL_BACKEND             |
| PAPI_DP_OPS  | yes   | Double-precision operations | arm_a72[capacity-1024]::VFP_SPEC + arm_a53[capacity-485]::VFP_SPEC                       |
+--------------+-------+-----------------------------+------------------------------------------------------------------------------------------+

8 of 9 presets available
)GOLDEN");
}

TEST(GoldenReports, PapiAvailMeteorLake) {
  Instance instance(cpumodel::meteor_lake_like());
  EXPECT_EQ(instance.avail("meteor_lake_like"),
            R"GOLDEN(Available PAPI preset events on meteor_lake_like (policy: derived)
hybrid: yes; core PMUs: mtl_rwc[intel_core] mtl_cmt[intel_atom] mtl_lpe[intel_lowpower]
components: perf_event(thread) rapl(package) sysinfo(package)

+--------------+-------+-----------------------------+------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------+
| preset       | avail | description                 | expands to                                                                                                                                                                         |
+--------------+-------+-----------------------------+------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------+
| PAPI_TOT_INS | yes   | Total instructions retired  | mtl_rwc[intel_core]::INST_RETIRED:ANY + mtl_cmt[intel_atom]::INST_RETIRED:ANY + mtl_lpe[intel_lowpower]::INST_RETIRED:ANY                                                          |
| PAPI_TOT_CYC | yes   | Total core cycles           | mtl_rwc[intel_core]::CPU_CLK_UNHALTED:THREAD + mtl_cmt[intel_atom]::CPU_CLK_UNHALTED:THREAD + mtl_lpe[intel_lowpower]::CPU_CLK_UNHALTED:THREAD                                     |
| PAPI_REF_CYC | yes   | Reference clock cycles      | mtl_rwc[intel_core]::CPU_CLK_UNHALTED:REF_TSC + mtl_cmt[intel_atom]::CPU_CLK_UNHALTED:REF_TSC + mtl_lpe[intel_lowpower]::CPU_CLK_UNHALTED:REF_TSC                                  |
| PAPI_L3_TCA  | yes   | L3 total cache accesses     | mtl_rwc[intel_core]::LONGEST_LAT_CACHE:REFERENCE + mtl_cmt[intel_atom]::LONGEST_LAT_CACHE:REFERENCE + mtl_lpe[intel_lowpower]::LONGEST_LAT_CACHE:REFERENCE                         |
| PAPI_L3_TCM  | yes   | L3 total cache misses       | mtl_rwc[intel_core]::LONGEST_LAT_CACHE:MISS + mtl_cmt[intel_atom]::LONGEST_LAT_CACHE:MISS + mtl_lpe[intel_lowpower]::LONGEST_LAT_CACHE:MISS                                        |
| PAPI_BR_INS  | yes   | Branch instructions retired | mtl_rwc[intel_core]::BR_INST_RETIRED:ALL_BRANCHES + mtl_cmt[intel_atom]::BR_INST_RETIRED:ALL_BRANCHES + mtl_lpe[intel_lowpower]::BR_INST_RETIRED:ALL_BRANCHES                      |
| PAPI_BR_MSP  | yes   | Mispredicted branches       | mtl_rwc[intel_core]::BR_MISP_RETIRED:ALL_BRANCHES + mtl_cmt[intel_atom]::BR_MISP_RETIRED:ALL_BRANCHES + mtl_lpe[intel_lowpower]::BR_MISP_RETIRED:ALL_BRANCHES                      |
| PAPI_RES_STL | yes   | Cycles stalled on resources | mtl_rwc[intel_core]::RESOURCE_STALLS + mtl_cmt[intel_atom]::RESOURCE_STALLS + mtl_lpe[intel_lowpower]::RESOURCE_STALLS                                                             |
| PAPI_DP_OPS  | yes   | Double-precision operations | mtl_rwc[intel_core]::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE + mtl_cmt[intel_atom]::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE + mtl_lpe[intel_lowpower]::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE |
+--------------+-------+-----------------------------+------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------+

9 of 9 presets available
)GOLDEN");
}

TEST(GoldenReports, PapiAvailDynamiq) {
  Instance instance(cpumodel::arm_dynamiq());
  EXPECT_EQ(instance.avail("arm_dynamiq"),
            R"GOLDEN(Available PAPI preset events on arm_dynamiq (policy: derived)
hybrid: yes; core PMUs: arm_x2[capacity-1024] arm_a710[capacity-744] arm_a510[capacity-286]
components: perf_event(thread) rapl(package) sysinfo(package)

+--------------+-------+-----------------------------+----------------------------------------------------------------------------------------------------------------------------------------+
| preset       | avail | description                 | expands to                                                                                                                             |
+--------------+-------+-----------------------------+----------------------------------------------------------------------------------------------------------------------------------------+
| PAPI_TOT_INS | yes   | Total instructions retired  | arm_x2[capacity-1024]::INST_RETIRED + arm_a710[capacity-744]::INST_RETIRED + arm_a510[capacity-286]::INST_RETIRED                      |
| PAPI_TOT_CYC | yes   | Total core cycles           | arm_x2[capacity-1024]::CPU_CYCLES + arm_a710[capacity-744]::CPU_CYCLES + arm_a510[capacity-286]::CPU_CYCLES                            |
| PAPI_REF_CYC | no    | Reference clock cycles      | arm_x2[capacity-1024]::<none> + arm_a710[capacity-744]::<none> + arm_a510[capacity-286]::<none>                                        |
| PAPI_L3_TCA  | yes   | L3 total cache accesses     | arm_x2[capacity-1024]::LL_CACHE + arm_a710[capacity-744]::LL_CACHE + arm_a510[capacity-286]::LL_CACHE                                  |
| PAPI_L3_TCM  | yes   | L3 total cache misses       | arm_x2[capacity-1024]::LL_CACHE_MISS + arm_a710[capacity-744]::LL_CACHE_MISS + arm_a510[capacity-286]::LL_CACHE_MISS                   |
| PAPI_BR_INS  | yes   | Branch instructions retired | arm_x2[capacity-1024]::BR_RETIRED + arm_a710[capacity-744]::BR_RETIRED + arm_a510[capacity-286]::BR_RETIRED                            |
| PAPI_BR_MSP  | yes   | Mispredicted branches       | arm_x2[capacity-1024]::BR_MIS_PRED_RETIRED + arm_a710[capacity-744]::BR_MIS_PRED_RETIRED + arm_a510[capacity-286]::BR_MIS_PRED_RETIRED |
| PAPI_RES_STL | yes   | Cycles stalled on resources | arm_x2[capacity-1024]::STALL_BACKEND + arm_a710[capacity-744]::STALL_BACKEND + arm_a510[capacity-286]::STALL_BACKEND                   |
| PAPI_DP_OPS  | yes   | Double-precision operations | arm_x2[capacity-1024]::VFP_SPEC + arm_a710[capacity-744]::VFP_SPEC + arm_a510[capacity-286]::VFP_SPEC                                  |
+--------------+-------+-----------------------------+----------------------------------------------------------------------------------------------------------------------------------------+

8 of 9 presets available
)GOLDEN");
}

TEST(GoldenReports, SysdetectMeteorLake) {
  Instance instance(cpumodel::meteor_lake_like());
  EXPECT_EQ(instance.sysdetect(),
            R"GOLDEN(=== sysdetect report ===
model        : Intel(R) Core(TM) Ultra 7 (Meteor Lake-like)
logical cpus : 22
hybrid       : yes
detected via : cpuid_leaf_1a+pmu_cpus
  core type intel_core       cpus 0-11
  core type intel_atom       cpus 12-19
  core type intel_lowpower   cpus 20-21
PMUs:
  mtl_cmt    (sysfs cpu_atom         type  8) core PMU [intel_atom], 13 events, cpus 12-19
  mtl_rwc    (sysfs cpu_core         type  4) core PMU [intel_core], 15 events, cpus 0-11
  mtl_lpe    (sysfs cpu_lowpower     type  9) core PMU [intel_lowpower], 13 events, cpus 20-21
  rapl       (sysfs power            type 10) 3 events, cpus 0
  perf       (sysfs software         type  1) 3 events, cpus all
  unc_imc_0  (sysfs uncore_imc_0     type 11) 2 events, cpus 0
  sysinfo    (sysfs (software)       type 4294901760) 3 events, cpus all
Components:
  perf_event         scope thread   caps [ rdpmc overflow multiplex] pmus: mtl_cmt,mtl_rwc,mtl_lpe,perf,unc_imc_0
  rapl               scope package  caps [ multiplex] pmus: rapl
  sysinfo            scope package  caps [] pmus: sysinfo
)GOLDEN");
}

TEST(GoldenReports, SysdetectDynamiq) {
  Instance instance(cpumodel::arm_dynamiq());
  EXPECT_EQ(instance.sysdetect(),
            R"GOLDEN(=== sysdetect report ===
model        : ARM part 0xd46
logical cpus : 8
hybrid       : yes
detected via : cpu_capacity
  core type capacity-1024    cpus 7
  core type capacity-744     cpus 4-6
  core type capacity-286     cpus 0-3
PMUs:
  arm_a510   (sysfs armv8_pmuv3_0    type 10) core PMU [capacity-286], 8 events, cpus 0-3
  arm_a710   (sysfs armv8_pmuv3_1    type  9) core PMU [capacity-744], 8 events, cpus 4-6
  arm_x2     (sysfs armv8_pmuv3_2    type  8) core PMU [capacity-1024], 8 events, cpus 7
  perf       (sysfs software         type  1) 3 events, cpus all
  sysinfo    (sysfs (software)       type 4294901760) 3 events, cpus all
Components:
  perf_event         scope thread   caps [ rdpmc overflow multiplex] pmus: arm_a510,arm_a710,arm_x2,perf
  rapl               scope package  caps [ multiplex] pmus: (none)
  sysinfo            scope package  caps [] pmus: sysinfo
)GOLDEN");
}

TEST(GoldenReports, SysdetectRaptorLake) {
  Instance instance(cpumodel::raptor_lake_i7_13700());
  EXPECT_EQ(instance.sysdetect(),
            R"GOLDEN(=== sysdetect report ===
model        : 13th Gen Intel(R) Core(TM) i7-13700
logical cpus : 24
hybrid       : yes
detected via : cpuid_leaf_1a
  core type intel_core       cpus 0-15
  core type intel_atom       cpus 16-23
PMUs:
  adl_grt    (sysfs cpu_atom         type  8) core PMU [intel_atom], 13 events, cpus 16-23
  adl_glc    (sysfs cpu_core         type  4) core PMU [intel_core], 15 events, cpus 0-15
  rapl       (sysfs power            type  9) 3 events, cpus 0
  perf       (sysfs software         type  1) 3 events, cpus all
  unc_imc_0  (sysfs uncore_imc_0     type 10) 2 events, cpus 0
  sysinfo    (sysfs (software)       type 4294901760) 3 events, cpus all
Components:
  perf_event         scope thread   caps [ rdpmc overflow multiplex] pmus: adl_grt,adl_glc,perf,unc_imc_0
  rapl               scope package  caps [ multiplex] pmus: rapl
  sysinfo            scope package  caps [] pmus: sysinfo
)GOLDEN");
}

TEST(GoldenReports, SysdetectOrangePi) {
  Instance instance(cpumodel::orangepi800_rk3399());
  EXPECT_EQ(instance.sysdetect(),
            R"GOLDEN(=== sysdetect report ===
model        : ARM part 0xd03
logical cpus : 6
hybrid       : yes
detected via : cpu_capacity
  core type capacity-1024    cpus 4-5
  core type capacity-485     cpus 0-3
PMUs:
  arm_a53    (sysfs armv8_pmuv3_0    type  9) core PMU [capacity-485], 8 events, cpus 0-3
  arm_a72    (sysfs armv8_pmuv3_1    type  8) core PMU [capacity-1024], 8 events, cpus 4-5
  perf       (sysfs software         type  1) 3 events, cpus all
  sysinfo    (sysfs (software)       type 4294901760) 3 events, cpus all
Components:
  perf_event         scope thread   caps [ rdpmc overflow multiplex] pmus: arm_a53,arm_a72,perf
  rapl               scope package  caps [ multiplex] pmus: (none)
  sysinfo            scope package  caps [] pmus: sysinfo
)GOLDEN");
}


TEST(GoldenReports, NativeAvailRaptorLake) {
  Instance instance(cpumodel::raptor_lake_i7_13700());
  EXPECT_EQ(instance.native_avail("raptor_lake_i7_13700"),
            R"GOLDEN(Native events on raptor_lake_i7_13700

--- PMU adl_grt (cpu_atom, perf type 8) [core] ---
  adl_grt::INST_RETIRED — Number of instructions retired
      :ANY                  All retired instructions
      :ANY_P                All retired instructions (programmable counter)
  adl_grt::CPU_CLK_UNHALTED — Core cycles when the thread is not halted
      :THREAD               Cycles while the thread runs
      :THREAD_P             Cycles (programmable counter)
      :REF_TSC              Reference cycles at TSC rate
  adl_grt::LONGEST_LAT_CACHE — Last-level cache activity
      :REFERENCE            LLC references
      :MISS                 LLC misses
  adl_grt::BR_INST_RETIRED — Retired branch instructions
      :ALL_BRANCHES         All retired branches
  adl_grt::BR_MISP_RETIRED — Mispredicted branch instructions
      :ALL_BRANCHES         All mispredicted branches
  adl_grt::RESOURCE_STALLS                       Cycles stalled on any resource
  adl_grt::FP_ARITH_INST_RETIRED — Floating-point operations retired
      :SCALAR_DOUBLE        Scalar DP flops
      :256B_PACKED_DOUBLE   256-bit packed DP flops
  adl_grt::MEM_BOUND_STALLS                      Cycles stalled on memory (E-core encoding)

--- PMU adl_glc (cpu_core, perf type 4) [core] ---
  adl_glc::INST_RETIRED — Number of instructions retired
      :ANY                  All retired instructions
      :ANY_P                All retired instructions (programmable counter)
  adl_glc::CPU_CLK_UNHALTED — Core cycles when the thread is not halted
      :THREAD               Cycles while the thread runs
      :THREAD_P             Cycles (programmable counter)
      :REF_TSC              Reference cycles at TSC rate
  adl_glc::LONGEST_LAT_CACHE — Last-level cache activity
      :REFERENCE            LLC references
      :MISS                 LLC misses
  adl_glc::BR_INST_RETIRED — Retired branch instructions
      :ALL_BRANCHES         All retired branches
  adl_glc::BR_MISP_RETIRED — Mispredicted branch instructions
      :ALL_BRANCHES         All mispredicted branches
  adl_glc::RESOURCE_STALLS                       Cycles stalled on any resource
  adl_glc::FP_ARITH_INST_RETIRED — Floating-point operations retired
      :SCALAR_DOUBLE        Scalar DP flops
      :256B_PACKED_DOUBLE   256-bit packed DP flops
  adl_glc::TOPDOWN — Topdown micro-architecture analysis slots
      :SLOTS                Available pipeline slots
      :RETIRING             Slots that retired uops
      :BAD_SPEC             Slots wasted on bad speculation

--- PMU rapl (power, perf type 9) ---
  rapl::RAPL_ENERGY_PKG                          Package domain energy (uJ)
  rapl::RAPL_ENERGY_CORES                        Core domain energy (uJ)
  rapl::RAPL_ENERGY_DRAM                         DRAM domain energy (uJ)

--- PMU perf (software, perf type 1) ---
  perf::CONTEXT_SWITCHES                         Context switches
  perf::CPU_MIGRATIONS                           CPU migrations
  perf::TASK_CLOCK                               Task clock (ns)

--- PMU unc_imc_0 (uncore_imc_0, perf type 10) ---
  unc_imc_0::UNC_M_CAS_COUNT — DRAM CAS commands
      :RD                   Read CAS commands
      :WR                   Write CAS commands

--- PMU sysinfo ((software), perf type 4294901760) ---
  sysinfo::SYS_CTX_SWITCHES                      System-wide context switches (/proc/stat)
  sysinfo::SYS_CPU_TIME_MS                       Aggregate busy cpu time in ms (/proc/stat)
  sysinfo::PKG_TEMP_MC                           Package temperature in millidegrees C

--- events NOT available on every core type ---
  MEM_BOUND_STALLS         only on: adl_grt
  TOPDOWN                  only on: adl_glc

39 native events total
)GOLDEN");
}

TEST(GoldenReports, NativeAvailOrangePi) {
  Instance instance(cpumodel::orangepi800_rk3399());
  EXPECT_EQ(instance.native_avail("orangepi800_rk3399"),
            R"GOLDEN(Native events on orangepi800_rk3399

--- PMU arm_a53 (armv8_pmuv3_0, perf type 9) [core] ---
  arm_a53::INST_RETIRED                          Architecturally executed instructions
  arm_a53::CPU_CYCLES                            Processor cycles
  arm_a53::LL_CACHE                              Last-level cache accesses
  arm_a53::LL_CACHE_MISS                         Last-level cache misses
  arm_a53::BR_RETIRED                            Architecturally executed branches
  arm_a53::BR_MIS_PRED_RETIRED                   Mispredicted branches
  arm_a53::STALL_BACKEND                         Cycles with no dispatch due to backend
  arm_a53::VFP_SPEC                              Speculatively executed FP operations

--- PMU arm_a72 (armv8_pmuv3_1, perf type 8) [core] ---
  arm_a72::INST_RETIRED                          Architecturally executed instructions
  arm_a72::CPU_CYCLES                            Processor cycles
  arm_a72::LL_CACHE                              Last-level cache accesses
  arm_a72::LL_CACHE_MISS                         Last-level cache misses
  arm_a72::BR_RETIRED                            Architecturally executed branches
  arm_a72::BR_MIS_PRED_RETIRED                   Mispredicted branches
  arm_a72::STALL_BACKEND                         Cycles with no dispatch due to backend
  arm_a72::VFP_SPEC                              Speculatively executed FP operations

--- PMU perf (software, perf type 1) ---
  perf::CONTEXT_SWITCHES                         Context switches
  perf::CPU_MIGRATIONS                           CPU migrations
  perf::TASK_CLOCK                               Task clock (ns)

--- PMU sysinfo ((software), perf type 4294901760) ---
  sysinfo::SYS_CTX_SWITCHES                      System-wide context switches (/proc/stat)
  sysinfo::SYS_CPU_TIME_MS                       Aggregate busy cpu time in ms (/proc/stat)
  sysinfo::PKG_TEMP_MC                           Package temperature in millidegrees C

--- events NOT available on every core type ---
  (none)

22 native events total
)GOLDEN");
}

}  // namespace
}  // namespace hetpapi
