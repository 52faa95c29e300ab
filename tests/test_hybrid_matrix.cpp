// §V-4: "ideally we will cover all the tests the current [suite] does,
// but on all combinations of P and E-cores. This increases the surface
// area and will be a lot of work." — this file is that matrix, made
// cheap by parameterized tests: every preset × every pinning flavour ×
// both hybrid machines, checking the conservation invariant the §IV-F
// validation establishes (derived counts == ground truth, split
// correctly per core type).
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;
using papi::SimBackend;
using simkernel::CountKind;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

enum class Pinning {
  kBigOnly,
  kLittleOnly,
  kOneOfEach,  // affinity to one big + one little cpu
  kFree,
};

std::string to_string(Pinning pinning) {
  switch (pinning) {
    case Pinning::kBigOnly: return "BigOnly";
    case Pinning::kLittleOnly: return "LittleOnly";
    case Pinning::kOneOfEach: return "OneOfEach";
    case Pinning::kFree: return "Free";
  }
  return "?";
}

struct MatrixCase {
  std::string machine_name;  // "raptorlake" | "orangepi"
  std::string preset;
  CountKind kind;
  Pinning pinning;
};

// Print the case, not its bytes: ctest puts the printed parameter in the
// test name, and the strings' heap pointers change from run to run.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << c.machine_name << ' ' << c.preset << ' ' << to_string(c.pinning);
}

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = info.param.machine_name + "_" + info.param.preset + "_" +
                     to_string(info.param.pinning);
  for (char& c : name) {
    if (c == ':' || c == '-') c = '_';
  }
  return name;
}

/// Scope guard: when it runs (after the test's Library is destroyed),
/// zero perf events may still be open in the simulated kernel.
struct FdLeakGuard {
  explicit FdLeakGuard(const SimBackend* b) : guarded(b) {}
  ~FdLeakGuard() {
    EXPECT_EQ(guarded->open_fd_count(), 0u) << "leaked perf fds at teardown";
  }
  const SimBackend* guarded;
};

class HybridMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(HybridMatrixTest, DerivedPresetMatchesGroundTruthPerCoreType) {
  const MatrixCase& param = GetParam();
  const cpumodel::MachineSpec machine = param.machine_name == "orangepi"
                                            ? cpumodel::orangepi800_rk3399()
                                            : cpumodel::raptor_lake_i7_13700();
  SimKernel::Config config;
  config.sched.migration_rate_hz = 60.0;
  SimKernel kernel(machine, config);
  SimBackend backend(&kernel);
  FdLeakGuard leak_guard(&backend);

  // Pick the pinning cpus: type 0 is the big class on both machines.
  const std::vector<int> big = machine.cpus_of_type(0);
  const std::vector<int> little = machine.cpus_of_type(1);
  CpuSet affinity;
  switch (param.pinning) {
    case Pinning::kBigOnly: affinity = CpuSet::of({big.front()}); break;
    case Pinning::kLittleOnly:
      affinity = CpuSet::of({little.front()});
      break;
    case Pinning::kOneOfEach:
      affinity = CpuSet::of({big.front(), little.front()});
      break;
    case Pinning::kFree:
      affinity = CpuSet::all(machine.num_cpus());
      break;
  }

  PhaseSpec phase;
  phase.flops_per_instr = 1.0;
  phase.llc_refs_per_kinstr = 8.0;
  phase.llc_miss_ratio = 0.3;
  phase.branches_per_kinstr = 80.0;
  phase.branch_miss_ratio = 0.02;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 300'000'000), affinity);
  backend.set_default_target(tid);

  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;  // exact conservation check
  auto lib = Library::init(&backend, lib_config);
  ASSERT_TRUE(lib.has_value()) << lib.status().to_string();
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  const Status added = (*lib)->add_event(*set, param.preset);
  ASSERT_TRUE(added.is_ok()) << added.to_string();

  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(120));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value()) << values.status().to_string();

  const auto* truth = kernel.ground_truth(tid);
  ASSERT_NE(truth, nullptr);
  std::uint64_t expected = 0;
  std::uint64_t big_part = 0;
  for (std::size_t t = 0; t < truth->per_type.size(); ++t) {
    expected += truth->per_type[t].get(param.kind);
    if (t == 0) big_part = truth->per_type[t].get(param.kind);
  }
  EXPECT_EQ(static_cast<std::uint64_t>((*values)[0]), expected)
      << "derived sum must equal ground truth exactly";

  // Pinning semantics: work lands only where the mask allows.
  switch (param.pinning) {
    case Pinning::kBigOnly:
      EXPECT_EQ(big_part, expected);
      break;
    case Pinning::kLittleOnly:
      EXPECT_EQ(big_part, 0u);
      break;
    case Pinning::kOneOfEach:
    case Pinning::kFree:
      // No constraint: the scheduler may favour either side, the sum
      // above is the invariant.
      break;
  }
}

// --- qualified-read matrix ---------------------------------------------------
// Every cpumodel × event flavour: derived preset, explicitly qualified
// native, and a mixed set with a folded uncore event. Checks the §V-2
// qualified read invariants — the breakdown's signed sum reproduces the
// transparent total, every part carries the right core-type label, and
// each per-PMU part equals the per-type ground truth exactly.

enum class EventFlavor { kDerivedPreset, kQualifiedNative, kMixedUncore };

std::string to_string(EventFlavor flavor) {
  switch (flavor) {
    case EventFlavor::kDerivedPreset: return "DerivedPreset";
    case EventFlavor::kQualifiedNative: return "QualifiedNative";
    case EventFlavor::kMixedUncore: return "MixedUncore";
  }
  return "?";
}

cpumodel::MachineSpec machine_by_name(const std::string& name) {
  auto machine = cpumodel::machine_preset_by_name(name);
  return machine.has_value() ? *machine : cpumodel::raptor_lake_i7_13700();
}

struct QualifiedCase {
  std::string machine_name;  // any cpumodel::machine_preset_names() entry
  EventFlavor flavor;
};

void PrintTo(const QualifiedCase& c, std::ostream* os) {
  *os << c.machine_name << ' ' << to_string(c.flavor);
}

std::string qualified_case_name(
    const ::testing::TestParamInfo<QualifiedCase>& info) {
  return info.param.machine_name + "_" + to_string(info.param.flavor);
}

class QualifiedMatrixTest : public ::testing::TestWithParam<QualifiedCase> {};

TEST_P(QualifiedMatrixTest, BreakdownSumsToTotalAndMatchesGroundTruth) {
  const QualifiedCase& param = GetParam();
  const cpumodel::MachineSpec machine = machine_by_name(param.machine_name);
  SimKernel::Config config;
  config.sched.migration_rate_hz = 60.0;
  SimKernel kernel(machine, config);
  SimBackend backend(&kernel);
  FdLeakGuard leak_guard(&backend);

  PhaseSpec phase;
  phase.llc_refs_per_kinstr = 8.0;
  phase.llc_miss_ratio = 0.3;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 200'000'000),
      CpuSet::all(machine.num_cpus()));
  backend.set_default_target(tid);

  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;  // exact conservation check
  auto lib = Library::init(&backend, lib_config);
  ASSERT_TRUE(lib.has_value()) << lib.status().to_string();
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());

  const auto core_pmus = (*lib)->pfm().default_pmus();
  std::size_t expected_parts = 0;
  switch (param.flavor) {
    case EventFlavor::kDerivedPreset:
      ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
      expected_parts = core_pmus.size();
      break;
    case EventFlavor::kQualifiedNative: {
      const auto native = papi::native_for_kind(*core_pmus.front()->table,
                                                CountKind::kInstructions);
      ASSERT_TRUE(native.has_value());
      ASSERT_TRUE((*lib)
                      ->add_event(*set, core_pmus.front()->table->pfm_name +
                                            "::" + *native)
                      .is_ok());
      expected_parts = 1;
      break;
    }
    case EventFlavor::kMixedUncore:
      ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
      ASSERT_TRUE(
          (*lib)->add_event(*set, "unc_imc_0::UNC_M_CAS_COUNT:RD").is_ok());
      expected_parts = core_pmus.size();
      // Folded uncore: the mixed set holds one extra perf group served by
      // the same perf_event component, not a separate exclusive path.
      {
        const auto groups = (*lib)->eventset_group_count(*set);
        ASSERT_TRUE(groups.has_value());
        EXPECT_EQ(*groups, static_cast<int>(core_pmus.size()) + 1);
      }
      break;
  }

  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(120));
  auto values = (*lib)->read(*set);
  ASSERT_TRUE(values.has_value()) << values.status().to_string();
  auto readings = (*lib)->read_qualified(*set);
  ASSERT_TRUE(readings.has_value()) << readings.status().to_string();
  ASSERT_TRUE((*lib)->stop(*set).has_value());

  ASSERT_EQ(readings->size(), values->size());
  const papi::QualifiedReading& first = readings->front();
  EXPECT_EQ(first.total, (*values)[0])
      << "qualified total must equal the transparent read";
  ASSERT_EQ(first.parts.size(), expected_parts);
  long long signed_sum = 0;
  for (const papi::QualifiedValue& part : first.parts) {
    signed_sum += part.sign * part.value;
    EXPECT_EQ(part.core_type, (*lib)->core_type_for_pmu(part.pmu_name));
    if (machine.is_hybrid()) {
      EXPECT_FALSE(part.core_type.empty())
          << part.pmu_name << " must be attributed to a core type";
    }
  }
  EXPECT_EQ(signed_sum, first.total);

  // Each per-PMU part is exactly the per-type ground truth: the PMU's
  // first cpu identifies the machine core type it serves.
  const auto* truth = kernel.ground_truth(tid);
  ASSERT_NE(truth, nullptr);
  for (const papi::QualifiedValue& part : first.parts) {
    const pfm::ActivePmu* pmu = (*lib)->pfm().find_pmu(part.pmu_name);
    ASSERT_NE(pmu, nullptr);
    // An empty cpu list means "all cpus" — the traditional single-PMU
    // sysfs layout of homogeneous machines; cpu 0 stands in.
    const int first_cpu = pmu->cpus.empty() ? 0 : pmu->cpus.front();
    const auto type = static_cast<std::size_t>(
        machine.cpus[static_cast<std::size_t>(first_cpu)].type);
    ASSERT_LT(type, truth->per_type.size());
    EXPECT_EQ(static_cast<std::uint64_t>(part.value),
              truth->per_type[type].get(CountKind::kInstructions))
        << part.pmu_name << " part vs ground truth of core type " << type;
  }

  if (param.flavor == EventFlavor::kMixedUncore) {
    // The uncore slot reads alongside the derived preset and its single
    // constituent is unattributed to any core type.
    const papi::QualifiedReading& uncore = readings->back();
    ASSERT_EQ(uncore.parts.size(), 1u);
    EXPECT_EQ(uncore.parts[0].pmu_name, "unc_imc_0");
    EXPECT_TRUE(uncore.parts[0].core_type.empty());
    EXPECT_GT(uncore.total, 0) << "memory traffic must have been counted";
  }
}

std::vector<QualifiedCase> make_qualified_cases() {
  std::vector<QualifiedCase> cases;
  // Every machine preset, including the three-PMU hybrids (Meteor-Lake-
  // like P/E/LP-E and the DynamIQ big/mid/little triple).
  for (const char* machine : {"raptorlake", "orangepi", "xeon", "tritype",
                              "meteorlake", "dynamiq"}) {
    cases.push_back({machine, EventFlavor::kDerivedPreset});
    cases.push_back({machine, EventFlavor::kQualifiedNative});
    // The IMC uncore PMU rides along with RAPL on the Intel models only.
    if (machine_by_name(machine).rapl.present) {
      cases.push_back({machine, EventFlavor::kMixedUncore});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, QualifiedMatrixTest,
                         ::testing::ValuesIn(make_qualified_cases()),
                         qualified_case_name);

// papi_hybrid_100m-style validation: summing the derived preset's parts
// reproduces the plain single-PMU total — on a homogeneous model the
// derived path *is* the single-PMU path, and on the hybrid model pinned
// to one core type the foreign part reads zero.
TEST(QualifiedMatrixTest, HomogeneousDerivedSumEqualsSinglePmuTotal) {
  const cpumodel::MachineSpec machine = cpumodel::homogeneous_xeon();
  SimKernel kernel(machine);
  SimBackend backend(&kernel);
  FdLeakGuard leak_guard(&backend);
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 100'000'000),
      CpuSet::all(machine.num_cpus()));
  backend.set_default_target(tid);

  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, lib_config);
  ASSERT_TRUE(lib.has_value());

  // One set, two slots over the same thread: the preset (derived path)
  // and the explicitly qualified native (single-PMU path) count the same
  // run side by side.
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  const auto core_pmus = (*lib)->pfm().default_pmus();
  ASSERT_EQ(core_pmus.size(), 1u) << "homogeneous model has one core PMU";
  const auto native = papi::native_for_kind(*core_pmus.front()->table,
                                            CountKind::kInstructions);
  ASSERT_TRUE(native.has_value());
  ASSERT_TRUE((*lib)
                  ->add_event(*set, core_pmus.front()->table->pfm_name +
                                        "::" + *native)
                  .is_ok());

  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(120));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ((*values)[0], (*values)[1])
      << "derived sum and single-PMU total must agree on a homogeneous model";
}

TEST(QualifiedMatrixTest, PinnedHybridForeignPartReadsZero) {
  const cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();
  SimKernel kernel(machine);
  SimBackend backend(&kernel);
  FdLeakGuard leak_guard(&backend);
  const std::vector<int> big = machine.cpus_of_type(0);
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 100'000'000),
      CpuSet::of({big.front()}));
  backend.set_default_target(tid);

  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, lib_config);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(120));
  auto readings = (*lib)->read_qualified(*set);
  ASSERT_TRUE(readings.has_value());
  ASSERT_TRUE((*lib)->stop(*set).has_value());

  ASSERT_EQ(readings->size(), 1u);
  long long p_part = -1, e_part = -1;
  for (const papi::QualifiedValue& part : readings->front().parts) {
    if (part.core_type == "intel_core") p_part = part.value;
    if (part.core_type == "intel_atom") e_part = part.value;
  }
  EXPECT_EQ(p_part, readings->front().total)
      << "pinned to a P core, the P part carries the whole total";
  EXPECT_EQ(e_part, 0) << "the E part of a P-pinned run must be zero";
}

// Three-PMU generalization of the pinned test: on both tri-hybrid
// presets, pin to the *last* (smallest) core type and check that every
// foreign core PMU's part reads zero while the pinned type's part
// carries the whole total. On Meteor Lake that pins to the LP-E island,
// whose CPUID core-kind byte is identical to the E-cores' — only the
// PMU-refined detection tells the parts apart.
class TriHybridPinnedTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TriHybridPinnedTest, ForeignPartsReadZeroPinnedTypeCarriesTotal) {
  const cpumodel::MachineSpec machine = machine_by_name(GetParam());
  ASSERT_EQ(machine.core_types.size(), 3u);
  SimKernel kernel(machine);
  SimBackend backend(&kernel);
  FdLeakGuard leak_guard(&backend);
  const auto pinned_type =
      static_cast<cpumodel::CoreTypeId>(machine.core_types.size() - 1);
  const std::vector<int> pinned_cpus = machine.cpus_of_type(pinned_type);
  ASSERT_FALSE(pinned_cpus.empty());
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 100'000'000),
      CpuSet::of({pinned_cpus.front()}));
  backend.set_default_target(tid);

  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, lib_config);
  ASSERT_TRUE(lib.has_value()) << lib.status().to_string();
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(120));
  auto readings = (*lib)->read_qualified(*set);
  ASSERT_TRUE(readings.has_value());
  ASSERT_TRUE((*lib)->stop(*set).has_value());

  ASSERT_EQ(readings->size(), 1u);
  const papi::QualifiedReading& reading = readings->front();
  ASSERT_EQ(reading.parts.size(), 3u)
      << "the derived preset must expand to one part per core PMU";
  EXPECT_GT(reading.total, 0);
  for (const papi::QualifiedValue& part : reading.parts) {
    const pfm::ActivePmu* pmu = (*lib)->pfm().find_pmu(part.pmu_name);
    ASSERT_NE(pmu, nullptr);
    ASSERT_FALSE(pmu->cpus.empty());
    const auto type = machine.cpus[static_cast<std::size_t>(
                                       pmu->cpus.front())].type;
    if (type == pinned_type) {
      EXPECT_EQ(part.value, reading.total)
          << part.pmu_name << " serves the pinned type, must carry all";
    } else {
      EXPECT_EQ(part.value, 0)
          << part.pmu_name << " is foreign to the pinned type";
    }
    EXPECT_FALSE(part.core_type.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(BothTriHybrids, TriHybridPinnedTest,
                         ::testing::Values("meteorlake", "dynamiq"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

std::vector<MatrixCase> make_cases() {
  const std::pair<const char*, CountKind> presets[] = {
      {"PAPI_TOT_INS", CountKind::kInstructions},
      {"PAPI_TOT_CYC", CountKind::kCycles},
      {"PAPI_L3_TCA", CountKind::kLlcReferences},
      {"PAPI_L3_TCM", CountKind::kLlcMisses},
      {"PAPI_BR_INS", CountKind::kBranches},
      {"PAPI_BR_MSP", CountKind::kBranchMisses},
      {"PAPI_DP_OPS", CountKind::kFlopsDp},
  };
  const Pinning pinnings[] = {Pinning::kBigOnly, Pinning::kLittleOnly,
                              Pinning::kOneOfEach, Pinning::kFree};
  std::vector<MatrixCase> cases;
  for (const char* machine : {"raptorlake", "orangepi"}) {
    for (const auto& [preset, kind] : presets) {
      for (const Pinning pinning : pinnings) {
        cases.push_back(MatrixCase{machine, preset, kind, pinning});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, HybridMatrixTest,
                         ::testing::ValuesIn(make_cases()), case_name);

}  // namespace
}  // namespace hetpapi
