// SimKernel time semantics, memory-bandwidth contention, and the folded
// uncore path (§V-3: uncore events in ordinary mixed EventSets).
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
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

TEST(Kernel, RunForAdvancesExactWholeTicks) {
  SimKernel::Config config;
  config.tick = std::chrono::microseconds(500);
  SimKernel kernel(cpumodel::homogeneous_xeon(1), config);
  kernel.run_for(std::chrono::milliseconds(3));
  EXPECT_EQ(kernel.now().since_epoch, std::chrono::milliseconds(3));
  // A non-multiple duration rounds up to whole ticks.
  kernel.run_for(std::chrono::microseconds(750));
  EXPECT_EQ(kernel.now().since_epoch, std::chrono::microseconds(4000));
}

TEST(Kernel, EveryPresetConstructs) {
  for (const std::string& name : cpumodel::machine_preset_names()) {
    SCOPED_TRACE(name);
    auto machine = cpumodel::machine_preset_by_name(name);
    ASSERT_TRUE(machine.has_value());
    SimKernel kernel(*machine, SimKernel::Config{});
    EXPECT_EQ(kernel.machine().num_cpus(), machine->num_cpus());
  }
}

TEST(KernelDeathTest, InvalidMachineStopsBeforeItRuns) {
  // A negative cluster id would index the governor's per-cluster state
  // out of bounds; the kernel refuses the spec before building it.
  cpumodel::MachineSpec machine = cpumodel::homogeneous_xeon(2);
  machine.cpus[1].cluster_id = -1;
  EXPECT_DEATH(SimKernel(machine, SimKernel::Config{}),
               "invalid machine spec: .*cpu cluster id out of range");
}

TEST(Kernel, RunUntilIdleReturnsElapsedAndStopsAtDeadline) {
  SimKernel kernel(cpumodel::homogeneous_xeon(1));
  PhaseSpec phase;
  kernel.spawn(std::make_shared<FixedWorkProgram>(
                   phase, 1'000'000'000'000ULL),  // will not finish
               CpuSet::of({0}));
  const SimDuration elapsed =
      kernel.run_until_idle(std::chrono::milliseconds(50));
  EXPECT_EQ(elapsed, std::chrono::milliseconds(50)) << "deadline respected";
  EXPECT_TRUE(kernel.any_thread_alive());
}

TEST(Kernel, SpawnCountsAndGroundTruthLookup) {
  SimKernel kernel(cpumodel::homogeneous_xeon(2));
  EXPECT_EQ(kernel.spawned_count(), 0);
  PhaseSpec phase;
  const Tid a = kernel.spawn(std::make_shared<FixedWorkProgram>(phase, 100));
  const Tid b = kernel.spawn(std::make_shared<FixedWorkProgram>(phase, 100));
  EXPECT_EQ(kernel.spawned_count(), 2);
  EXPECT_NE(a, b);
  EXPECT_NE(kernel.ground_truth(a), nullptr);
  EXPECT_EQ(kernel.ground_truth(99), nullptr);
}

TEST(Kernel, MemoryContentionSlowsCoRunners) {
  // One memory-bound thread alone vs. eight together: bandwidth
  // saturation must inflate the per-thread runtime.
  const auto run_n = [](int n_threads) {
    SimKernel kernel(cpumodel::raptor_lake_i7_13700());
    PhaseSpec hog = workload::phases::memory_bound();
    // A prefetch-friendly stream: misses mostly overlapped, so each
    // thread actually moves ~12 GB/s and eight of them oversubscribe
    // the 68 GB/s budget.
    hog.llc_refs_per_kinstr = 300.0;
    hog.llc_miss_ratio = 1.0;
    hog.mlp_overlap_override = 0.95;
    std::vector<Tid> tids;
    for (int i = 0; i < n_threads; ++i) {
      tids.push_back(kernel.spawn(
          std::make_shared<FixedWorkProgram>(hog, 100'000'000),
          CpuSet::of({2 * i})));
    }
    kernel.run_until_idle(std::chrono::seconds(120));
    return std::chrono::duration<double>(
               kernel.ground_truth(tids[0])->total_cpu_time)
        .count();
  };
  const double alone = run_n(1);
  const double crowded = run_n(8);
  EXPECT_GT(crowded, alone * 1.2)
      << "8 streams over a 68 GB/s budget must contend";
}

TEST(Kernel, FoldedUncoreJoinsMixedEventSetAndDropsGlobalExclusivity) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  phase.llc_refs_per_kinstr = 10.0;
  phase.llc_miss_ratio = 0.5;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 2'000'000'000ULL),
      CpuSet::of({0}));
  backend.set_default_target(tid);

  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value());

  // §V-3, completed: IMC events share an EventSet with a derived preset
  // — one mixed set where the legacy world forced two components.
  auto mixed = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*mixed, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(
      (*lib)->add_event(*mixed, "unc_imc_0::UNC_M_CAS_COUNT:RD").is_ok())
      << "uncore events fold into ordinary EventSets";

  // The retired component's package-global exclusivity went with it: a
  // second thread's EventSet may watch the IMC concurrently, as perf
  // itself allows for uncore counters.
  const Tid other = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000'000ULL),
      CpuSet::of({2}));
  auto second = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->attach(*second, other).is_ok());
  ASSERT_TRUE(
      (*lib)->add_event(*second, "unc_imc_0::UNC_M_CAS_COUNT:WR").is_ok());

  ASSERT_TRUE((*lib)->start(*mixed).is_ok());
  ASSERT_TRUE((*lib)->start(*second).is_ok());
  kernel.run_for(std::chrono::seconds(1));
  auto mixed_values = (*lib)->stop(*mixed);
  ASSERT_TRUE(mixed_values.has_value());
  EXPECT_GT((*mixed_values)[0], 0) << "instructions retired";
  EXPECT_GT((*mixed_values)[1], 0) << "IMC reads observed";
  ASSERT_TRUE((*lib)->stop(*second).has_value());
}

TEST(Kernel, RdpmcConfigFallsBackOnGroupReads) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  LibraryConfig config;
  config.use_rdpmc = true;
  config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, config);
  auto set = (*lib)->create_eventset();
  // Multi-member group: rdpmc cannot serve it, the syscall path must.
  ASSERT_TRUE((*lib)->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(
      (*lib)->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  // Plus an E-core singleton that rdpmc CAN serve while resident.
  ASSERT_TRUE((*lib)->add_event(*set, "adl_grt::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ((*values)[0], 50'000'000);
  EXPECT_GT((*values)[1], 0);
  EXPECT_EQ((*values)[2], 0) << "pinned to a P core: E event reads zero";
}

}  // namespace
}  // namespace hetpapi
