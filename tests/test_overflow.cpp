// Sampling / overflow support (PAPI_overflow equivalent): period
// arithmetic at the kernel layer, delivery through the library's ring
// drain, and the hybrid twist — a derived preset samples on every core
// PMU and reports which one fired.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "ring_drain.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;
using papi::SimBackend;
using simkernel::CountKind;
using simkernel::CpuSet;
using simkernel::PerfEventAttr;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

PerfEventAttr sampling_attr(std::uint32_t type, CountKind kind,
                            std::uint64_t period) {
  PerfEventAttr attr;
  attr.type = type;
  attr.config = static_cast<std::uint64_t>(kind);
  attr.sample_period = period;
  return attr;
}

TEST(PerfOverflow, FiresOncePerPeriod) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 10'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(
      sampling_attr(pmu->type_id, CountKind::kInstructions, 1'000'000), tid,
      -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));
  EXPECT_EQ(*kernel.perf_overflow_count(*fd), 10u)
      << "10M instructions / 1M period";

  // Each crossing is one SAMPLE record in the mmap ring.
  const testing_support::RingDrain drained =
      testing_support::drain_ring(kernel, *fd);
  EXPECT_EQ(drained.samples.size(), 10u);
  EXPECT_EQ(drained.lost, 0u);
  for (const auto& sample : drained.samples) {
    EXPECT_EQ(kernel.machine().cpus[sample.cpu].type, 0);  // P core
  }
}

TEST(PerfOverflow, ResetRearmsThePeriod) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 100'000'000'000ULL),
      CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(
      sampling_attr(pmu->type_id, CountKind::kInstructions, 5'000'000), tid,
      -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_for(std::chrono::milliseconds(5));
  const std::uint64_t before = *kernel.perf_overflow_count(*fd);
  EXPECT_GT(before, 0u);
  ASSERT_TRUE(kernel.perf_ioctl(*fd, simkernel::PerfIoctl::kReset).is_ok());
  kernel.run_for(std::chrono::milliseconds(5));
  // Overflows keep accumulating at roughly the same rate after reset
  // (the count restarts at zero but the period is re-armed).
  const std::uint64_t after = *kernel.perf_overflow_count(*fd);
  EXPECT_GT(after, before);
}

TEST(PapiOverflow, DerivedPresetSamplesOnBothPmusAndNamesTheSource) {
  SimKernel::Config config;
  config.sched.migration_rate_hz = 100.0;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 2'000'000'000ULL),
      CpuSet::all(kernel.machine().num_cpus()));
  backend.set_default_target(tid);

  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());

  std::uint64_t p_samples = 0;
  std::uint64_t e_samples = 0;
  ASSERT_TRUE((*lib)
                  ->set_overflow(*set, 0, 10'000'000,
                                 [&](const papi::Sample& sample) {
                                   EXPECT_EQ(sample.user_event_index, 0);
                                   if (sample.native_name ==
                                       "adl_glc::INST_RETIRED:ANY") {
                                     ++p_samples;
                                   } else if (sample.native_name ==
                                              "adl_grt::INST_RETIRED:ANY") {
                                     ++e_samples;
                                   } else {
                                     ADD_FAILURE() << sample.native_name;
                                   }
                                 })
                  .is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(60));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(p_samples + e_samples, 0u) << "callbacks fire from the drain";
  auto batch = (*lib)->read_samples(*set);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(p_samples + e_samples, batch->samples.size());

  EXPECT_GT(p_samples, 0u) << "samples attributed to the P-core event";
  EXPECT_GT(e_samples, 0u) << "samples attributed to the E-core event";
  // Sample count ~ total instructions / threshold.
  const auto expected =
      static_cast<std::uint64_t>((*values)[0]) / 10'000'000;
  EXPECT_NEAR(static_cast<double>(p_samples + e_samples),
              static_cast<double>(expected), 3.0);
}

TEST(PapiOverflow, ErrorsAreReported) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000'000ULL),
      CpuSet::of({0}));
  backend.set_default_target(tid);
  auto lib = Library::init(&backend);
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());

  EXPECT_EQ((*lib)->set_overflow(99, 0, 1000, nullptr).code(),
            StatusCode::kNoEventSet);
  EXPECT_EQ((*lib)->set_overflow(*set, 5, 1000, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*lib)->set_overflow(*set, 0, 0, nullptr).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  EXPECT_EQ((*lib)->set_overflow(*set, 0, 1000, nullptr).code(),
            StatusCode::kAlreadyRunning);
}

TEST(PapiOverflow, CountingEventsInSameSetAreUnaffected) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  auto lib = Library::init(&backend);
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  int samples = 0;
  ASSERT_TRUE((*lib)
                  ->set_overflow(*set, 0, 10'000'000,
                                 [&](const papi::Sample&) { ++samples; })
                  .is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  ASSERT_TRUE((*lib)->read_samples(*set).has_value());
  EXPECT_GE((*values)[0], 50'000'000);  // sampling event still counts
  EXPECT_GT((*values)[1], 0);           // sibling unaffected
  EXPECT_EQ(samples, 5);
}

}  // namespace
}  // namespace hetpapi
