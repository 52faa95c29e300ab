// Failure injection: resource exhaustion and corrupt introspection data.
// The library must fail with precise errors and stay consistent — no
// leaked kernel events, no half-added EventSets, no detection crashes on
// garbage sysfs contents.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/detect.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "pfm/sim_host.hpp"
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

/// Host that rewrites the contents of chosen paths (corruption, not
/// absence).
class CorruptingHost final : public pfm::Host {
 public:
  explicit CorruptingHost(const pfm::Host* inner) : inner_(inner) {}
  std::map<std::string, std::string> overrides;

  Expected<std::string> read_file(std::string_view path) const override {
    for (const auto& [fragment, replacement] : overrides) {
      if (path.find(fragment) != std::string_view::npos) return replacement;
    }
    return inner_->read_file(path);
  }
  Expected<std::vector<std::string>> list_dir(
      std::string_view path) const override {
    return inner_->list_dir(path);
  }
  Expected<cpumodel::IntelCoreKind> cpuid_core_kind(int cpu) const override {
    return inner_->cpuid_core_kind(cpu);
  }
  int num_cpus() const override { return inner_->num_cpus(); }

 private:
  const pfm::Host* inner_;
};

TEST(FailureInjection, FdExhaustionSurfacesAsNoMemoryAndRollsBack) {
  SimKernel::Config config;
  config.perf.max_open_fds = 3;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 100'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, lib_config);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();

  // Two P-core events fit (leader + sibling = 2 fds)...
  ASSERT_TRUE((*lib)->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(
      (*lib)->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  // ...a derived preset then needs two more fds and must fail cleanly.
  const Status fail = (*lib)->add_event(*set, "PAPI_BR_INS");
  ASSERT_FALSE(fail.is_ok());
  EXPECT_EQ(fail.code(), StatusCode::kNoMemory);

  // The set is still usable with its surviving events.
  auto info = (*lib)->eventset_info(*set);
  ASSERT_EQ(info->size(), 2u);
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ((*values)[0], 100'000'000);
}

TEST(FailureInjection, NoKernelEventLeaksAfterFailedAdds) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  auto lib = Library::init(&backend);
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  const std::size_t baseline = kernel.perf().open_event_count();
  // Failed adds of every flavour must not change the open-event count.
  EXPECT_FALSE((*lib)->add_event(*set, "adl_glc::NO_SUCH").is_ok());
  EXPECT_FALSE((*lib)->add_event(*set, "nope::EVENT").is_ok());
  EXPECT_FALSE((*lib)->add_event(*set, "adl_grt::TOPDOWN:SLOTS").is_ok());
  EXPECT_EQ(kernel.perf().open_event_count(), baseline);
  ASSERT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  EXPECT_EQ(kernel.perf().open_event_count(), 0u);
}

TEST(FailureInjection, EventSetCapacityIsEnforced) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  auto lib = Library::init(&backend);
  auto set = (*lib)->create_eventset();
  // 64-slot static array; each preset consumes two (P + E).
  Status last = Status::ok();
  int added = 0;
  for (int i = 0; i < 40 && last.is_ok(); ++i) {
    last = (*lib)->add_event(*set, "PAPI_TOT_INS");
    if (last.is_ok()) ++added;
  }
  EXPECT_EQ(added, 32) << "64 native slots / 2 per derived preset";
  EXPECT_EQ(last.code(), StatusCode::kNoMemory);
}

TEST(FailureInjection, GarbageCpuCapacityFallsThroughTheLadder) {
  SimKernel kernel(cpumodel::orangepi800_rk3399());
  pfm::SimHost inner(&kernel);
  CorruptingHost host(&inner);
  host.overrides["cpu_capacity"] = "banana\n";
  const papi::DetectionResult result = papi::detect_core_types(host);
  // cpu_capacity is unparseable -> strategy reports nothing -> the PMU
  // cpus files still identify both clusters.
  EXPECT_EQ(result.method, papi::DetectionMethod::kPmuCpusFiles);
  EXPECT_EQ(result.core_types.size(), 2u);
}

TEST(FailureInjection, GarbagePmuTypeFileIsSkippedByTheScan) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost inner(&kernel);
  CorruptingHost host(&inner);
  host.overrides["cpu_atom/type"] = "not-a-number\n";
  pfm::PfmLibrary lib;
  ASSERT_TRUE(lib.initialize(host).is_ok())
      << "one broken PMU must not abort the scan";
  EXPECT_NE(lib.find_pmu("adl_glc"), nullptr);
  EXPECT_EQ(lib.find_pmu("adl_grt"), nullptr)
      << "the PMU with the corrupt type file is skipped";
}

TEST(FailureInjection, GarbageMidrLeavesArmPmuUnbound) {
  SimKernel kernel(cpumodel::orangepi800_rk3399());
  pfm::SimHost inner(&kernel);
  CorruptingHost host(&inner);
  host.overrides["cpu4/regs/identification/midr_el1"] = "0xdeadbeef\n";
  pfm::PfmLibrary lib;
  ASSERT_TRUE(lib.initialize(host).is_ok());
  EXPECT_NE(lib.find_pmu("arm_a53"), nullptr);
  EXPECT_EQ(lib.find_pmu("arm_a72"), nullptr)
      << "unknown part number: no table binds";
}

TEST(FailureInjection, LibraryInitFailsWhenSysfsIsGone) {
  // A host where /sys/devices cannot be listed at all.
  class DeadHost final : public pfm::Host {
   public:
    Expected<std::string> read_file(std::string_view) const override {
      return make_error(StatusCode::kNotFound, "dead");
    }
    Expected<std::vector<std::string>> list_dir(
        std::string_view) const override {
      return make_error(StatusCode::kNotFound, "dead");
    }
    Expected<cpumodel::IntelCoreKind> cpuid_core_kind(int) const override {
      return make_error(StatusCode::kNotSupported, "dead");
    }
    int num_cpus() const override { return 4; }
  };

  class DeadBackend final : public papi::Backend {
   public:
    Expected<int> perf_event_open(const papi::PerfEventAttr&, papi::Tid, int,
                                  int, std::uint64_t) override {
      return make_error(StatusCode::kSystem, "dead");
    }
    Status perf_ioctl(int, papi::PerfIoctl, std::uint32_t) override {
      return make_error(StatusCode::kSystem, "dead");
    }
    Status perf_read_group_into(int,
                                std::vector<papi::PerfValue>&) override {
      return make_error(StatusCode::kSystem, "dead");
    }
    Status perf_close(int) override {
      return make_error(StatusCode::kSystem, "dead");
    }
    const pfm::Host& host() const override { return host_; }
    papi::Tid default_target() const override { return 0; }

   private:
    DeadHost host_;
  };

  DeadBackend backend;
  auto lib = Library::init(&backend);
  ASSERT_FALSE(lib.has_value());
  EXPECT_EQ(lib.status().code(), StatusCode::kComponent);
}

}  // namespace
}  // namespace hetpapi
