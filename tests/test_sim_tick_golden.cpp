// Whole-tick goldens: three seeded runs whose complete observable state
// — per-thread ground truth, migrations and context switches, RAPL
// energy bits, final per-cpu frequencies and raw sample-ring bytes — is
// folded into one FNV-1a hash each and pinned. Any change to the
// simulator's tick that alters an RNG draw, its order, or the rounding
// of one floating-point operation changes a hash, so optimizations of
// the governor, scheduler and perf attribution must keep them.
#include <gtest/gtest.h>

#include <cstring>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/hpl.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void hash_counts(Fnv& h, const simkernel::ExecCounts& c) {
  for (std::uint64_t v :
       {c.instructions, c.cycles, c.ref_cycles, c.llc_references,
        c.llc_misses, c.branches, c.branch_misses, c.stalled_cycles,
        c.flops_dp}) {
    h.u64(v);
  }
}

/// Everything a tick leaves behind that a caller can observe.
std::uint64_t hash_kernel(const SimKernel& kernel, int max_fd) {
  Fnv h;
  h.u64(static_cast<std::uint64_t>(kernel.now().since_epoch.count()));
  for (Tid tid = 0; tid < kernel.spawned_count(); ++tid) {
    const simkernel::ThreadGroundTruth* truth = kernel.ground_truth(tid);
    if (truth == nullptr) continue;
    for (const simkernel::ExecCounts& c : truth->per_type) hash_counts(h, c);
    for (SimDuration t : truth->time_per_type) {
      h.u64(static_cast<std::uint64_t>(t.count()));
    }
    h.u64(truth->context_switches);
    h.u64(truth->migrations);
    h.u64(static_cast<std::uint64_t>(truth->total_cpu_time.count()));
  }
  const cpumodel::PackageGovernor& gov = kernel.governor();
  h.f64(gov.rapl().total_energy().value);
  h.f64(gov.rapl().long_window_average().value);
  h.f64(gov.rapl().short_window_average().value);
  h.f64(gov.package_power().value);
  h.f64(gov.package_temperature().value);
  for (int cpu = 0; cpu < kernel.machine().num_cpus(); ++cpu) {
    h.f64(gov.frequency(cpu).value);
  }
  for (std::size_t c = 0; c < kernel.machine().cluster_thermal.size(); ++c) {
    h.f64(gov.cluster_temperature(static_cast<int>(c)).value);
  }
  const simkernel::PackageCounters pkg = kernel.package_counters();
  for (std::uint64_t v : {pkg.energy_pkg_uj, pkg.energy_cores_uj,
                          pkg.energy_dram_uj, pkg.imc_cas_reads,
                          pkg.imc_cas_writes}) {
    h.u64(v);
  }
  // Every open event's value and times, and every sample ring's bytes.
  auto& mutable_kernel = const_cast<SimKernel&>(kernel);
  for (int fd = 0; fd < max_fd; ++fd) {
    const auto value = kernel.perf_read(fd);
    if (!value.has_value()) continue;
    h.u64(static_cast<std::uint64_t>(fd));
    h.u64(value->value);
    h.u64(value->time_enabled_ns);
    h.u64(value->time_running_ns);
    const auto ring = mutable_kernel.perf_mmap_ring(fd);
    if (!ring.has_value()) continue;
    h.u64(ring->page->data_head);
    h.u64(ring->page->data_tail);
    h.bytes(ring->data, ring->size);
  }
  return h.value();
}

SimKernel::Config hpl_config(std::uint64_t seed) {
  SimKernel::Config config;
  config.tick = std::chrono::milliseconds(1);
  config.seed = seed;
  return config;
}

/// Ticks whose package power sits on the RAPL budget the governor saw:
/// the limited branch ran its level search on them.
struct TickStats {
  int limited = 0;
  int throttled = 0;
};

TickStats run_ticks(SimKernel& kernel, int ticks) {
  TickStats stats;
  const auto& gov = kernel.governor();
  for (int i = 0; i < ticks; ++i) {
    const double budget = gov.rapl().allowed_power().value;
    kernel.run_for(std::chrono::milliseconds(1));
    if (gov.package_power().value > 0.999 * budget) ++stats.limited;
    for (std::size_t c = 0; c < kernel.machine().cluster_thermal.size();
         ++c) {
      if (gov.cluster_throttling(static_cast<int>(c))) {
        ++stats.throttled;
        break;
      }
    }
  }
  return stats;
}

// A power-limited HPL run on Raptor Lake: every P-core thread and E-core
// busy, the long RAPL window warming past PL1 so most ticks run the
// limited governor search.
TEST(SimTickGolden, PowerLimitedHplRaptorLake) {
  cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();
  // A tighter envelope than the part's 65/219 W makes the limited path
  // the common case within a short run.
  machine.rapl.pl1 = Watts{45.0};
  machine.rapl.pl2 = Watts{90.0};
  SimKernel kernel(machine, hpl_config(7));
  std::vector<int> cpus = machine.primary_threads_of_type(0);
  const auto e = machine.cpus_of_type(1);
  cpus.insert(cpus.end(), e.begin(), e.end());
  workload::HplSimulation hpl(workload::HplConfig::openblas(13824, 192),
                              static_cast<int>(cpus.size()));
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    kernel.spawn(hpl.make_worker(static_cast<int>(i)),
                 CpuSet::of({cpus[i]}));
  }
  const TickStats stats = run_ticks(kernel, 3000);
  EXPECT_GT(stats.limited, 1000) << "the run must exercise the limited path";
  EXPECT_EQ(hash_kernel(kernel, 64), 0x5fe8d4a4a6fa7e2bULL);
}

// OrangePi: HPL on all six cores heats the big cluster past its trip
// point, so the per-cluster thermal caps oscillate under the governor.
TEST(SimTickGolden, OrangePiClusterThrottling) {
  const cpumodel::MachineSpec machine = cpumodel::orangepi800_rk3399();
  SimKernel kernel(machine, hpl_config(11));
  workload::HplSimulation hpl(workload::HplConfig::openblas(13312, 128), 6);
  for (int i = 0; i < 6; ++i) {
    kernel.spawn(hpl.make_worker(i), CpuSet::of({i}));
  }
  const TickStats stats = run_ticks(kernel, 30'000);
  EXPECT_GT(stats.throttled, 100) << "the big cluster must throttle";
  EXPECT_EQ(hash_kernel(kernel, 64), 0x86493b66f1cb82a6ULL);
}

// Meteor Lake with more runnable threads than cpus, a multiplexed
// EventSet armed for overflow sampling on one worker, an inherit-mode
// event on a process group and a cpu-scoped event: the scheduler's
// time-sharing, multiplex rotation, sample-ring writes and every perf
// attribution index run on each tick.
TEST(SimTickGolden, MeteorLakeOversubscribedMultiplexedSampling) {
  const cpumodel::MachineSpec machine = cpumodel::meteor_lake_like();
  SimKernel::Config config;
  config.seed = 19;
  config.sched.migration_rate_hz = 20.0;
  SimKernel kernel(machine, config);
  const int threads = machine.num_cpus() + 6;
  std::vector<Tid> tids;
  workload::PhaseSpec phase;
  tids.push_back(kernel.spawn(std::make_shared<workload::FixedWorkProgram>(
      phase, std::uint64_t{4'000'000'000})));
  for (int i = 1; i < threads; ++i) {
    phase.ipc_fraction = 0.5 + 0.02 * i;
    phase.llc_refs_per_kinstr = 2.0 * (i % 4);
    phase.llc_miss_ratio = 0.3;
    phase.activity = 0.4 + 0.03 * (i % 10);
    auto program = std::make_shared<workload::FixedWorkProgram>(
        phase, std::uint64_t{400'000'000} * static_cast<std::uint64_t>(i));
    if (i % 3 == 0) {
      const auto child = kernel.spawn_in_group(
          std::move(program), CpuSet::all(machine.num_cpus()), tids[0]);
      ASSERT_TRUE(child.has_value());
      tids.push_back(*child);
    } else {
      tids.push_back(kernel.spawn(std::move(program)));
    }
  }

  papi::SimBackend backend(&kernel);
  auto lib = papi::Library::init(&backend);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->attach(*set, tids[1]).is_ok());
  ASSERT_TRUE((*lib)->set_multiplex(*set).is_ok());
  int added = 0;
  for (const char* event :
       {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS", "PAPI_BR_MSP",
        "PAPI_L3_TCM", "PAPI_L3_TCA", "PAPI_REF_CYC", "PAPI_RES_STL"}) {
    if ((*lib)->add_event(*set, event).is_ok()) ++added;
  }
  ASSERT_GE(added, 6);
  ASSERT_TRUE((*lib)->set_overflow(*set, 0, 1'000'003, nullptr).is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());

  // An inherit-mode counter on the group leader and a cpu-scoped one.
  const simkernel::PmuDesc* core0 = kernel.pmus().core_pmu_for_cpu(0);
  ASSERT_NE(core0, nullptr);
  simkernel::PerfEventAttr attr;
  attr.type = core0->type_id;
  attr.config = static_cast<std::uint64_t>(simkernel::CountKind::kInstructions);
  attr.inherit = true;
  ASSERT_TRUE(kernel.perf_event_open(attr, tids[0], -1, -1).has_value());
  attr.inherit = false;
  ASSERT_TRUE(kernel.perf_event_open(attr, -1, 0, -1).has_value());
  // More branch counters than any core PMU has on a second worker, the
  // last one pinned: its contexts must rotate, the pinned group ahead.
  attr.config = static_cast<std::uint64_t>(simkernel::CountKind::kBranches);
  for (const simkernel::PmuDesc* pmu : kernel.pmus().core_pmus()) {
    attr.type = pmu->type_id;
    for (int i = 0; i <= pmu->num_gp_counters; ++i) {
      attr.pinned = i == pmu->num_gp_counters;
      ASSERT_TRUE(kernel.perf_event_open(attr, tids[2], -1, -1).has_value());
    }
  }

  kernel.run_for(std::chrono::milliseconds(1500));
  ASSERT_GT(kernel.perf().multiplexing_contexts(), 0);
  EXPECT_EQ(hash_kernel(kernel, 128), 0x40bf32e89e736b49ULL);
}

}  // namespace
}  // namespace hetpapi
