// Simulated perf_event subsystem: open/group/ioctl/read semantics,
// per-core-type counting, multiplexing, rdpmc — the kernel contract the
// paper's PAPI changes are written against.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/user_page_read.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using cpumodel::MachineSpec;
using simkernel::CountKind;
using simkernel::CpuSet;
using simkernel::PerfEventAttr;
using simkernel::PerfIoctl;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

PerfEventAttr attr_for(std::uint32_t type, CountKind kind,
                       bool disabled = false) {
  PerfEventAttr attr;
  attr.type = type;
  attr.config = static_cast<std::uint64_t>(kind);
  attr.disabled = disabled;
  return attr;
}

class PerfEventsTest : public ::testing::Test {
 protected:
  PerfEventsTest() : kernel_(cpumodel::raptor_lake_i7_13700()) {
    const auto* p = kernel_.pmus().find_by_name("cpu_core");
    const auto* e = kernel_.pmus().find_by_name("cpu_atom");
    EXPECT_NE(p, nullptr);
    EXPECT_NE(e, nullptr);
    p_type_ = p->type_id;
    e_type_ = e->type_id;
  }

  Tid spawn_work(std::uint64_t instructions, const CpuSet& affinity) {
    PhaseSpec phase;
    phase.llc_refs_per_kinstr = 5.0;
    phase.llc_miss_ratio = 0.3;
    return kernel_.spawn(
        std::make_shared<FixedWorkProgram>(phase, instructions), affinity);
  }

  SimKernel kernel_;
  std::uint32_t p_type_ = 0;
  std::uint32_t e_type_ = 0;
};

TEST_F(PerfEventsTest, OpenRejectsUnknownPmuType) {
  const Tid tid = spawn_work(1000, CpuSet::all(kernel_.machine().num_cpus()));
  auto fd = kernel_.perf_event_open(attr_for(999, CountKind::kInstructions),
                                    tid, -1, -1);
  ASSERT_FALSE(fd.has_value());
  EXPECT_EQ(fd.status().code(), StatusCode::kNotFound);
}

TEST_F(PerfEventsTest, OpenRejectsOutOfRangeConfig) {
  const Tid tid = spawn_work(1000, CpuSet::all(kernel_.machine().num_cpus()));
  PerfEventAttr attr;
  attr.type = p_type_;
  attr.config = 10000;
  auto fd = kernel_.perf_event_open(attr, tid, -1, -1);
  ASSERT_FALSE(fd.has_value());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfEventsTest, TopdownExistsOnlyOnPCorePmu) {
  const Tid tid = spawn_work(1000, CpuSet::all(kernel_.machine().num_cpus()));
  auto on_p = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kTopdownSlots), tid, -1, -1);
  EXPECT_TRUE(on_p.has_value());
  auto on_e = kernel_.perf_event_open(
      attr_for(e_type_, CountKind::kTopdownSlots), tid, -1, -1);
  ASSERT_FALSE(on_e.has_value());
  EXPECT_EQ(on_e.status().code(), StatusCode::kNotFound);
}

TEST_F(PerfEventsTest, GroupsCannotSpanPmus) {
  const Tid tid = spawn_work(1000, CpuSet::all(kernel_.machine().num_cpus()));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions, true), tid, -1, -1);
  ASSERT_TRUE(leader.has_value());
  auto sibling = kernel_.perf_event_open(
      attr_for(e_type_, CountKind::kInstructions), tid, -1, *leader);
  ASSERT_FALSE(sibling.has_value());
  EXPECT_EQ(sibling.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfEventsTest, SoftwareEventsMayJoinHardwareGroups) {
  const Tid tid = spawn_work(1000, CpuSet::all(kernel_.machine().num_cpus()));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions, true), tid, -1, -1);
  ASSERT_TRUE(leader.has_value());
  auto sw = kernel_.perf_event_open(
      attr_for(simkernel::kPerfTypeSoftware, CountKind::kContextSwitches),
      tid, -1, *leader);
  EXPECT_TRUE(sw.has_value());
}

TEST_F(PerfEventsTest, RaplEventsAreCpuScopedOnly) {
  const Tid tid = spawn_work(1000, CpuSet::all(kernel_.machine().num_cpus()));
  const auto* rapl = kernel_.pmus().find_by_name("power");
  ASSERT_NE(rapl, nullptr);
  auto task_bound = kernel_.perf_event_open(
      attr_for(rapl->type_id, CountKind::kEnergyPkgUj), tid, -1, -1);
  ASSERT_FALSE(task_bound.has_value());
  EXPECT_EQ(task_bound.status().code(), StatusCode::kInvalidArgument);

  auto cpu_bound = kernel_.perf_event_open(
      attr_for(rapl->type_id, CountKind::kEnergyPkgUj), -1, 0, -1);
  EXPECT_TRUE(cpu_bound.has_value());
}

TEST_F(PerfEventsTest, CpuBoundCoreEventRejectsForeignCpu) {
  // cpu 16 is an E-core; binding a cpu_core event there must fail.
  auto fd = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), -1, 16, -1);
  ASSERT_FALSE(fd.has_value());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfEventsTest, CountsMatchGroundTruthOnPinnedCore) {
  const Tid tid = spawn_work(5'000'000, CpuSet::of({0}));  // P-core cpu0
  auto fd = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel_.run_until_idle(std::chrono::seconds(10));
  auto value = kernel_.perf_read(*fd);
  ASSERT_TRUE(value.has_value());
  const auto* truth = kernel_.ground_truth(tid);
  ASSERT_NE(truth, nullptr);
  EXPECT_EQ(value->value, truth->per_type[0].instructions);
  EXPECT_EQ(value->value, 5'000'000u);
}

TEST_F(PerfEventsTest, EventOnlyCountsOnMatchingCoreType) {
  // Pin to an E-core; a cpu_core event must read zero, a cpu_atom event
  // must read everything.
  const Tid tid = spawn_work(3'000'000, CpuSet::of({20}));
  auto p_fd = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  auto e_fd = kernel_.perf_event_open(
      attr_for(e_type_, CountKind::kInstructions), tid, -1, -1);
  ASSERT_TRUE(p_fd.has_value());
  ASSERT_TRUE(e_fd.has_value());
  kernel_.run_until_idle(std::chrono::seconds(10));
  EXPECT_EQ(kernel_.perf_read(*p_fd)->value, 0u);
  EXPECT_EQ(kernel_.perf_read(*e_fd)->value, 3'000'000u);
}

TEST_F(PerfEventsTest, MigratingThreadSplitsCountsAcrossPmus) {
  // Separate kernel with an aggressive load balancer so the (short)
  // workload migrates many times.
  SimKernel::Config config;
  config.sched.migration_rate_hz = 300.0;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  const Tid tid =
      kernel.spawn(std::make_shared<FixedWorkProgram>(phase, 500'000'000),
                   CpuSet::all(kernel.machine().num_cpus()));
  auto p_fd = kernel.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  auto e_fd = kernel.perf_event_open(
      attr_for(e_type_, CountKind::kInstructions), tid, -1, -1);
  ASSERT_TRUE(p_fd.has_value());
  ASSERT_TRUE(e_fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(60));
  const std::uint64_t p = kernel.perf_read(*p_fd)->value;
  const std::uint64_t e = kernel.perf_read(*e_fd)->value;
  EXPECT_EQ(p + e, 500'000'000u) << "conservation across PMUs";
  EXPECT_GT(p, 0u) << "thread should visit P cores";
  EXPECT_GT(e, 0u) << "thread should visit E cores";
  EXPECT_GT(kernel.ground_truth(tid)->migrations, 0u);
}

TEST_F(PerfEventsTest, DisableFreezesAndResetZeroesCount) {
  // Enough work that the thread stays alive across the whole test.
  const Tid tid = spawn_work(20'000'000'000ULL, CpuSet::of({0}));
  auto fd = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel_.run_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(kernel_.perf_ioctl(*fd, PerfIoctl::kDisable).is_ok());
  const std::uint64_t frozen = kernel_.perf_read(*fd)->value;
  EXPECT_GT(frozen, 0u);
  kernel_.run_for(std::chrono::milliseconds(20));
  EXPECT_EQ(kernel_.perf_read(*fd)->value, frozen) << "disabled => frozen";
  ASSERT_TRUE(kernel_.perf_ioctl(*fd, PerfIoctl::kReset).is_ok());
  EXPECT_EQ(kernel_.perf_read(*fd)->value, 0u);
  // Re-enable: counting resumes from zero.
  ASSERT_TRUE(kernel_.perf_ioctl(*fd, PerfIoctl::kEnable).is_ok());
  kernel_.run_for(std::chrono::milliseconds(20));
  EXPECT_GT(kernel_.perf_read(*fd)->value, 0u);
}

TEST_F(PerfEventsTest, GroupReadReturnsLeaderThenSiblingsInOrder) {
  const Tid tid = spawn_work(5'000'000, CpuSet::of({0}));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions, true), tid, -1, -1);
  auto cyc = kernel_.perf_event_open(attr_for(p_type_, CountKind::kCycles),
                                     tid, -1, *leader);
  auto br = kernel_.perf_event_open(attr_for(p_type_, CountKind::kBranches),
                                    tid, -1, *leader);
  ASSERT_TRUE(leader.has_value());
  ASSERT_TRUE(cyc.has_value());
  ASSERT_TRUE(br.has_value());
  ASSERT_TRUE(kernel_
                  .perf_ioctl(*leader, PerfIoctl::kEnable,
                              simkernel::kIocFlagGroup)
                  .is_ok());
  kernel_.run_until_idle(std::chrono::seconds(5));
  auto values = kernel_.perf_read_group(*leader);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 3u);
  const auto* truth = kernel_.ground_truth(tid);
  EXPECT_EQ((*values)[0].value, truth->per_type[0].instructions);
  EXPECT_EQ((*values)[1].value, truth->per_type[0].cycles);
  EXPECT_EQ((*values)[2].value, truth->per_type[0].branches);
}

TEST_F(PerfEventsTest, GroupReadRequiresLeaderFd) {
  const Tid tid = spawn_work(1'000'000, CpuSet::of({0}));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions, true), tid, -1, -1);
  auto sib = kernel_.perf_event_open(attr_for(p_type_, CountKind::kCycles),
                                     tid, -1, *leader);
  auto result = kernel_.perf_read_group(*sib);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfEventsTest, MultiplexingScalesEstimatesWithinTolerance) {
  // Open more singleton groups than the P-core PMU's 8 GP counters (the
  // LLC/branch/stall kinds are not fixed-counter backed). With a steady
  // workload the scaled estimates must land near the true totals. The
  // workload must span many 1 ms rotation periods for every group to get
  // counter residency.
  const Tid tid = spawn_work(20'000'000'000ULL, CpuSet::of({0}));
  const CountKind kinds[] = {
      CountKind::kLlcReferences, CountKind::kLlcMisses,
      CountKind::kBranches,      CountKind::kBranchMisses,
      CountKind::kStalledCycles, CountKind::kFlopsDp,
  };
  std::vector<int> fds;
  for (int copy = 0; copy < 3; ++copy) {  // 18 GP events > 8 counters
    for (CountKind kind : kinds) {
      auto fd = kernel_.perf_event_open(attr_for(p_type_, kind), tid, -1, -1);
      ASSERT_TRUE(fd.has_value());
      fds.push_back(*fd);
    }
  }
  kernel_.run_until_idle(std::chrono::seconds(60));
  const auto* truth = kernel_.ground_truth(tid);
  // Every copy of the llc-references event should estimate the same
  // quantity; check scaled values against ground truth.
  for (std::size_t i = 0; i < fds.size(); ++i) {
    auto value = kernel_.perf_read(fds[i]);
    ASSERT_TRUE(value.has_value());
    EXPECT_LT(value->time_running_ns, value->time_enabled_ns)
        << "event " << i << " should have been rotated out some of the time";
    const std::uint64_t expected =
        truth->per_type[0].get(kinds[i % std::size(kinds)]);
    const double scaled = value->scaled();
    EXPECT_NEAR(scaled, static_cast<double>(expected),
                0.1 * static_cast<double>(expected) + 1000.0)
        << "event " << i;
  }
}

TEST_F(PerfEventsTest, PinnedEventNeverRotatesOut) {
  const Tid tid = spawn_work(40'000'000, CpuSet::of({0}));
  PerfEventAttr pinned = attr_for(p_type_, CountKind::kLlcReferences);
  pinned.pinned = true;
  auto pinned_fd = kernel_.perf_event_open(pinned, tid, -1, -1);
  ASSERT_TRUE(pinned_fd.has_value());
  for (int i = 0; i < 12; ++i) {
    auto fd = kernel_.perf_event_open(
        attr_for(p_type_, CountKind::kBranchMisses), tid, -1, -1);
    ASSERT_TRUE(fd.has_value());
  }
  kernel_.run_until_idle(std::chrono::seconds(30));
  auto value = kernel_.perf_read(*pinned_fd);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->time_enabled_ns, value->time_running_ns)
      << "pinned events must stay resident";
}

TEST_F(PerfEventsTest, RdpmcWorksOnlyWhileResident) {
  const Tid tid = spawn_work(10'000'000, CpuSet::of({0}));
  auto fd = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  auto page = kernel_.perf_mmap_user_page(*fd);
  ASSERT_TRUE(page.has_value());
  kernel_.run_for(std::chrono::milliseconds(10));
  papi::UserPageSample fast;
  ASSERT_EQ(papi::read_user_page(**page, fast), papi::UserPageReadResult::kOk);
  EXPECT_EQ(fast.value, kernel_.perf_read(*fd)->value);

  // Disabled, the page publishes index 0: userspace must use read(2).
  ASSERT_TRUE(kernel_.perf_ioctl(*fd, PerfIoctl::kDisable).is_ok());
  EXPECT_EQ(papi::read_user_page(**page, fast),
            papi::UserPageReadResult::kNotResident);
}

TEST_F(PerfEventsTest, RdpmcRejectsRaplEvents) {
  const auto* rapl = kernel_.pmus().find_by_name("power");
  auto fd = kernel_.perf_event_open(
      attr_for(rapl->type_id, CountKind::kEnergyPkgUj), -1, 0, -1);
  ASSERT_TRUE(fd.has_value());
  // Only core-PMU counters carry a user page, so RAPL has no rdpmc.
  auto page = kernel_.perf_mmap_user_page(*fd);
  ASSERT_FALSE(page.has_value());
  EXPECT_EQ(page.status().code(), StatusCode::kNotSupported);
}

TEST_F(PerfEventsTest, ClosingLeaderPromotesSiblings) {
  const Tid tid = spawn_work(10'000'000, CpuSet::of({0}));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions, true), tid, -1, -1);
  auto sib = kernel_.perf_event_open(attr_for(p_type_, CountKind::kCycles),
                                     tid, -1, *leader);
  ASSERT_TRUE(leader.has_value());
  ASSERT_TRUE(sib.has_value());
  ASSERT_TRUE(kernel_.perf_close(*leader).is_ok());
  // The sibling lives on as its own singleton group.
  kernel_.run_for(std::chrono::milliseconds(10));
  auto value = kernel_.perf_read(*sib);
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(value->value, 0u);
  EXPECT_TRUE(kernel_.perf_close(*sib).is_ok());
  EXPECT_EQ(kernel_.perf().open_event_count(), 0u);
}

TEST_F(PerfEventsTest, SoftwareEventsCountSwitchesAndMigrations) {
  // Two threads sharing one cpu: context switches must occur.
  const CpuSet one_cpu = CpuSet::of({0});
  const Tid a = spawn_work(20'000'000, one_cpu);
  const Tid b = spawn_work(20'000'000, one_cpu);
  (void)b;
  auto cs = kernel_.perf_event_open(
      attr_for(simkernel::kPerfTypeSoftware, CountKind::kContextSwitches), a,
      -1, -1);
  auto clock = kernel_.perf_event_open(
      attr_for(simkernel::kPerfTypeSoftware, CountKind::kTaskClockNs), a, -1,
      -1);
  ASSERT_TRUE(cs.has_value());
  ASSERT_TRUE(clock.has_value());
  kernel_.run_until_idle(std::chrono::seconds(60));
  EXPECT_GT(kernel_.perf_read(*cs)->value, 0u);
  const auto* truth = kernel_.ground_truth(a);
  EXPECT_EQ(kernel_.perf_read(*cs)->value, truth->context_switches);
  EXPECT_EQ(kernel_.perf_read(*clock)->value,
            static_cast<std::uint64_t>(truth->total_cpu_time.count()));
}

TEST_F(PerfEventsTest, RaplEnergyGrowsUnderLoad) {
  const auto* rapl = kernel_.pmus().find_by_name("power");
  auto fd = kernel_.perf_event_open(
      attr_for(rapl->type_id, CountKind::kEnergyPkgUj), -1, 0, -1);
  ASSERT_TRUE(fd.has_value());
  spawn_work(200'000'000, CpuSet::of({0}));
  kernel_.run_for(std::chrono::seconds(2));
  const std::uint64_t after_load = kernel_.perf_read(*fd)->value;
  // At least ~10 W for 2 s => 2e7 uJ.
  EXPECT_GT(after_load, 10'000'000u);
}

// --- fd table ---------------------------------------------------------------

using PerfFdTableTest = PerfEventsTest;

TEST_F(PerfFdTableTest, InvalidFdsAreRejectedByEveryCall) {
  const Tid tid = spawn_work(1'000'000, CpuSet::of({0}));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  auto closed = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kCycles), tid, -1, -1);
  ASSERT_TRUE(leader.has_value());
  ASSERT_TRUE(closed.has_value());
  ASSERT_TRUE(kernel_.perf_close(*closed).is_ok());

  // Negative, never opened (0-2 are stdio; fds start at 3), far beyond
  // the table, and already closed.
  std::vector<simkernel::PerfValue> buffer;
  for (const int fd : {-1, -1000, 0, 2, *leader + 100, 1'000'000, *closed}) {
    SCOPED_TRACE("fd " + std::to_string(fd));
    EXPECT_EQ(kernel_.perf_read(fd).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(kernel_.perf_read_group_into(fd, buffer).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(kernel_.perf_ioctl(fd, PerfIoctl::kEnable).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(kernel_.perf_close(fd).code(), StatusCode::kInvalidArgument);
  }
  // The live event is untouched by all of the above.
  EXPECT_EQ(kernel_.perf().open_event_count(), 1u);
  EXPECT_TRUE(kernel_.perf_read(*leader).has_value());
}

TEST_F(PerfFdTableTest, DoubleCloseFails) {
  const Tid tid = spawn_work(1'000'000, CpuSet::of({0}));
  auto fd = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions), tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  ASSERT_TRUE(kernel_.perf_close(*fd).is_ok());
  EXPECT_EQ(kernel_.perf_close(*fd).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kernel_.perf().open_event_count(), 0u);
}

TEST_F(PerfFdTableTest, GroupReadStaysExactAsTheTableGrowsAndSiblingsClose) {
  const Tid tid = spawn_work(5'000'000, CpuSet::of({0}));
  auto leader = kernel_.perf_event_open(
      attr_for(p_type_, CountKind::kInstructions, true), tid, -1, -1);
  auto cyc = kernel_.perf_event_open(attr_for(p_type_, CountKind::kCycles),
                                     tid, -1, *leader);
  auto br = kernel_.perf_event_open(attr_for(p_type_, CountKind::kBranches),
                                    tid, -1, *leader);
  ASSERT_TRUE(leader.has_value());
  ASSERT_TRUE(cyc.has_value());
  ASSERT_TRUE(br.has_value());
  ASSERT_TRUE(kernel_
                  .perf_ioctl(*leader, PerfIoctl::kEnable,
                              simkernel::kIocFlagGroup)
                  .is_ok());
  kernel_.run_for(std::chrono::microseconds(200));

  // Grow the table well past its size while the group is live: 1,000
  // events on another thread (its own scheduling context, so the
  // group under test is never multiplexed out).
  const Tid other = spawn_work(1'000, CpuSet::of({2}));
  int last_fd = *br;
  for (int i = 0; i < 1000; ++i) {
    auto fd = kernel_.perf_event_open(
        attr_for(simkernel::kPerfTypeSoftware, CountKind::kTaskClockNs),
        other, -1, -1);
    ASSERT_TRUE(fd.has_value()) << fd.status().to_string();
    EXPECT_GT(*fd, last_fd) << "fds are monotonic, never reused";
    last_fd = *fd;
  }
  EXPECT_EQ(kernel_.perf().open_event_count(), 1003u);

  kernel_.run_until_idle(std::chrono::seconds(5));
  const auto* truth = kernel_.ground_truth(tid);
  ASSERT_NE(truth, nullptr);
  std::vector<simkernel::PerfValue> values;
  ASSERT_TRUE(kernel_.perf_read_group_into(*leader, values).is_ok());
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].value, truth->per_type[0].instructions);
  EXPECT_EQ(values[0].value, 5'000'000u);
  EXPECT_EQ(values[1].value, truth->per_type[0].cycles);
  EXPECT_EQ(values[2].value, truth->per_type[0].branches);

  // Closing the middle sibling drops it from the group read; the
  // survivors keep their order and their exact values.
  ASSERT_TRUE(kernel_.perf_close(*cyc).is_ok());
  ASSERT_TRUE(kernel_.perf_read_group_into(*leader, values).is_ok());
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].value, truth->per_type[0].instructions);
  EXPECT_EQ(values[1].value, truth->per_type[0].branches);
  EXPECT_EQ(kernel_.perf().open_event_count(), 1002u);
}

TEST(PerfFdTable, FdLimitAndOpenCountCountLiveEventsOnly) {
  SimKernel::Config config;
  config.perf.max_open_fds = 4;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  const auto* p = kernel.pmus().find_by_name("cpu_core");
  ASSERT_NE(p, nullptr);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  const PerfEventAttr attr = attr_for(p->type_id, CountKind::kInstructions);

  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    auto fd = kernel.perf_event_open(attr, tid, -1, -1);
    ASSERT_TRUE(fd.has_value()) << fd.status().to_string();
    fds.push_back(*fd);
  }
  EXPECT_EQ(kernel.perf().open_event_count(), 4u);
  auto full = kernel.perf_event_open(attr, tid, -1, -1);
  ASSERT_FALSE(full.has_value());
  EXPECT_EQ(full.status().code(), StatusCode::kNoMemory);

  // A close frees room for exactly one more open, under a new fd: the
  // table's slots for closed fds do not count against the limit.
  ASSERT_TRUE(kernel.perf_close(fds[1]).is_ok());
  EXPECT_EQ(kernel.perf().open_event_count(), 3u);
  auto reopened = kernel.perf_event_open(attr, tid, -1, -1);
  ASSERT_TRUE(reopened.has_value()) << reopened.status().to_string();
  EXPECT_GT(*reopened, fds.back());
  EXPECT_EQ(kernel.perf().open_event_count(), 4u);
  EXPECT_FALSE(kernel.perf_event_open(attr, tid, -1, -1).has_value());

  fds[1] = *reopened;
  for (const int fd : fds) EXPECT_TRUE(kernel.perf_close(fd).is_ok());
  EXPECT_EQ(kernel.perf().open_event_count(), 0u);
}

}  // namespace
}  // namespace hetpapi
