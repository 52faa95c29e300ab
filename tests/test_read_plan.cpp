// The flat read plan (papi/eventset): every read entry point wraps one
// collection, so read, read_into, read_checked, read_qualified, accum and
// stop agree with each other and with the simulator's ground truth
// exactly — on the fd path and on the rdpmc plan, while a migrating
// thread flips groups between resident and not, after every layout
// change, and under read faults, where a tolerant read invalidates the
// failed group's parts and nothing else. QualifiedViews pins the
// lifetime of the interned labels qualified readings point into. Both
// suites run in the sanitized chaos CI shard: the plan indexes raw fold
// arrays, which is where an index bug would over-read.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;
using papi::QualifiedReading;
using papi::QualifiedValue;
using simkernel::CpuSet;
using simkernel::ExecCounts;
using simkernel::SimKernel;
using simkernel::Tid;

/// A DERIVED_SUB custom preset on every core PMU of both machines.
constexpr const char* kPresetFile = R"(CPU,adl_glc
PRESET,PAPI_GOOD_BR,DERIVED_SUB,BR_INST_RETIRED:ALL_BRANCHES,BR_MISP_RETIRED:ALL_BRANCHES
CPU,adl_grt
PRESET,PAPI_GOOD_BR,DERIVED_SUB,BR_INST_RETIRED:ALL_BRANCHES,BR_MISP_RETIRED:ALL_BRANCHES
CPU,mtl_rwc
PRESET,PAPI_GOOD_BR,DERIVED_SUB,BR_INST_RETIRED:ALL_BRANCHES,BR_MISP_RETIRED:ALL_BRANCHES
CPU,mtl_cmt
PRESET,PAPI_GOOD_BR,DERIVED_SUB,BR_INST_RETIRED:ALL_BRANCHES,BR_MISP_RETIRED:ALL_BRANCHES
CPU,mtl_lpe
PRESET,PAPI_GOOD_BR,DERIVED_SUB,BR_INST_RETIRED:ALL_BRANCHES,BR_MISP_RETIRED:ALL_BRANCHES
)";

const std::vector<const char*> kEvents = {"PAPI_TOT_INS", "PAPI_TOT_CYC",
                                          "PAPI_GOOD_BR"};

using Truth = std::vector<ExecCounts>;

/// The simulated machine one test drives.
struct World {
  explicit World(const char* preset)
      : kernel(*cpumodel::machine_preset_by_name(preset)), backend(&kernel) {}

  /// First cpu of core type `type`.
  int cpu_of(std::size_t type) const {
    return kernel.machine().cpus_of_type(
        static_cast<cpumodel::CoreTypeId>(type))[0];
  }
  std::size_t core_types() const { return kernel.machine().core_types.size(); }

  Tid spawn_on(int cpu) {
    workload::PhaseSpec phase;
    phase.llc_refs_per_kinstr = 6.0;
    phase.llc_miss_ratio = 0.4;
    phase.flops_per_instr = 0.5;
    const Tid tid = kernel.spawn(std::make_shared<workload::FixedWorkProgram>(
                                     phase, 1'000'000'000'000'000ULL),
                                 CpuSet::of({cpu}));
    backend.set_default_target(tid);
    return tid;
  }

  Truth truth(Tid tid) const { return kernel.ground_truth(tid)->per_type; }

  /// Core type whose PMU table is `pmu_name`.
  std::size_t type_of(std::string_view pmu_name) const {
    const auto& types = kernel.machine().core_types;
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (types[t].pfm_pmu_name == pmu_name) return t;
    }
    ADD_FAILURE() << "no core type for PMU " << pmu_name;
    return 0;
  }

  SimKernel kernel;
  papi::SimBackend backend;
};

std::unique_ptr<Library> make_library(papi::Backend* backend, bool rdpmc) {
  LibraryConfig config;
  config.call_overhead_instructions = 0;  // reads perturb nothing
  config.use_rdpmc = rdpmc;
  auto lib = Library::init(backend, config);
  EXPECT_TRUE(lib.has_value()) << lib.status().to_string();
  EXPECT_TRUE((*lib)->load_preset_definitions(kPresetFile).is_ok());
  return std::move(*lib);
}

int started_set(Library& lib, Tid tid,
                const std::vector<const char*>& events = kEvents) {
  auto set = lib.create_eventset();
  EXPECT_TRUE(set.has_value());
  EXPECT_TRUE(lib.attach(*set, tid).is_ok());
  for (const char* event : events) {
    EXPECT_TRUE(lib.add_event(*set, event).is_ok()) << event;
  }
  EXPECT_TRUE(lib.start(*set).is_ok());
  return *set;
}

/// What one constituent counted since `base`, from the ground truth.
std::uint64_t counted(const World& w, const Truth& now, const Truth& base,
                      const QualifiedValue& part) {
  const std::size_t type = w.type_of(part.pmu_name);
  const std::string_view name = part.native_name;
  std::uint64_t ExecCounts::*field = &ExecCounts::instructions;
  if (name.find("CPU_CLK_UNHALTED") != std::string_view::npos) {
    field = &ExecCounts::cycles;
  } else if (name.find("BR_MISP_RETIRED") != std::string_view::npos) {
    field = &ExecCounts::branch_misses;
  } else if (name.find("BR_INST_RETIRED") != std::string_view::npos) {
    field = &ExecCounts::branches;
  } else {
    EXPECT_NE(name.find("INST_RETIRED"), std::string_view::npos) << name;
  }
  return now[type].*field - base[type].*field;
}

/// Every entry point at one sim instant: the plain reads agree with each
/// other, and the qualified breakdown equals the ground truth since
/// `base`, part by part, with totals that are the signed part sums.
/// Returns the plain values.
std::vector<long long> expect_exact_reads(const World& w, Library& lib,
                                          int set, Tid tid,
                                          const Truth& base) {
  const Truth now = w.truth(tid);
  auto plain = lib.read(set);
  EXPECT_TRUE(plain.has_value()) << plain.status().to_string();
  if (!plain) return {};

  std::vector<long long> into = {-1, -1, -1, -1, -1, -1};
  EXPECT_TRUE(lib.read_into(set, into).is_ok());
  EXPECT_EQ(into, *plain);

  auto checked = lib.read_checked(set);
  EXPECT_TRUE(checked.has_value());
  if (checked) {
    EXPECT_EQ(checked->values, *plain);
    EXPECT_EQ(checked->value_degraded,
              std::vector<std::uint8_t>(plain->size(), 0));
    EXPECT_FALSE(checked->degraded);
  }
  papi::Reading reused;
  reused.values = {7, 7, 7, 7, 7};
  reused.value_degraded = {1};
  reused.degraded = true;
  EXPECT_TRUE(lib.read_checked_into(set, reused).is_ok());
  EXPECT_EQ(reused.values, *plain);
  EXPECT_FALSE(reused.degraded);

  auto qualified = lib.read_qualified(set);
  EXPECT_TRUE(qualified.has_value());
  if (!qualified) return *plain;
  EXPECT_EQ(qualified->size(), plain->size());
  for (std::size_t slot = 0; slot < qualified->size(); ++slot) {
    const QualifiedReading& reading = (*qualified)[slot];
    EXPECT_EQ(reading.total, (*plain)[slot]) << reading.display_name;
    EXPECT_FALSE(reading.degraded);
    long long sum = 0;
    for (const QualifiedValue& part : reading.parts) {
      EXPECT_TRUE(part.valid) << part.native_name;
      EXPECT_EQ(static_cast<std::uint64_t>(part.value),
                counted(w, now, base, part))
          << part.native_name;
      sum += part.sign * part.value;
    }
    EXPECT_EQ(sum, reading.total) << reading.display_name;
  }
  return *plain;
}

// --- every entry point, exactly -----------------------------------------------

TEST(ReadPlan, EveryEntryPointEqualsGroundTruthWhileMigrating) {
  for (const char* preset : {"raptorlake", "meteorlake"}) {
    for (const bool rdpmc : {false, true}) {
      SCOPED_TRACE(std::string(preset) + (rdpmc ? " rdpmc" : " fd"));
      World w(preset);
      const Tid tid = w.spawn_on(w.cpu_of(0));
      auto lib = make_library(&w.backend, rdpmc);
      const int set = started_set(*lib, tid);
      Truth base = w.truth(tid);

      // Visit every core type and come back: each move flips which
      // groups are resident, so the rdpmc plan alternates between pages
      // and the group-read fallback per group.
      std::vector<std::size_t> route;
      for (std::size_t t = 0; t < w.core_types(); ++t) route.push_back(t);
      route.push_back(0);
      for (const std::size_t type : route) {
        SCOPED_TRACE("core type " + std::to_string(type));
        ASSERT_TRUE(
            w.kernel.set_affinity(tid, CpuSet::of({w.cpu_of(type)})).is_ok());
        w.kernel.run_for(std::chrono::milliseconds(5));
        const std::vector<long long> values =
            expect_exact_reads(w, *lib, set, tid, base);
        ASSERT_EQ(values.size(), kEvents.size());
        EXPECT_GT(values[0], 0);
      }

      // accum adds exactly what read() reports, then resets the counters.
      const std::vector<long long> before =
          expect_exact_reads(w, *lib, set, tid, base);
      std::vector<long long> acc(kEvents.size(), 1);
      ASSERT_TRUE(lib->accum(set, acc).is_ok());
      for (std::size_t i = 0; i < acc.size(); ++i) {
        EXPECT_EQ(acc[i], before[i] + 1);
      }
      base = w.truth(tid);
      w.kernel.run_for(std::chrono::milliseconds(5));
      const std::vector<long long> after =
          expect_exact_reads(w, *lib, set, tid, base);

      // stop() returns the same collection, and the stopped set keeps
      // reading its frozen counts.
      auto stopped = lib->stop(set);
      ASSERT_TRUE(stopped.has_value());
      EXPECT_EQ(*stopped, after);
      w.kernel.run_for(std::chrono::milliseconds(5));
      auto frozen = lib->read(set);
      ASSERT_TRUE(frozen.has_value());
      EXPECT_EQ(*frozen, after);
    }
  }
}

TEST(ReadPlan, MultiplexedEntryPointsAgree) {
  // Twelve single-PMU events plus two derived presets, every event its
  // own rotating group: the estimates are scaled, so they agree with
  // each other exactly rather than with the ground truth.
  for (const bool rdpmc : {false, true}) {
    SCOPED_TRACE(rdpmc ? "rdpmc" : "fd");
    World w("raptorlake");
    const Tid tid = w.spawn_on(w.cpu_of(0));
    auto lib = make_library(&w.backend, rdpmc);
    auto set = lib->create_eventset();
    ASSERT_TRUE(set.has_value());
    ASSERT_TRUE(lib->attach(*set, tid).is_ok());
    for (int copy = 0; copy < 2; ++copy) {
      for (const char* event :
           {"adl_glc::LONGEST_LAT_CACHE:REFERENCE",
            "adl_glc::LONGEST_LAT_CACHE:MISS",
            "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
            "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
            "adl_glc::RESOURCE_STALLS",
            "adl_glc::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE"}) {
        ASSERT_TRUE(lib->add_event(*set, event).is_ok());
      }
    }
    ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
    ASSERT_TRUE(lib->add_event(*set, "PAPI_GOOD_BR").is_ok());
    ASSERT_TRUE(lib->set_multiplex(*set).is_ok());
    ASSERT_TRUE(lib->start(*set).is_ok());
    w.kernel.run_for(std::chrono::milliseconds(40));

    auto plain = lib->read(*set);
    ASSERT_TRUE(plain.has_value());
    ASSERT_EQ(plain->size(), 14u);
    std::vector<long long> into;
    ASSERT_TRUE(lib->read_into(*set, into).is_ok());
    EXPECT_EQ(into, *plain);
    auto checked = lib->read_checked(*set);
    ASSERT_TRUE(checked.has_value());
    EXPECT_EQ(checked->values, *plain);
    auto qualified = lib->read_qualified(*set);
    ASSERT_TRUE(qualified.has_value());
    for (std::size_t slot = 0; slot < plain->size(); ++slot) {
      const QualifiedReading& reading = (*qualified)[slot];
      EXPECT_EQ(reading.total, (*plain)[slot]) << reading.display_name;
      if (reading.parts.size() == 1) {
        EXPECT_EQ(reading.parts[0].value, reading.total);
      }
      EXPECT_GT(reading.total, 0) << reading.display_name;
    }
    auto stopped = lib->stop(*set);
    ASSERT_TRUE(stopped.has_value());
    EXPECT_EQ(*stopped, *plain);
  }
}

// --- the plan follows the layout ----------------------------------------------

TEST(ReadPlan, RebuiltAfterEveryLayoutChange) {
  for (const bool rdpmc : {false, true}) {
    SCOPED_TRACE(rdpmc ? "rdpmc" : "fd");
    World w("raptorlake");
    const Tid on_p = w.spawn_on(w.cpu_of(0));
    const Tid on_e = w.spawn_on(w.cpu_of(1));
    auto lib = make_library(&w.backend, rdpmc);
    const int set = started_set(*lib, on_p);

    const auto run_and_check = [&](Tid tid, std::size_t slots) {
      ASSERT_TRUE(lib->start(set).is_ok());
      const Truth base = w.truth(tid);
      w.kernel.run_for(std::chrono::milliseconds(5));
      EXPECT_EQ(expect_exact_reads(w, *lib, set, tid, base).size(), slots);
      ASSERT_TRUE(lib->stop(set).has_value());
    };
    ASSERT_TRUE(lib->stop(set).has_value());
    run_and_check(on_p, 3);

    SCOPED_TRACE("attach");
    ASSERT_TRUE(lib->attach(set, on_e).is_ok());
    run_and_check(on_e, 3);

    SCOPED_TRACE("remove_event");
    ASSERT_TRUE(lib->remove_event(set, "PAPI_TOT_CYC").is_ok());
    run_and_check(on_e, 2);

    SCOPED_TRACE("set_overflow");
    ASSERT_TRUE(lib->set_overflow(set, 0, 1'000'000, nullptr).is_ok());
    run_and_check(on_e, 2);

    SCOPED_TRACE("set_multiplex");
    ASSERT_TRUE(lib->set_multiplex(set).is_ok());
    ASSERT_TRUE(lib->start(set).is_ok());
    w.kernel.run_for(std::chrono::milliseconds(5));
    auto plain = lib->read(set);
    ASSERT_TRUE(plain.has_value());
    ASSERT_EQ(plain->size(), 2u);
    auto qualified = lib->read_qualified(set);
    ASSERT_TRUE(qualified.has_value());
    ASSERT_EQ(qualified->size(), 2u);
    for (std::size_t slot = 0; slot < 2; ++slot) {
      EXPECT_EQ((*qualified)[slot].total, (*plain)[slot]);
      EXPECT_GT((*plain)[slot], 0);
    }
  }
}

// --- read faults degrade exactly one group -------------------------------------

/// Forwards to the simulator but fails every group read of the leaders
/// opened for one PMU type: a counter that died under the reader.
class DeadGroupBackend final : public papi::Backend {
 public:
  DeadGroupBackend(papi::Backend* inner, std::uint32_t dead_type)
      : inner_(inner), dead_type_(dead_type) {}

  Expected<int> perf_event_open(const papi::PerfEventAttr& attr, Tid tid,
                                int cpu, int group_fd,
                                std::uint64_t flags) override {
    auto fd = inner_->perf_event_open(attr, tid, cpu, group_fd, flags);
    if (fd && group_fd < 0 && attr.type == dead_type_) dead_.insert(*fd);
    return fd;
  }
  Status perf_ioctl(int fd, papi::PerfIoctl op, std::uint32_t flags) override {
    return inner_->perf_ioctl(fd, op, flags);
  }
  Status perf_read_group_into(int fd,
                              std::vector<papi::PerfValue>& out) override {
    if (dead_.count(fd) != 0) {
      return make_error(StatusCode::kSystem, "counter died");
    }
    return inner_->perf_read_group_into(fd, out);
  }
  Status perf_close(int fd) override { return inner_->perf_close(fd); }
  const pfm::Host& host() const override { return inner_->host(); }
  Tid default_target() const override { return inner_->default_target(); }

 private:
  papi::Backend* inner_;
  std::uint32_t dead_type_;
  std::set<int> dead_;
};

/// Tolerant reads of a set whose constituents on `dead` PMUs delivered
/// nothing: those parts are invalid with value 0, every other part is
/// exact, totals and read_checked values are the live parts' sums, and
/// the strict read fails.
void expect_only_dead_parts_invalid(const World& w, Library& lib, int set,
                                    Tid tid, const Truth& base,
                                    const std::set<std::string>& dead) {
  const Truth now = w.truth(tid);
  EXPECT_FALSE(lib.read(set).has_value()) << "strict reads fail";

  std::vector<QualifiedReading> qualified;
  ASSERT_TRUE(lib.read_qualified_into(set, qualified).is_ok());
  auto checked = lib.read_checked(set);
  ASSERT_TRUE(checked.has_value());
  ASSERT_EQ(qualified.size(), checked->values.size());
  for (std::size_t slot = 0; slot < qualified.size(); ++slot) {
    const QualifiedReading& reading = qualified[slot];
    long long live = 0;
    bool any_dead = false;
    for (const QualifiedValue& part : reading.parts) {
      if (dead.count(std::string(part.pmu_name)) != 0) {
        EXPECT_FALSE(part.valid) << part.native_name;
        EXPECT_EQ(part.value, 0) << part.native_name;
        any_dead = true;
        continue;
      }
      EXPECT_TRUE(part.valid) << part.native_name;
      EXPECT_EQ(static_cast<std::uint64_t>(part.value),
                counted(w, now, base, part))
          << part.native_name;
      live += part.sign * part.value;
    }
    EXPECT_EQ(reading.degraded, any_dead) << reading.display_name;
    EXPECT_EQ(reading.total, live) << reading.display_name;
    EXPECT_EQ(checked->values[slot], live) << reading.display_name;
    EXPECT_EQ(checked->value_degraded[slot], any_dead ? 1 : 0);
  }
  EXPECT_TRUE(checked->degraded);
}

TEST(ReadPlan, TolerantReadsInvalidateOnlyTheFailedGroup) {
  // The fd path: the last core type's group dies; the others read on.
  for (const char* preset : {"raptorlake", "meteorlake"}) {
    SCOPED_TRACE(preset);
    World w(preset);
    const std::size_t last = w.core_types() - 1;
    const std::string dead_pmu = w.kernel.machine().core_types[last].pfm_pmu_name;
    const Tid tid = w.spawn_on(w.cpu_of(0));
    auto probe = make_library(&w.backend, false);
    const std::uint32_t dead_type =
        probe->pfm().find_pmu(dead_pmu)->perf_type;
    DeadGroupBackend backend(&w.backend, dead_type);
    auto lib = make_library(&backend, false);
    const int set = started_set(*lib, tid);
    const Truth base = w.truth(tid);
    w.kernel.run_for(std::chrono::milliseconds(5));
    expect_only_dead_parts_invalid(w, *lib, set, tid, base, {dead_pmu});
  }
}

TEST(ReadPlan, FaultInjectedReadsDegradeOnlyTheFdServedGroups) {
  // The rdpmc plan under FaultInjectingBackend, every read(2) killing its
  // counter: the P-pinned thread's P group is served from its pages and
  // stays exact; the other core types' groups are never resident, fall
  // back to the group read, and die there.
  for (const char* preset : {"raptorlake", "meteorlake"}) {
    SCOPED_TRACE(preset);
    World w(preset);
    papi::FaultProfile profile;
    profile.name = "every-read-kills";
    profile.stale_fd_prob = 1.0;
    papi::FaultInjectingBackend injector(&w.backend, profile, /*seed=*/3);
    const Tid tid = w.spawn_on(w.cpu_of(0));
    {
      auto lib = make_library(&injector, true);
      const int set = started_set(*lib, tid);
      const Truth base = w.truth(tid);
      w.kernel.run_for(std::chrono::milliseconds(5));
      std::set<std::string> dead;
      for (std::size_t t = 1; t < w.core_types(); ++t) {
        dead.insert(w.kernel.machine().core_types[t].pfm_pmu_name);
      }
      expect_only_dead_parts_invalid(w, *lib, set, tid, base, dead);
      EXPECT_GT(injector.stats().fds_gone_stale, 0u);
      (void)lib->force_destroy_eventset(set);
    }
    EXPECT_EQ(injector.open_fd_count(), 0u) << "no fd leaked";
  }
}

// --- interned labels ------------------------------------------------------------

TEST(QualifiedViews, LabelsOutliveTheirEventSet) {
  World w("raptorlake");
  const Tid tid = w.spawn_on(w.cpu_of(0));
  auto lib = make_library(&w.backend, false);
  const int set = started_set(*lib, tid);
  w.kernel.run_for(std::chrono::milliseconds(2));
  auto held = lib->read_qualified(set);
  ASSERT_TRUE(held.has_value());
  ASSERT_TRUE(lib->stop(set).has_value());
  ASSERT_TRUE(lib->destroy_eventset(set).is_ok());

  // A new set over other events, read into a fresh buffer: the old
  // views still point at live, unchanged names.
  const int other = started_set(*lib, tid, {"adl_grt::INST_RETIRED:ANY"});
  w.kernel.run_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(lib->read_qualified(other).has_value());

  ASSERT_EQ(held->size(), 3u);
  EXPECT_EQ((*held)[0].display_name, "PAPI_TOT_INS");
  EXPECT_EQ((*held)[2].display_name, "PAPI_GOOD_BR");
  const QualifiedValue& p_ins = (*held)[0].parts[0];
  EXPECT_EQ(p_ins.native_name, "adl_glc::INST_RETIRED:ANY");
  EXPECT_EQ(p_ins.pmu_name, "adl_glc");
  EXPECT_EQ(p_ins.core_type, lib->core_type_for_pmu("adl_glc"));
  EXPECT_FALSE(p_ins.core_type.empty());
  const QualifiedValue& e_misp = (*held)[2].parts[3];
  EXPECT_EQ(e_misp.native_name, "adl_grt::BR_MISP_RETIRED:ALL_BRANCHES");
  EXPECT_EQ(e_misp.sign, -1);
  EXPECT_EQ(e_misp.core_type, lib->core_type_for_pmu("adl_grt"));

  // One native event, one interned name: the re-created set's view
  // points at the same characters the first set's did.
  auto fresh = lib->read_qualified(other);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ((*fresh)[0].parts[0].native_name.data(),
            (*held)[0].parts[1].native_name.data());
}

TEST(QualifiedViews, CallerMutatedBufferIsRepaired) {
  World w("meteorlake");
  const Tid tid = w.spawn_on(w.cpu_of(0));
  auto lib = make_library(&w.backend, false);
  const int set = started_set(*lib, tid);
  w.kernel.run_for(std::chrono::milliseconds(2));

  std::vector<QualifiedReading> buffer;
  ASSERT_TRUE(lib->read_qualified_into(set, buffer).is_ok());
  ASSERT_EQ(buffer.size(), 3u);
  // Scribble over labels, signs, validity and shape.
  buffer[0].display_name = "scribbled";
  buffer[0].parts[0].native_name = "nonsense";
  buffer[0].parts[1].pmu_name = {};
  buffer[1].parts[2].core_type = "nowhere";
  buffer[2].parts[1].sign = 5;
  buffer[2].parts[4].valid = false;
  buffer[1].parts.resize(7);
  buffer[2].parts.pop_back();
  buffer.emplace_back();

  w.kernel.run_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(lib->read_qualified_into(set, buffer).is_ok());
  auto fresh = lib->read_qualified(set);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(buffer.size(), fresh->size());
  for (std::size_t slot = 0; slot < buffer.size(); ++slot) {
    const QualifiedReading& got = buffer[slot];
    const QualifiedReading& want = (*fresh)[slot];
    EXPECT_EQ(got.display_name, want.display_name);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.degraded, want.degraded);
    ASSERT_EQ(got.parts.size(), want.parts.size());
    for (std::size_t p = 0; p < got.parts.size(); ++p) {
      EXPECT_EQ(got.parts[p].native_name, want.parts[p].native_name);
      EXPECT_EQ(got.parts[p].pmu_name, want.parts[p].pmu_name);
      EXPECT_EQ(got.parts[p].core_type, want.parts[p].core_type);
      EXPECT_EQ(got.parts[p].sign, want.parts[p].sign);
      EXPECT_EQ(got.parts[p].valid, want.parts[p].valid);
      EXPECT_EQ(got.parts[p].value, want.parts[p].value);
    }
  }
}

}  // namespace
}  // namespace hetpapi
