// Chaos suite for the deterministic fault injector: a fault-kind x
// cpu-model x API-surface matrix plus a seeded randomized soak of the
// monitored-run pipeline. The invariants under EVERY profile and seed:
// no crash, zero leaked fds at teardown (the injector's ledger is the
// oracle), a self-consistent health summary, and bit-identical outcomes
// for identical seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/library.hpp"
#include "papi/retry.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "telemetry/monitor.hpp"
#include "workload/hpl.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::FaultInjectingBackend;
using papi::FaultProfile;
using papi::Library;
using papi::LibraryConfig;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

cpumodel::MachineSpec machine_by_name(const std::string& name) {
  return name == "orangepi" ? cpumodel::orangepi800_rk3399()
                            : cpumodel::raptor_lake_i7_13700();
}

/// Drive the whole EventSet API surface tolerantly (every call may
/// fail under injection — that is the point) and append a textual
/// outcome of each step to `trace`, the determinism fingerprint.
void exercise_api_surface(Library& lib, SimKernel& kernel, Tid tid,
                          std::ostringstream& trace) {
  const auto record = [&trace](std::string_view step, const Status& s) {
    trace << step << "=" << (s.is_ok() ? "ok" : to_string(s.code())) << ";";
  };
  auto set = lib.create_eventset();
  ASSERT_TRUE(set.has_value());
  record("attach", lib.attach(*set, tid));
  for (const char* event : {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"}) {
    record(event, lib.add_event(*set, event));
  }
  record("start", lib.start(*set));
  kernel.run_for(std::chrono::milliseconds(200));
  if (const auto values = lib.read(*set)) {
    trace << "read=ok[";
    for (const long long v : *values) trace << v << ",";
    trace << "];";
  } else {
    record("read", values.status());
  }
  if (const auto checked = lib.read_checked(*set)) {
    trace << "read_checked=ok degraded=" << checked->degraded << "[";
    for (std::size_t i = 0; i < checked->values.size(); ++i) {
      const bool bad = i < checked->value_degraded.size() &&
                       checked->value_degraded[i] != 0;
      trace << (bad ? -1 : checked->values[i]) << ",";
    }
    trace << "];";
  } else {
    record("read_checked", checked.status());
  }
  if (const auto qualified = lib.read_qualified(*set)) {
    trace << "read_qualified=ok[";
    for (const papi::QualifiedReading& reading : *qualified) {
      trace << reading.total << "/" << reading.degraded << ",";
    }
    trace << "];";
  } else {
    record("read_qualified", qualified.status());
  }
  record("reset", lib.reset(*set));
  kernel.run_for(std::chrono::milliseconds(100));
  if (const auto stopped = lib.stop(*set)) {
    trace << "stop=ok[";
    for (const long long v : *stopped) trace << v << ",";
    trace << "];";
  } else {
    record("stop", stopped.status());
  }
  record("destroy", lib.destroy_eventset(*set));
}

/// One full library lifetime under a profile/seed; returns the outcome
/// trace. Asserts the leak invariant at teardown.
std::string run_scenario(const std::string& machine_name,
                         const std::string& profile_name, std::uint64_t seed,
                         bool degrade_presets) {
  SimKernel kernel(machine_by_name(machine_name));
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named(profile_name);
  EXPECT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, seed);

  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));

  std::ostringstream trace;
  {
    LibraryConfig config;
    config.degrade_partial_presets = degrade_presets;
    auto lib = Library::init(&injector, config);
    if (!lib.has_value()) {
      // Heavy open-failure profiles can refuse even init's probe opens;
      // that must still be a clean, leak-free failure.
      trace << "init=" << to_string(lib.status().code()) << ";";
    } else {
      trace << "init=ok;";
      exercise_api_surface(**lib, kernel, tid, trace);
    }
  }
  EXPECT_EQ(injector.open_fd_count(), 0u)
      << machine_name << "/" << profile_name << " seed " << seed
      << " leaked: " << testing::PrintToString(injector.leaked_fds());
  EXPECT_EQ(backend.open_fd_count(), 0u);
  trace << "faults=" << injector.stats().total_injected() << ";";
  return trace.str();
}

TEST(FaultInjection, NamedProfilesRoundTripAndUnknownIsRejected) {
  const auto names = FaultProfile::profile_names();
  ASSERT_GE(names.size(), 6u);
  for (const std::string& name : names) {
    const auto profile = FaultProfile::named(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_EQ(profile->name, name);
  }
  const auto unknown = FaultProfile::named("not-a-profile");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjection, MatrixNoLeaksOnAnyProfileMachineOrSeed) {
  for (const char* machine : {"raptorlake", "orangepi"}) {
    for (const std::string& profile : FaultProfile::profile_names()) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(std::string(machine) + "/" + profile + "/" +
                     std::to_string(seed));
        (void)run_scenario(machine, profile, seed, /*degrade_presets=*/true);
        (void)run_scenario(machine, profile, seed, /*degrade_presets=*/false);
      }
    }
  }
}

TEST(FaultInjection, SameSeedSameOutcomeTrace) {
  for (const std::string& profile : FaultProfile::profile_names()) {
    for (const std::uint64_t seed : {7ull, 99ull}) {
      const std::string first = run_scenario("raptorlake", profile, seed, true);
      const std::string second =
          run_scenario("raptorlake", profile, seed, true);
      EXPECT_EQ(first, second) << profile << " seed " << seed;
    }
  }
}

TEST(FaultInjection, NoneProfileIsTransparent) {
  const std::string injected = run_scenario("raptorlake", "none", 5, false);
  EXPECT_NE(injected.find("faults=0;"), std::string::npos) << injected;
  EXPECT_NE(injected.find("init=ok;"), std::string::npos);
  EXPECT_NE(injected.find("start=ok;"), std::string::npos) << injected;
}

TEST(FaultInjection, TransientReadBurstsAreRiddenOutByBoundedRetry) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named("transient-read");
  ASSERT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, 11);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 500'000'000), CpuSet::of({0}));

  auto lib = Library::init(&injector);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());

  // The tolerant read path never fails outright on a transient: either
  // the bounded retry rides the burst out, or the slot is marked
  // degraded for that read.
  int degraded_reads = 0;
  for (int i = 0; i < 200; ++i) {
    kernel.run_for(std::chrono::milliseconds(5));
    const auto reading = (*lib)->read_checked(*set);
    ASSERT_TRUE(reading.has_value()) << reading.status().to_string();
    if (reading->degraded) ++degraded_reads;
  }
  EXPECT_GT(injector.stats().reads_injected_transient, 0u);
  // Burst (2) < retry budget (4): most transients are absorbed.
  EXPECT_LT(degraded_reads, 200);
  // stop() is strict (it returns the final values), so a burst that
  // outlives the retry budget fails the call and leaves the set
  // running — the PAPI contract is that the caller tries again.
  bool stopped = false;
  for (int i = 0; i < 20 && !stopped; ++i) {
    stopped = (*lib)->stop(*set).has_value();
  }
  ASSERT_TRUE(stopped);
  ASSERT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  lib->reset();
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

TEST(FaultInjection, ForceDestroyedRunningSetGivesUpItsComponentLock) {
  // Every read faults for longer than any retry budget, so stop() —
  // which reads the final values first — fails and the set stays
  // running. Force-destroying it must still release its component
  // lock: a kept lock would refuse every later start on the thread.
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  FaultProfile profile;
  profile.read_transient_prob = 1.0;
  profile.transient_burst = 1000;
  FaultInjectingBackend injector(&backend, profile, 5);
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 500'000'000),
      CpuSet::of({0}));
  auto lib = Library::init(&injector);
  ASSERT_TRUE(lib.has_value());
  const auto running_set = [&]() -> int {
    auto set = (*lib)->create_eventset();
    EXPECT_TRUE(set.has_value());
    EXPECT_TRUE((*lib)->attach(*set, tid).is_ok());
    EXPECT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
    const Status started = (*lib)->start(*set);
    EXPECT_TRUE(started.is_ok()) << started.to_string();
    return *set;
  };
  const int first = running_set();
  kernel.run_for(std::chrono::milliseconds(5));
  ASSERT_FALSE((*lib)->stop(first).has_value());
  (void)(*lib)->force_destroy_eventset(first);
  const int second = running_set();
  (void)(*lib)->force_destroy_eventset(second);
  lib->reset();
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

struct GroupFds {
  int leader = -1;
  int sibling = -1;
};

/// A leader + sibling instructions/cycles group on a thread pinned to a
/// P core, enabled and run for a while.
GroupFds open_running_group(SimKernel& kernel, papi::Backend& backend) {
  const auto* p = kernel.pmus().find_by_name("cpu_core");
  EXPECT_NE(p, nullptr);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 500'000'000), CpuSet::of({0}));
  simkernel::PerfEventAttr attr;
  attr.type = p->type_id;
  attr.config = static_cast<std::uint64_t>(simkernel::CountKind::kInstructions);
  attr.read_format = simkernel::kFormatGroup |
                     simkernel::kFormatTotalTimeEnabled |
                     simkernel::kFormatTotalTimeRunning;
  attr.disabled = true;
  auto leader = backend.perf_event_open(attr, tid, -1, -1, 0);
  EXPECT_TRUE(leader.has_value());
  attr.config = static_cast<std::uint64_t>(simkernel::CountKind::kCycles);
  attr.disabled = false;
  auto sibling = backend.perf_event_open(attr, tid, -1, *leader, 0);
  EXPECT_TRUE(sibling.has_value());
  EXPECT_TRUE(backend
                  .perf_ioctl(*leader, simkernel::PerfIoctl::kEnable,
                              simkernel::kIocFlagGroup)
                  .is_ok());
  kernel.run_for(std::chrono::milliseconds(2));
  return {*leader, *sibling};
}

TEST(BackendSeam, GroupReadIntoReusesTheBufferAndMatchesTheWrapper) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  const int leader = open_running_group(kernel, backend).leader;

  std::vector<simkernel::PerfValue> values;
  ASSERT_TRUE(backend.perf_read_group_into(leader, values).is_ok());
  ASSERT_EQ(values.size(), 2u);
  const std::uint64_t first_instructions = values[0].value;
  const std::size_t capacity = values.capacity();
  const simkernel::PerfValue* data = values.data();

  kernel.run_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(backend.perf_read_group_into(leader, values).is_ok());
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values.capacity(), capacity);
  EXPECT_EQ(values.data(), data) << "a reused buffer must not reallocate";
  EXPECT_GT(values[0].value, first_instructions);

  // The allocating wrapper reads exactly what the primitive read (no
  // simulated time passes between the two calls).
  auto wrapped = backend.perf_read_group(leader);
  ASSERT_TRUE(wrapped.has_value()) << wrapped.status().to_string();
  ASSERT_EQ(wrapped->size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ((*wrapped)[i].value, values[i].value);
    EXPECT_EQ((*wrapped)[i].time_enabled_ns, values[i].time_enabled_ns);
    EXPECT_EQ((*wrapped)[i].time_running_ns, values[i].time_running_ns);
  }
}

TEST(FaultInjection, GroupReadIntoCountsBurstsAndRetryAbsorbsThem) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  FaultProfile profile;
  profile.name = "group-read-bursts";
  profile.read_transient_prob = 0.1;
  profile.transient_burst = 2;
  FaultInjectingBackend injector(&backend, profile, 7);
  const GroupFds group = open_running_group(kernel, injector);
  const int leader = group.leader;

  // Within budget: every burst is ridden out, and every attempt the
  // retry loop made — failed or not — is counted in reads_attempted.
  constexpr int kReads = 200;
  std::vector<simkernel::PerfValue> values;
  std::vector<simkernel::PerfValue> truth;
  for (int i = 0; i < kReads; ++i) {
    kernel.run_for(std::chrono::microseconds(100));
    const Status s = papi::retry_transient(/*max_attempts=*/8, [&] {
      return injector.perf_read_group_into(leader, values);
    });
    ASSERT_TRUE(s.is_ok()) << "read " << i << ": " << s.to_string();
    ASSERT_TRUE(backend.perf_read_group_into(leader, truth).is_ok());
    ASSERT_EQ(values.size(), 2u);
    EXPECT_EQ(values[0].value, truth[0].value);
    EXPECT_EQ(values[1].value, truth[1].value);
  }
  const auto& stats = injector.stats();
  EXPECT_GT(stats.reads_injected_transient, 0u);
  EXPECT_EQ(stats.reads_attempted, kReads + stats.reads_injected_transient);

  // A one-attempt budget surfaces the first transient it meets.
  bool surfaced = false;
  for (int i = 0; i < 400 && !surfaced; ++i) {
    const Status s = papi::retry_transient(/*max_attempts=*/1, [&] {
      return injector.perf_read_group_into(leader, values);
    });
    if (!s.is_ok()) {
      EXPECT_EQ(s.code(), StatusCode::kInterrupted);
      surfaced = true;
    }
  }
  EXPECT_TRUE(surfaced);
  EXPECT_TRUE(injector.perf_close(group.sibling).is_ok());
  EXPECT_TRUE(injector.perf_close(group.leader).is_ok());
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

TEST(FaultInjection, FdPressureFailsCleanlyAndLedgerMatchesKernel) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named("fd-pressure");
  ASSERT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, 3);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));

  auto lib = Library::init(&injector);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  Status last = Status::ok();
  int added = 0;
  for (int i = 0; i < 12 && last.is_ok(); ++i) {
    last = (*lib)->add_event(*set, "PAPI_TOT_INS");
    if (last.is_ok()) ++added;
  }
  EXPECT_GT(added, 0);
  ASSERT_FALSE(last.is_ok()) << "the 6-fd cap must bite";
  EXPECT_EQ(last.code(), StatusCode::kNoMemory);
  // Rollback left exactly the surviving events' fds: ledger == kernel.
  EXPECT_EQ(injector.open_fd_count(), backend.open_fd_count());
  EXPECT_LE(injector.open_fd_count(), 6u);
  ASSERT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  lib->reset();
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

// ---------------------------------------------------------------------
// Seeded randomized soak of the monitored-run pipeline: the workload
// must finish and the telemetry series must stay complete under every
// profile, with a health summary that adds up and zero leaked fds.

telemetry::RunResult run_chaos_monitor(const std::string& profile,
                                       std::uint64_t seed) {
  SimKernel::Config config;
  config.tick = std::chrono::milliseconds(1);
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  const workload::HplConfig hpl = workload::HplConfig::openblas(4096, 192);
  telemetry::MonitorConfig monitor;
  monitor.sample_period_s = 0.01;
  monitor.sample_events = {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"};
  monitor.fault_profile = profile;
  monitor.fault_seed = seed;
  return telemetry::run_monitored_hpl(kernel, hpl, {0, 2, 16, 17}, monitor);
}

void check_health_consistency(const telemetry::RunResult& result) {
  const telemetry::RunHealth& h = result.health;
  EXPECT_EQ(h.leaked_fds, 0u);
  EXPECT_LE(h.ticks_failed, h.ticks_attempted);
  EXPECT_LE(h.ticks_degraded, h.ticks_attempted);
  EXPECT_EQ(h.counters_dropped, h.dropped_counters.size());
  EXPECT_LE(h.counters_dropped, result.counter_names.size());
  if (!result.counter_names.empty()) {
    // Counters were attached for the whole run: every sample is a tick.
    EXPECT_EQ(h.ticks_attempted, result.samples.size());
  } else {
    EXPECT_EQ(h.ticks_attempted, 0u);
  }
  if (h.sampling_abandoned) {
    EXPECT_GE(h.ticks_failed, 3u);
  }
  for (const telemetry::Sample& sample : result.samples) {
    // Telemetry survives no matter what the counter path does.
    EXPECT_FALSE(sample.core_freq_mhz.empty());
    if (!sample.counters.empty()) {
      EXPECT_EQ(sample.counters.size(), result.counter_names.size());
    }
  }
}

TEST(Chaos, MonitorSoakSurvivesEveryProfileAndSeed) {
  for (const std::string& profile : FaultProfile::profile_names()) {
    for (const std::uint64_t seed : {17ull, 23ull, 41ull}) {
      SCOPED_TRACE(profile + "/" + std::to_string(seed));
      const telemetry::RunResult result = run_chaos_monitor(profile, seed);
      EXPECT_GT(result.gflops, 0.0) << "the run itself must never abort";
      EXPECT_GT(result.samples.size(), 1u);
      check_health_consistency(result);
    }
  }
}

TEST(Chaos, MonitorRunsAreDeterministicPerSeed) {
  const telemetry::RunResult a = run_chaos_monitor("mixed", 1234);
  const telemetry::RunResult b = run_chaos_monitor("mixed", 1234);
  EXPECT_EQ(a.health.ticks_attempted, b.health.ticks_attempted);
  EXPECT_EQ(a.health.ticks_failed, b.health.ticks_failed);
  EXPECT_EQ(a.health.ticks_degraded, b.health.ticks_degraded);
  EXPECT_EQ(a.health.counters_dropped, b.health.counters_dropped);
  EXPECT_EQ(a.health.faults_injected, b.health.faults_injected);
  EXPECT_EQ(a.health.sampling_abandoned, b.health.sampling_abandoned);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(a.samples[i].counters.size(), b.samples[i].counters.size());
    for (std::size_t c = 0; c < a.samples[i].counters.size(); ++c) {
      const double va = a.samples[i].counters[c];
      const double vb = b.samples[i].counters[c];
      if (std::isnan(va) || std::isnan(vb)) {
        EXPECT_TRUE(std::isnan(va) && std::isnan(vb));
      } else {
        EXPECT_EQ(va, vb);
      }
    }
  }
}

TEST(Chaos, CleanProfileMatchesUninjectedMonitorRun) {
  const telemetry::RunResult clean = run_chaos_monitor("none", 0);
  EXPECT_EQ(clean.health.faults_injected, 0u);
  EXPECT_EQ(clean.health.ticks_failed, 0u);
  EXPECT_EQ(clean.health.ticks_degraded, 0u);
  EXPECT_EQ(clean.health.counters_dropped, 0u);
  EXPECT_FALSE(clean.health.sampling_abandoned);
  for (const telemetry::Sample& sample : clean.samples) {
    EXPECT_TRUE(sample.counters_ok);
    for (const double v : sample.counters) EXPECT_FALSE(std::isnan(v));
  }
}

}  // namespace
}  // namespace hetpapi
