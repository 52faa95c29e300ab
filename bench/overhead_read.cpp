// §V-5 overhead analysis: the multi-group EventSet design adds "an extra
// layer of indirection" — every start/stop/read now fans out across one
// perf group per PMU type. This bench quantifies the cost of the read
// path as the group count grows, the rdpmc fast path against read(2),
// and — when the host kernel allows perf_event_open — the *real* syscall
// read cost for comparison with the simulated backend's bookkeeping.
#include <benchmark/benchmark.h>

#include "cpumodel/machine.hpp"
#include "linuxkernel/linux_backend.hpp"
#include "papi/fault_injection.hpp"
#include "papi/library.hpp"
#include "papi/marker.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace {

using namespace hetpapi;
using papi::Library;
using papi::LibraryConfig;
using simkernel::CpuSet;
using simkernel::SimKernel;

struct Fixture {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<papi::SimBackend> backend;
  std::unique_ptr<papi::FaultInjectingBackend> injector;
  std::unique_ptr<Library> lib;
  int set = -1;

  explicit Fixture(const std::vector<std::string>& events,
                   bool multiplex = false, bool use_rdpmc = false,
                   const char* fault_profile = nullptr,
                   const char* machine_preset = "raptorlake") {
    kernel = std::make_unique<SimKernel>(
        *cpumodel::machine_preset_by_name(machine_preset));
    backend = std::make_unique<papi::SimBackend>(kernel.get());
    if (fault_profile != nullptr) {
      injector = std::make_unique<papi::FaultInjectingBackend>(
          backend.get(), *papi::FaultProfile::named(fault_profile), 1);
    }
    workload::PhaseSpec phase;
    const auto tid = kernel->spawn(
        std::make_shared<workload::FixedWorkProgram>(phase,
                                                     1'000'000'000'000ULL),
        CpuSet::of({0}));
    backend->set_default_target(tid);
    LibraryConfig config;
    config.use_rdpmc = use_rdpmc;
    config.call_overhead_instructions = 0;  // measuring, not modelling
    auto created = Library::init(
        injector ? static_cast<papi::Backend*>(injector.get())
                 : backend.get(),
        config);
    lib = std::move(*created);
    set = *lib->create_eventset();
    for (const std::string& event : events) {
      const Status added = lib->add_event(set, event);
      if (!added.is_ok()) {
        throw std::runtime_error("add_event: " + added.to_string());
      }
    }
    if (multiplex) (void)lib->set_multiplex(set);
    (void)lib->start(set);
    kernel->run_for(std::chrono::milliseconds(50));
  }
};

void BM_Read_OneGroup_SinglePmu(benchmark::State& state) {
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_OneGroup_SinglePmu);

void BM_Read_TwoGroups_Hybrid(benchmark::State& state) {
  // The paper's case: equivalent events on both core PMUs => two perf
  // groups => two reads per collection.
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY",
             "adl_glc::CPU_CLK_UNHALTED:THREAD",
             "adl_grt::CPU_CLK_UNHALTED:THREAD"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_TwoGroups_Hybrid);

void BM_Read_DerivedPreset_Hybrid(benchmark::State& state) {
  // One preset that expands to a native per core PMU; read() folds the
  // constituents into a single transparent sum (§V-2).
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_DerivedPreset_Hybrid);

void BM_ReadQualified_DerivedPreset_Hybrid(benchmark::State& state) {
  // The qualified read keeps the per-PMU constituents instead of folding
  // them away — this is the extra summation/bookkeeping indirection the
  // per-core-type breakdown costs over read().
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"});
  for (auto _ : state) {
    auto readings = f.lib->read_qualified(f.set);
    benchmark::DoNotOptimize(readings);
  }
}
BENCHMARK(BM_ReadQualified_DerivedPreset_Hybrid);

// --- three-PMU hybrid (N-type generalization) --------------------------------
// The same read paths on the Meteor-Lake-like P/E/LP-E model: every
// collection fans out across three perf groups, so these quantify how
// the indirection §V-5 measures scales from two PMU types to three.

void BM_Read_ThreeGroups_TriHybrid(benchmark::State& state) {
  Fixture f({"mtl_rwc::INST_RETIRED:ANY", "mtl_cmt::INST_RETIRED:ANY",
             "mtl_lpe::INST_RETIRED:ANY"},
            false, false, nullptr, "meteorlake");
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_ThreeGroups_TriHybrid);

void BM_Read_DerivedPreset_TriHybrid(benchmark::State& state) {
  // One preset, three constituents folded into the transparent sum.
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"}, false, false, nullptr,
            "meteorlake");
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_DerivedPreset_TriHybrid);

void BM_ReadQualified_DerivedPreset_TriHybrid(benchmark::State& state) {
  // The qualified breakdown now carries three labelled parts per slot.
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"}, false, false, nullptr,
            "meteorlake");
  for (auto _ : state) {
    auto readings = f.lib->read_qualified(f.set);
    benchmark::DoNotOptimize(readings);
  }
}
BENCHMARK(BM_ReadQualified_DerivedPreset_TriHybrid);

void BM_ReadChecked_DerivedPreset_Hybrid(benchmark::State& state) {
  // The tolerant read: the same group fan-out as read() plus the
  // per-slot validity bookkeeping the degradation machinery threads
  // through — the A/B partner that shows the hardening stays off the
  // plain read's hot path.
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"});
  for (auto _ : state) {
    auto reading = f.lib->read_checked(f.set);
    benchmark::DoNotOptimize(reading);
  }
}
BENCHMARK(BM_ReadChecked_DerivedPreset_Hybrid);

void BM_Read_ThroughIdleFaultInjector(benchmark::State& state) {
  // The fault-injection decorator with the "none" profile: what the
  // chaos seam costs when plumbed in but idle (one ledger lookup and a
  // forwarded virtual call per backend operation).
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"}, false, false, "none");
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_ThroughIdleFaultInjector);

void BM_ReadQualified_SinglePmu(benchmark::State& state) {
  // Breakdown structure on a non-derived set: one constituent per slot,
  // so this isolates the allocation cost of the qualified result shape.
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD"});
  for (auto _ : state) {
    auto readings = f.lib->read_qualified(f.set);
    benchmark::DoNotOptimize(readings);
  }
}
BENCHMARK(BM_ReadQualified_SinglePmu);

void BM_Read_ThreeGroups_HybridPlusUncore(benchmark::State& state) {
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY",
             "unc_imc_0::UNC_M_CAS_COUNT:RD"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_ThreeGroups_HybridPlusUncore);

void BM_Read_MultiplexedTwelveGroups(benchmark::State& state) {
  std::vector<std::string> events;
  const char* names[] = {
      "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
      "adl_glc::LONGEST_LAT_CACHE:MISS",
      "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
      "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
      "adl_glc::RESOURCE_STALLS",
      "adl_glc::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
  };
  for (int copy = 0; copy < 2; ++copy) {
    events.insert(events.end(), std::begin(names), std::end(names));
  }
  Fixture f(events, /*multiplex=*/true);
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_MultiplexedTwelveGroups);

void BM_Read_RdpmcFastPath(benchmark::State& state) {
  // A singleton group served by the userspace counter read.
  Fixture f({"adl_glc::INST_RETIRED:ANY"}, false, /*use_rdpmc=*/true);
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_RdpmcFastPath);

void BM_Read_SyscallPath(benchmark::State& state) {
  Fixture f({"adl_glc::INST_RETIRED:ANY"}, false, /*use_rdpmc=*/false);
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_SyscallPath);

// --- the allocation-free read plan (§V-5's low-tens-of-ns target) ------------
// read_into() reuses the caller's buffer and the EventSet's internal
// scratch, so the steady-state iteration allocates nothing; with
// use_rdpmc the whole hybrid group is served by seqlock user-page
// reads. The A/B pair below is what tools/bench_check guards in CI.

void BM_ReadInto_RdpmcPlan_Hybrid(benchmark::State& state) {
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY",
             "adl_glc::CPU_CLK_UNHALTED:THREAD",
             "adl_grt::CPU_CLK_UNHALTED:THREAD"},
            false, /*use_rdpmc=*/true);
  std::vector<long long> values;
  for (auto _ : state) {
    const Status read = f.lib->read_into(f.set, values);
    benchmark::DoNotOptimize(read);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_ReadInto_RdpmcPlan_Hybrid);

void BM_ReadInto_SyscallPath_Hybrid(benchmark::State& state) {
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY",
             "adl_glc::CPU_CLK_UNHALTED:THREAD",
             "adl_grt::CPU_CLK_UNHALTED:THREAD"},
            false, /*use_rdpmc=*/false);
  std::vector<long long> values;
  for (auto _ : state) {
    const Status read = f.lib->read_into(f.set, values);
    benchmark::DoNotOptimize(read);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_ReadInto_SyscallPath_Hybrid);

void BM_ReadQualifiedInto_DerivedPreset_Hybrid(benchmark::State& state) {
  // The in-place qualified read: same per-PMU breakdown as
  // BM_ReadQualified_DerivedPreset_Hybrid, but the result shape is
  // verified and updated in place instead of rebuilt — the sampler's
  // per-tick path.
  Fixture f({"PAPI_TOT_INS", "PAPI_TOT_CYC"});
  std::vector<papi::QualifiedReading> readings;
  for (auto _ : state) {
    const Status read = f.lib->read_qualified_into(f.set, readings);
    benchmark::DoNotOptimize(read);
    benchmark::DoNotOptimize(readings.data());
  }
}
BENCHMARK(BM_ReadQualifiedInto_DerivedPreset_Hybrid);

void BM_Marker_RegionEnterExit(benchmark::State& state) {
  // One begin/end pair of the LIKWID-style marker API over the rdpmc
  // read plan: two user-page reads plus the per-region accumulation.
  Fixture f({"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD"},
            false, /*use_rdpmc=*/true);
  papi::MarkerManager markers;
  // The sim-backend configuration: regions are timed by the simulated
  // clock (what the monitored harnesses install), not the host clock.
  markers.set_time_source(
      +[](void* k) {
        return static_cast<std::uint64_t>(
            static_cast<SimKernel*>(k)->now().since_epoch.count());
      },
      f.kernel.get());
  if (!markers.attach_thread(f.lib.get(), f.set).is_ok()) {
    state.SkipWithError("marker attach failed");
    return;
  }
  for (auto _ : state) {
    (void)markers.region_begin("bench");
    const Status ended = markers.region_end("bench");
    benchmark::DoNotOptimize(ended);
  }
}
BENCHMARK(BM_Marker_RegionEnterExit);

// --- per-component dispatch cost ---------------------------------------------
// The componentized core routes every read through the registry; these
// cases isolate what each component contributes to a collection so the
// fan-out cost is attributable (papi_component_avail's view of §V-5).

void BM_Read_Component_PerfCore(benchmark::State& state) {
  Fixture f({"adl_glc::INST_RETIRED:ANY"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_Component_PerfCore);

void BM_Read_Component_Rapl(benchmark::State& state) {
  Fixture f({"rapl::RAPL_ENERGY_PKG"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_Component_Rapl);

void BM_Read_Component_Sysinfo(benchmark::State& state) {
  // Pure software reads: no perf group, the cost is the procfs parse.
  Fixture f({"sysinfo::SYS_CTX_SWITCHES", "sysinfo::SYS_CPU_TIME_MS"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_Component_Sysinfo);

void BM_Read_Component_MixedThree(benchmark::State& state) {
  // One collection dispatched across three peer components.
  Fixture f({"adl_glc::INST_RETIRED:ANY", "rapl::RAPL_ENERGY_PKG",
             "sysinfo::SYS_CTX_SWITCHES"});
  for (auto _ : state) {
    auto values = f.lib->read(f.set);
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_Read_Component_MixedThree);

// --- real kernel comparison (skipped when perf_event is unavailable) ---------

void BM_RealPerf_ReadGroup(benchmark::State& state) {
  if (!linuxkernel::perf_event_available()) {
    state.SkipWithError("perf_event_open unavailable in this environment");
    return;
  }
  linuxkernel::LinuxBackend backend;
  simkernel::PerfEventAttr attr;
  attr.type = simkernel::kPerfTypeSoftware;
  attr.config =
      static_cast<std::uint64_t>(simkernel::CountKind::kTaskClockNs);
  attr.read_format = simkernel::kFormatGroup |
                     simkernel::kFormatTotalTimeEnabled |
                     simkernel::kFormatTotalTimeRunning;
  attr.disabled = false;
  const auto n_events = state.range(0);
  std::vector<int> fds;
  int leader = -1;
  for (std::int64_t i = 0; i < n_events; ++i) {
    auto fd = backend.perf_event_open(attr, 0, -1, leader, 0);
    if (!fd) {
      state.SkipWithError("open failed");
      return;
    }
    if (leader < 0) leader = *fd;
    fds.push_back(*fd);
  }
  for (auto _ : state) {
    auto values = backend.perf_read_group(leader);
    benchmark::DoNotOptimize(values);
  }
  for (int fd : fds) (void)backend.perf_close(fd);
}
BENCHMARK(BM_RealPerf_ReadGroup)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults the machine-readable output to
// BENCH_overhead_read.json (the repo-wide bench artifact convention) so
// the per-component dispatch costs land on disk without extra flags.
// Explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_overhead_read.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
