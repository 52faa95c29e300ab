// hpl_table2: the paper's headline Table II row. All-core OpenBLAS HPL,
// then Intel HPL, on the Raptor Lake model (16 workers, 1 ms tick), back
// to back on one host thread. The master worker is sampled at a
// simulated 1 Hz through telemetry::Sampler with qualified PAPI_TOT_INS
// and PAPI_TOT_CYC. Host time goes almost entirely to simulation ticks,
// the RAPL-limited governor and the HPL model; the library does about
// one read per simulated second.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "cpumodel/machine.hpp"
#include "hpl_reference.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/sampler.hpp"
#include "workload/hpl.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

/// The paper's Table II problem size, run once per run and checked.
constexpr int kFullN = 57024;
/// Size of the timed, replayed pairs: long enough (about 100 simulated
/// seconds a pair) for the RAPL window to saturate and the governor to
/// run power-limited, short enough for dozens of replays a run.
constexpr int kReplayN = 29952;
constexpr int kTinyN = 9600;
constexpr int kNb = 192;
/// The paper's all-core Table II row (Gflops).
constexpr double kPaperOpenblas = 290.51;
constexpr double kPaperIntel = 457.38;

struct World {
  std::unique_ptr<simkernel::SimKernel> kernel;
  std::unique_ptr<workload::HplSimulation> hpl;
  std::vector<simkernel::Tid> tids;
  std::unique_ptr<papi::SimBackend> backend;
  std::unique_ptr<papi::Library> lib;
  int set = -1;
  std::unique_ptr<telemetry::Sampler> sampler;
  bool ok = false;
};

std::unique_ptr<World> build_world(const cpumodel::MachineSpec& machine,
                                   const workload::HplConfig& config,
                                   std::uint64_t kernel_seed, Tracer* tracer) {
  auto w = std::make_unique<World>();
  {
    Scope span(tracer, span_id(tracer, "simkernel.kernel_ctor"));
    simkernel::SimKernel::Config kconfig;
    kconfig.tick = std::chrono::milliseconds(1);
    kconfig.seed = kernel_seed;
    w->kernel = std::make_unique<simkernel::SimKernel>(machine, kconfig);
  }
  telemetry::wait_for_thermal_settle(*w->kernel, 35.0, 600.0);
  const std::vector<int> cpus = all_primary_cpus(machine);
  w->hpl = std::make_unique<workload::HplSimulation>(
      config, static_cast<int>(cpus.size()));
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    w->tids.push_back(w->kernel->spawn(w->hpl->make_worker(static_cast<int>(i)),
                                       simkernel::CpuSet::of({cpus[i]})));
  }
  w->backend = std::make_unique<papi::SimBackend>(w->kernel.get());
  {
    Scope span(tracer, span_id(tracer, "papi.library_init"));
    auto lib = papi::Library::init(w->backend.get());
    if (!lib) {
      setup_failed("Library::init", lib.status().to_string());
      return w;
    }
    w->lib = std::move(*lib);
  }
  {
    Scope span(tracer, span_id(tracer, "papi.eventset_build"));
    auto set = w->lib->create_eventset();
    if (!set) {
      setup_failed("create_eventset", set.status().to_string());
      return w;
    }
    w->set = *set;
    Status s = w->lib->attach(w->set, w->tids.front());
    if (s.is_ok()) s = w->lib->add_event(w->set, "PAPI_TOT_INS");
    if (s.is_ok()) s = w->lib->add_event(w->set, "PAPI_TOT_CYC");
    if (s.is_ok()) s = w->lib->start(w->set);
    if (!s.is_ok()) {
      setup_failed("EventSet", s.to_string());
      return w;
    }
  }
  w->sampler = std::make_unique<telemetry::Sampler>(w->kernel.get());
  w->sampler->reset();
  w->sampler->attach_counters(w->lib.get(), w->set, /*qualified=*/true);
  w->ok = true;
  return w;
}

/// Host-side measurements accumulated across variant runs. Every pair
/// replays both variants identically, so each series keeps its
/// per-position minimum over pairs (see ReplayMin).
struct Timings {
  ReplayMin step_s[2];         // per 10 ms step, sample included
  ReplayMin sample_call_ns[2];  // Sampler::sample per call
  ReplayMin tick_to_sample_us[2];  // step start -> sample in hand
  double pair_sim_s[2] = {0.0, 0.0};
  std::uint64_t pair_samples[2] = {0, 0};
  std::uint64_t samples = 0;
  std::uint64_t slices = 0;
  std::uint64_t limited_slices = 0;
  double loop_host_s = 0.0;
  double sim_s = 0.0;
};

HplStats run_variant(World& w, std::size_t variant, Tracer* tracer, Outcome& out,
                     Timings& tm) {
  const std::uint32_t run_for_id = span_id(tracer, "simkernel.run_for");
  const std::uint32_t sample_id = span_id(tracer, "telemetry.sampler_sample");
  simkernel::SimKernel& kernel = *w.kernel;
  telemetry::Sampler& sampler = *w.sampler;

  const std::int64_t loop_start = now_ns();
  const SimTime start = kernel.now();
  std::uint64_t samples = 0;
  const auto take_sample = [&](std::int64_t step_start) {
    const std::int64_t t0 = now_ns();
    telemetry::Sample s;
    {
      Scope span(tracer, sample_id);
      s = sampler.sample();
    }
    const std::int64_t t1 = now_ns();
    tm.sample_call_ns[variant].add(static_cast<double>(t1 - t0));
    tm.tick_to_sample_us[variant].add(static_cast<double>(t1 - step_start) * 1e-3);
    ++tm.samples;
    ++samples;
    ++out.attempted;
    if (!s.counters_ok || s.counters.size() != 2) ++out.failed;
  };
  tm.step_s[variant].restart();
  tm.sample_call_ns[variant].restart();
  tm.tick_to_sample_us[variant].restart();
  take_sample(now_ns());  // t=0 baseline

  const SimDuration period = std::chrono::seconds(1);
  const SimDuration step = std::chrono::milliseconds(10);
  const SimTime deadline = start + std::chrono::seconds(3600);
  SimTime next_sample = kernel.now() + period;
  while (kernel.any_thread_alive() && kernel.now() < deadline) {
    const std::int64_t step_start = now_ns();
    {
      Scope span(tracer, run_for_id);
      kernel.run_for(step);
    }
    ++tm.slices;
    if (kernel.governor().package_power().value >=
        kLimitedTolerance * kernel.governor().rapl().allowed_power().value) {
      ++tm.limited_slices;
    }
    const bool sampled = kernel.now() >= next_sample;
    if (sampled) {
      take_sample(step_start);
      next_sample += period;
    }
    tm.step_s[variant].add(seconds_since(step_start));
  }
  tm.loop_host_s += seconds_since(loop_start);
  tm.pair_samples[variant] = samples;

  HplStats stats;
  const SimDuration elapsed = kernel.now() - start;
  tm.sim_s += std::chrono::duration<double>(elapsed).count();
  tm.pair_sim_s[variant] = std::chrono::duration<double>(elapsed).count();
  stats.elapsed_ns = elapsed.count();
  stats.gflops = w.hpl->gflops(elapsed).value;
  stats.work_instructions = w.hpl->work_instructions();
  stats.spin_instructions = w.hpl->spin_instructions();
  for (const simkernel::Tid tid : w.tids) {
    const simkernel::ThreadGroundTruth* truth = kernel.ground_truth(tid);
    if (truth == nullptr) continue;
    for (std::size_t t = 0; t < truth->per_type.size() && t < 2; ++t) {
      stats.instructions[t] += truth->per_type[t].instructions;
    }
  }
  out.check(!kernel.any_thread_alive(), "hpl_table2: HPL run completed");
  out.check(sampler.counter_health().ticks_failed == 0,
            "hpl_table2: no failed monitor ticks");

  // The final qualified read equals the master worker's ground truth,
  // constituent by constituent.
  std::vector<papi::QualifiedReading> readings;
  ++out.attempted;
  const bool read_ok = w.lib->read_qualified_into(w.set, readings).is_ok();
  if (!read_ok) ++out.failed;
  const simkernel::ThreadGroundTruth* master =
      kernel.ground_truth(w.tids.front());
  bool exact = read_ok && master != nullptr && readings.size() == 2;
  for (std::size_t slot = 0; exact && slot < readings.size(); ++slot) {
    for (const papi::QualifiedValue& part : readings[slot].parts) {
      std::size_t type = 0;
      while (type < kernel.machine().core_types.size() &&
             kernel.machine().core_types[type].pfm_pmu_name != part.pmu_name) {
        ++type;
      }
      if (type >= master->per_type.size()) {
        exact = false;
        break;
      }
      const simkernel::ExecCounts& truth = master->per_type[type];
      const std::uint64_t want = slot == 0 ? truth.instructions : truth.cycles;
      exact = exact && part.valid &&
              static_cast<std::uint64_t>(part.value) == want;
    }
  }
  out.check(exact, "hpl_table2: final qualified reads equal ThreadGroundTruth");
  (void)w.lib->stop(w.set);
  return stats;
}

bool same(const HplStats& got, const HplStats& want) {
  return got.elapsed_ns == want.elapsed_ns &&
         got.instructions[0] == want.instructions[0] &&
         got.instructions[1] == want.instructions[1] &&
         got.work_instructions == want.work_instructions &&
         got.spin_instructions == want.spin_instructions &&
         std::fabs(got.gflops - want.gflops) <= 1e-9 * want.gflops;
}

std::uint64_t kernel_seed_for(std::uint64_t seed) {
  return kHplSeedBase + seed % kHplSeedCount;
}

void print_pair(int n, std::uint64_t kseed, int pairs, const HplStats (&stats)[2]) {
  std::printf("hpl_table2: N=%d kernel_seed=%llu pairs=%d\n", n,
              static_cast<unsigned long long>(kseed), pairs);
  for (int v = 0; v < 2; ++v) {
    const HplStats& s = stats[v];
    std::printf("  %-8s gflops=%.6f elapsed_ns=%lld ins=[%llu, %llu] "
                "work=%llu spin=%llu\n",
                v == 0 ? "OpenBLAS" : "Intel", s.gflops,
                static_cast<long long>(s.elapsed_ns),
                static_cast<unsigned long long>(s.instructions[0]),
                static_cast<unsigned long long>(s.instructions[1]),
                static_cast<unsigned long long>(s.work_instructions),
                static_cast<unsigned long long>(s.spin_instructions));
  }
}

/// Build and run one OpenBLAS-then-Intel pair of size `n` on fresh
/// worlds, checking each variant against its recorded reference.
bool run_pair(const cpumodel::MachineSpec& machine, int n, std::uint64_t kseed,
              Tracer* tracer, Outcome& out, Timings& tm, HplStats (&stats)[2]) {
  const HplReference* reference = find_hpl_reference(n, kseed);
  out.check(reference != nullptr,
            "hpl_table2: reference recorded for N=" + std::to_string(n));
  for (std::size_t v = 0; v < 2; ++v) {
    const workload::HplConfig config = v == 0 ? workload::HplConfig::openblas(n, kNb)
                                              : workload::HplConfig::intel(n, kNb);
    std::unique_ptr<World> world = build_world(machine, config, kseed, tracer);
    out.check(world->ok, "hpl_table2: world set up");
    if (!world->ok) return false;
    if (tracer != nullptr) tracer->open_window();
    stats[v] = run_variant(*world, v, tracer, out, tm);
    if (tracer != nullptr) tracer->close_window();
    if (reference != nullptr) {
      out.check(same(stats[v], reference->variant[v]),
                std::string("hpl_table2: ") + (v == 0 ? "OpenBLAS" : "Intel") +
                    " statistics equal the recorded reference");
    }
  }
  out.check(stats[1].gflops > stats[0].gflops, "hpl_table2: Intel beats OpenBLAS");
  return true;
}

}  // namespace

Outcome run_hpl_table2(const Options& opts, double seconds, Tracer* tracer) {
  Outcome out;
  const cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();
  const int n = opts.tiny ? kTinyN : kReplayN;
  const std::uint64_t kseed = kernel_seed_for(opts.seed);

  std::vector<double> setup_s;
  {
    int variant = 0;
    (void)build_timed(kSetupReps, setup_s, [&] {
      const workload::HplConfig config = variant++ % 2 == 0
                                             ? workload::HplConfig::openblas(n, kNb)
                                             : workload::HplConfig::intel(n, kNb);
      return build_world(machine, config, kseed, tracer);
    });
  }

  // The paper's row itself, once per run and untimed: checked against its
  // reference and compared with the published Gflops.
  if (!opts.tiny && tracer == nullptr) {
    Timings untimed;
    HplStats table[2];
    if (!run_pair(machine, kFullN, kseed, nullptr, out, untimed, table)) return out;
    print_pair(kFullN, kseed, 1, table);
    std::printf("  model vs paper Table II (all cores): OpenBLAS %.2f vs %.2f "
                "(%+.1f%%), Intel %.2f vs %.2f (%+.1f%%)\n",
                table[0].gflops, kPaperOpenblas,
                (table[0].gflops / kPaperOpenblas - 1.0) * 100.0, table[1].gflops,
                kPaperIntel, (table[1].gflops / kPaperIntel - 1.0) * 100.0);
  }

  Timings tm;
  HplStats last[2];
  int pairs = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    if (!run_pair(machine, n, kseed, tracer, out, tm, last)) return out;
    ++pairs;
  } while (now_ns() < deadline);
  print_pair(n, kseed, pairs, last);

  out.loop_host_s = tm.loop_host_s;
  const double pair_host_s = tm.step_s[0].sum() + tm.step_s[1].sum();
  const auto both = [](const ReplayMin (&series)[2]) {
    std::vector<double> values = series[0].values();
    values.insert(values.end(), series[1].values().begin(), series[1].values().end());
    return values;
  };
  const std::vector<double> call_ns = both(tm.sample_call_ns);
  const std::vector<double> tts_us = both(tm.tick_to_sample_us);
  out.loop_sim_s = tm.sim_s;
  out.e2e("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  out.e2e("sim_speed", (tm.pair_sim_s[0] + tm.pair_sim_s[1]) / pair_host_s, "sim_s/s",
          static_cast<std::size_t>(pairs));
  out.e2e("read_ns_p50", quantile(call_ns, 0.5), "ns", tm.samples);
  out.e2e("read_ns_p99", quantile(call_ns, 0.99), "ns", tm.samples);
  out.e2e("tick_to_sample_us_p50", quantile(tts_us, 0.5), "us", tm.samples);
  out.e2e("tick_to_sample_us_p99", quantile(tts_us, 0.99), "us", tm.samples);
  // The t=0 baseline sample precedes the first step.
  out.e2e("samples_per_s",
          static_cast<double>(tm.pair_samples[0] + tm.pair_samples[1] - 2) / pair_host_s,
          "1/s", tm.samples);

  if (tracer != nullptr) {
    const double ticks = tm.sim_s * 1e3;  // 1 ms tick
    const std::vector<double> limited = replay_governor(
        all_primary_cpus(machine), 1.0, kseed, tracer, "cpumodel.governor_step_limited");
    out.layer("simkernel.run_for_ns_per_tick",
              tracer->total_ns("simkernel.run_for") / ticks, "ns",
              tracer->calls("simkernel.run_for"));
    out.layer("simkernel.ticks", ticks, "count");
    out.layer("simkernel.kernel_ctor_ms",
              quantile(tracer->per_call_ns("simkernel.kernel_ctor"), 0.5) * 1e-6,
              "ms", tracer->calls("simkernel.kernel_ctor"));
    out.layer("cpumodel.governor_step_limited_ns", quantile(limited, 0.5), "ns",
              limited.size());
    out.layer("cpumodel.power_limited_share",
              static_cast<double>(tm.limited_slices) /
                  static_cast<double>(std::max<std::uint64_t>(1, tm.slices)),
              "ratio", tm.slices);
    out.layer("workload.hpl_work_instructions",
              static_cast<double>(last[0].work_instructions +
                                  last[1].work_instructions),
              "count");
    out.layer("workload.hpl_spin_instructions",
              static_cast<double>(last[0].spin_instructions +
                                  last[1].spin_instructions),
              "count");
    const std::vector<double> sample_ns =
        tracer->per_call_ns("telemetry.sampler_sample");
    out.layer("telemetry.sampler_sample_us", quantile(sample_ns, 0.5) * 1e-3,
              "us", sample_ns.size());
    out.layer("papi.library_init_ms",
              quantile(tracer->per_call_ns("papi.library_init"), 0.5) * 1e-6,
              "ms", tracer->calls("papi.library_init"));
    out.layer("papi.eventset_build_ms",
              quantile(tracer->per_call_ns("papi.eventset_build"), 0.5) * 1e-6,
              "ms", tracer->calls("papi.eventset_build"));
  }
  return out;
}

int record_hpl_references(const Options& opts) {
  (void)opts;
  const cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();
  std::printf("// Generated by: perfbench --record-references\n");
  for (const int n : {kTinyN, kReplayN, kFullN}) {
    for (std::uint64_t i = 0; i < kHplSeedCount; ++i) {
      const std::uint64_t kseed = kHplSeedBase + i;
      Outcome discarded;
      Timings tm;
      HplStats stats[2];
      if (!run_pair(machine, n, kseed, nullptr, discarded, tm, stats)) return 1;
      std::printf("    {%d, %llu, {", n, static_cast<unsigned long long>(kseed));
      for (int v = 0; v < 2; ++v) {
        const HplStats& s = stats[v];
        std::printf("{%.17g, %lldLL, {%lluULL, %lluULL}, %lluULL, %lluULL}%s",
                    s.gflops, static_cast<long long>(s.elapsed_ns),
                    static_cast<unsigned long long>(s.instructions[0]),
                    static_cast<unsigned long long>(s.instructions[1]),
                    static_cast<unsigned long long>(s.work_instructions),
                    static_cast<unsigned long long>(s.spin_instructions),
                    v == 0 ? ",\n      " : "");
      }
      std::printf("}},\n");
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace perfbench
