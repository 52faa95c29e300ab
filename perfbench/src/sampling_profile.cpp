// sampling_profile: the SimpleMOC workload on 4 workers pinned
// round-robin across the Raptor Lake core types, with PAPI_TOT_INS
// overflowing at a period coprime with the segment length. The sample
// rings are drained on a fixed simulated cadence sized so no record is
// lost. Sampling writes records into the kernel's rings and the library
// decodes them on the drain — work counting reads never do.
//
// Drain semantics: after stop() the workload keeps draining until a
// drain returns no records. One drain is not enough in general: the
// library polls a slot before consuming it, so a LOST record the kernel
// could not yet write into a full ring is only published by a later
// pass (see NOTES.md).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "telemetry/sampler.hpp"
#include "workload/simplemoc.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

constexpr int kWorkers = 4;
/// Prime, so coprime with the 200,000-instruction segment.
constexpr std::uint64_t kPeriod = 100'003;
constexpr std::uint64_t kFullSegments = 20'000;
constexpr std::uint64_t kTinySegments = 400;
/// Simulated drain cadence and ring size: a worker writes at most a few
/// dozen records per 10 ms, so a 512-record ring never fills. The ring
/// is sized to the cadence, as a profiler sizes its mmap buffer; the
/// kernel default (4,096 records) would stream 2 MB of ring memory
/// through the caches for no extra records.
constexpr auto kCadence = std::chrono::milliseconds(10);
constexpr std::size_t kRingRecords = 512;

struct World {
  std::unique_ptr<simkernel::SimKernel> kernel;
  std::unique_ptr<papi::SimBackend> backend;
  std::unique_ptr<papi::Library> lib;
  std::vector<simkernel::Tid> tids;
  std::vector<int> sets;
  std::vector<std::string> pinned_label;  // per worker
  bool ok = false;
};

std::unique_ptr<World> build_world(std::uint64_t seed, std::uint64_t segments,
                                   Tracer* tracer) {
  auto w = std::make_unique<World>();
  const cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();
  {
    Scope span(tracer, span_id(tracer, "simkernel.kernel_ctor"));
    simkernel::SimKernel::Config config;
    config.seed = seed;
    config.perf.sample_ring_capacity = kRingRecords;
    w->kernel = std::make_unique<simkernel::SimKernel>(machine, config);
  }
  w->backend = std::make_unique<papi::SimBackend>(w->kernel.get());
  const int num_types = static_cast<int>(machine.core_types.size());
  workload::SimpleMocConfig moc;
  moc.segments = segments;
  for (int i = 0; i < kWorkers; ++i) {
    const auto type = static_cast<cpumodel::CoreTypeId>(i % num_types);
    w->tids.push_back(w->kernel->spawn(
        std::make_shared<workload::SimpleMocProgram>(moc),
        simkernel::CpuSet::of(machine.cpus_of_type(type))));
  }
  {
    Scope span(tracer, span_id(tracer, "papi.library_init"));
    auto lib = papi::Library::init(w->backend.get());
    if (!lib) {
      setup_failed("Library::init", lib.status().to_string());
      return w;
    }
    w->lib = std::move(*lib);
  }
  // Core-type labels as read_samples stamps them: the detection ladder's
  // label of the PMU serving each type.
  std::vector<std::string> label_by_type(static_cast<std::size_t>(num_types));
  for (const simkernel::PmuDesc* pmu : w->kernel->pmus().core_pmus()) {
    for (const pfm::ActivePmu& active : w->lib->pfm().pmus()) {
      if (active.sysfs_name == pmu->sysfs_name && active.table != nullptr) {
        label_by_type[static_cast<std::size_t>(pmu->core_type)] =
            w->lib->core_type_for_pmu(active.table->pfm_name);
      }
    }
  }
  for (int i = 0; i < kWorkers; ++i) {
    w->pinned_label.push_back(label_by_type[static_cast<std::size_t>(i % num_types)]);
    int set = -1;
    {
      Scope span(tracer, span_id(tracer, "papi.eventset_build"));
      auto created = w->lib->create_eventset();
      if (!created) {
        setup_failed("create_eventset", created.status().to_string());
        return w;
      }
      set = *created;
      Status s = w->lib->attach(set, w->tids[static_cast<std::size_t>(i)]);
      if (s.is_ok()) s = w->lib->add_event(set, "PAPI_TOT_INS");
      if (!s.is_ok()) {
        setup_failed("EventSet", s.to_string());
        return w;
      }
    }
    {
      Scope span(tracer, span_id(tracer, "papi.set_overflow"));
      const Status s = w->lib->set_overflow(
          set, 0, kPeriod, [](const papi::Library::OverflowEvent&) {});
      if (!s.is_ok()) {
        setup_failed("set_overflow", s.to_string());
        return w;
      }
    }
    if (const Status s = w->lib->start(set); !s.is_ok()) {
      setup_failed("start", s.to_string());
      return w;
    }
    w->sets.push_back(set);
  }
  w->ok = true;
  return w;
}

/// Every pass replays the same run, so each series keeps its
/// per-position minimum over passes (see ReplayMin).
struct Totals {
  ReplayMin step_s;             // per cadence step, drains included
  ReplayMin read_ns;            // per read_samples call
  ReplayMin tick_to_sample_us;  // cadence step start -> drained
  double pass_sim_s = 0.0;
  std::uint64_t pass_records = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t records = 0;
  std::uint64_t lost = 0;
  std::uint64_t crossings = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t slices = 0;
  std::uint64_t limited_slices = 0;
  std::uint64_t post_stop_drains = 0;
  std::size_t max_records_per_drain = 0;
  double loop_host_s = 0.0;
  double sim_s = 0.0;
};

/// One profiled run of the workload to completion, then the drain after
/// stop() until a pass comes back empty.
void run_pass(World& w, Tracer* tracer, Outcome& out, Totals& t) {
  const std::uint32_t run_for_id = span_id(tracer, "simkernel.run_for");
  const std::uint32_t drain_id = span_id(tracer, "papi.read_samples");
  simkernel::SimKernel& kernel = *w.kernel;
  std::vector<std::uint64_t> delivered(kWorkers, 0);
  std::vector<std::uint64_t> lost(kWorkers, 0);
  std::vector<std::uint64_t> foreign(kWorkers, 0);

  // One drain of worker i's set; returns records plus lost seen.
  const auto drain = [&](int i) -> std::uint64_t {
    const std::int64_t t0 = now_ns();
    Expected<papi::SampleBatch> batch = make_error(StatusCode::kBug, "unset");
    {
      Scope span(tracer, drain_id);
      batch = w.lib->read_samples(w.sets[static_cast<std::size_t>(i)]);
    }
    t.read_ns.add(static_cast<double>(now_ns() - t0));
    ++t.read_calls;
    if (!batch) {
      ++t.read_errors;
      return 0;
    }
    const auto idx = static_cast<std::size_t>(i);
    delivered[idx] += batch->samples.size();
    lost[idx] += batch->lost;
    for (const papi::Sample& s : batch->samples) {
      if (s.core_type != w.pinned_label[idx]) ++foreign[idx];
    }
    t.max_records_per_drain = std::max(t.max_records_per_drain, batch->samples.size());
    return batch->samples.size() + batch->lost;
  };

  const std::int64_t loop_start = now_ns();
  const SimTime start = kernel.now();
  t.step_s.restart();
  t.read_ns.restart();
  t.tick_to_sample_us.restart();
  while (kernel.any_thread_alive()) {
    const std::int64_t step_start = now_ns();
    {
      Scope span(tracer, run_for_id);
      kernel.run_for(kCadence);
    }
    ++t.slices;
    if (kernel.governor().package_power().value >=
        kLimitedTolerance * kernel.governor().rapl().allowed_power().value) {
      ++t.limited_slices;
    }
    std::uint64_t step_records = 0;
    for (int i = 0; i < kWorkers; ++i) step_records += drain(i);
    const std::int64_t step_ns = now_ns() - step_start;
    t.tick_to_sample_us.add(static_cast<double>(step_ns) * 1e-3);
    t.step_s.add(static_cast<double>(step_ns) * 1e-9);
  }
  std::vector<std::uint64_t> counters(kWorkers, 0);
  for (int i = 0; i < kWorkers; ++i) {
    auto values = w.lib->stop(w.sets[static_cast<std::size_t>(i)]);
    ++out.attempted;
    if (!values || values->empty()) {
      ++out.failed;
      continue;
    }
    counters[static_cast<std::size_t>(i)] =
        static_cast<std::uint64_t>(std::max<long long>(0, (*values)[0]));
  }
  for (bool more = true; more;) {
    more = false;
    for (int i = 0; i < kWorkers; ++i) more = drain(i) > 0 || more;
    ++t.post_stop_drains;
  }
  t.loop_host_s += seconds_since(loop_start);
  t.pass_sim_s = std::chrono::duration<double>(kernel.now() - start).count();
  t.sim_s += t.pass_sim_s;

  bool reconciled = true;
  bool no_foreign = true;
  bool exact = true;
  for (int i = 0; i < kWorkers; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t crossings = counters[idx] / kPeriod;
    t.crossings += crossings;
    t.records += delivered[idx];
    t.lost += lost[idx];
    out.attempted += crossings;
    out.failed += lost[idx] +
                  (crossings > delivered[idx] + lost[idx]
                       ? crossings - delivered[idx] - lost[idx]
                       : 0);
    reconciled = reconciled && delivered[idx] + lost[idx] == crossings;
    no_foreign = no_foreign && foreign[idx] == 0;
    const simkernel::ThreadGroundTruth* truth = kernel.ground_truth(w.tids[idx]);
    exact = exact && truth != nullptr && truth->total().instructions == counters[idx];
  }
  t.pass_records = 0;
  for (const std::uint64_t d : delivered) t.pass_records += d;
  out.check(reconciled, "sampling_profile: delivered + lost equals crossings per worker");
  out.check(no_foreign, "sampling_profile: zero foreign-core-type samples");
  out.check(exact, "sampling_profile: stopped counters equal ground truth");
}

}  // namespace

Outcome run_sampling_profile(const Options& opts, double seconds, Tracer* tracer) {
  Outcome out;
  const std::uint64_t segments = opts.tiny ? kTinySegments : kFullSegments;
  std::vector<double> setup_s;
  std::unique_ptr<World> world = build_timed(
      kSetupReps, setup_s, [&] { return build_world(opts.seed, segments, tracer); });

  Totals t;
  int passes = 0;
  const std::int64_t run_start = now_ns();
  if (tracer != nullptr) tracer->open_window();
  do {
    if (passes > 0) {
      if (tracer != nullptr) tracer->close_window();
      rebuild_timed(world, setup_s,
                    [&] { return build_world(opts.seed, segments, tracer); });
      if (tracer != nullptr) tracer->open_window();
    }
    out.check(world->ok, "sampling_profile: world set up");
    if (!world->ok) return out;
    run_pass(*world, tracer, out, t);
    ++passes;
  } while (seconds_since(run_start) < seconds);
  if (tracer != nullptr) tracer->close_window();

  out.check(t.lost == 0, "sampling_profile: no record lost");
  out.check(t.read_errors == 0, "sampling_profile: every drain returned OK");
  out.attempted += t.read_calls;
  out.failed += t.read_errors;
  std::printf("sampling_profile: passes=%d segments=%llu period=%llu "
              "records=%llu lost=%llu max_records_per_drain=%zu "
              "post_stop_drains=%llu\n",
              passes, static_cast<unsigned long long>(segments),
              static_cast<unsigned long long>(kPeriod),
              static_cast<unsigned long long>(t.records),
              static_cast<unsigned long long>(t.lost), t.max_records_per_drain,
              static_cast<unsigned long long>(t.post_stop_drains));

  out.loop_host_s = t.loop_host_s;
  out.loop_sim_s = t.sim_s;
  out.e2e("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const double pass_host_s = t.step_s.sum();
  out.e2e("sim_speed", t.pass_sim_s / pass_host_s, "sim_s/s", static_cast<std::size_t>(passes));
  out.e2e("read_ns_p50", quantile(t.read_ns.values(), 0.5), "ns", t.read_ns.values().size());
  out.e2e("read_ns_p99", quantile(t.read_ns.values(), 0.99), "ns", t.read_ns.values().size());
  out.e2e("tick_to_sample_us_p50", quantile(t.tick_to_sample_us.values(), 0.5), "us",
          t.tick_to_sample_us.values().size());
  out.e2e("tick_to_sample_us_p99", quantile(t.tick_to_sample_us.values(), 0.99), "us",
          t.tick_to_sample_us.values().size());
  out.e2e("samples_per_s", static_cast<double>(t.pass_records) / pass_host_s, "1/s",
          t.records);

  if (tracer != nullptr) {
    const double ticks = t.sim_s * 2e3;  // 500 us tick
    // Two P and two E workers at SimpleMOC's mean switching activity;
    // the HPL load (every core busy) for the power-limited comparison.
    const std::vector<double> unlimited = replay_governor(
        {0, 2, 16, 17}, 0.85, opts.seed, tracer, "cpumodel.governor_step_unlimited");
    const std::vector<double> limited =
        replay_governor(all_primary_cpus(cpumodel::raptor_lake_i7_13700()), 1.0,
                        opts.seed, tracer, "cpumodel.governor_step_limited");
    // The telemetry layer on this workload's machine: Sampler::sample
    // reads frequencies, temperature and RAPL energy through sysfs.
    telemetry::Sampler sampler(world->kernel.get());
    sampler.reset();
    std::vector<double> sample_ns;
    for (int batch = 0; batch < 30; ++batch) {
      constexpr std::uint32_t kCalls = 20;
      const std::int64_t t0 = now_ns();
      {
        Scope span(tracer, span_id(tracer, "telemetry.sampler_sample"), kCalls);
        for (std::uint32_t i = 0; i < kCalls; ++i) (void)sampler.sample();
      }
      sample_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    }
    out.layer("cpumodel.governor_step_limited_ns", quantile(limited, 0.5), "ns",
              limited.size());
    out.layer("telemetry.sampler_sample_us", quantile(sample_ns, 0.5) * 1e-3, "us",
              sample_ns.size());
    out.layer("simkernel.run_for_ns_per_tick",
              tracer->total_ns("simkernel.run_for") / ticks, "ns",
              tracer->calls("simkernel.run_for"));
    out.layer("simkernel.ticks", ticks, "count");
    out.layer("simkernel.kernel_ctor_ms",
              quantile(tracer->per_call_ns("simkernel.kernel_ctor"), 0.5) * 1e-6,
              "ms", tracer->calls("simkernel.kernel_ctor"));
    out.layer("simkernel.sample_crossings", static_cast<double>(t.crossings), "count");
    out.layer("cpumodel.governor_step_unlimited_ns", quantile(unlimited, 0.5), "ns",
              unlimited.size());
    out.layer("cpumodel.power_limited_share",
              static_cast<double>(t.limited_slices) /
                  static_cast<double>(std::max<std::uint64_t>(1, t.slices)),
              "ratio", t.slices);
    out.layer("papi.library_init_ms",
              quantile(tracer->per_call_ns("papi.library_init"), 0.5) * 1e-6,
              "ms", tracer->calls("papi.library_init"));
    out.layer("papi.eventset_build_ms",
              quantile(tracer->per_call_ns("papi.eventset_build"), 0.5) * 1e-6,
              "ms", tracer->calls("papi.eventset_build"));
    out.layer("papi.set_overflow_us",
              quantile(tracer->per_call_ns("papi.set_overflow"), 0.5) * 1e-3, "us",
              tracer->calls("papi.set_overflow"));
    const double drain_ns = tracer->total_ns("papi.read_samples");
    out.layer("papi.read_samples_us",
              quantile(tracer->per_call_ns("papi.read_samples"), 0.5) * 1e-3, "us",
              tracer->calls("papi.read_samples"));
    out.layer("papi.read_samples_ns_per_record",
              t.records > 0 ? drain_ns / static_cast<double>(t.records) : 0.0, "ns",
              t.records);
    out.layer("papi.samples_delivered", static_cast<double>(t.records), "count");
    out.layer("papi.samples_lost", static_cast<double>(t.lost), "count");
    out.layer("papi.read_errors", static_cast<double>(t.read_errors), "count");
  }
  return out;
}

}  // namespace perfbench
