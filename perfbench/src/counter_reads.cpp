// counter_reads: one application thread calls measurement functions in a
// seeded mix — Library::read, read_into on the rdpmc plan and on the fd
// path, read_qualified_into, a multiplexed 12-event read and
// MarkerManager begin/end pairs — over derived-preset EventSets on
// raptorlake (2 PMU groups) and meteorlake (3 PMU groups). The kernels
// advance 1 ms of simulated time between batches. This is §V-5's cost of
// the multi-group EventSet: time goes to the library, the Backend seam
// and the simulated perf subsystem; scheduler and governor stay idle.
#include <cstdio>
#include <memory>

#include "base/rng.hpp"
#include "bench.hpp"
#include "cpumodel/machine.hpp"
#include "linuxkernel/linux_backend.hpp"
#include "papi/library.hpp"
#include "papi/marker.hpp"
#include "papi/sim_backend.hpp"
#include "papi/user_page_read.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

enum class Call {
  kRead,
  kReadIntoFd,
  kReadIntoRdpmc,
  kReadQualifiedInto,
  kReadMultiplexed,
  kMarkerPair,
};
constexpr int kCallKinds = 6;
constexpr const char* kCallSpan[kCallKinds] = {
    "papi.read",          "papi.read_into_fd",      "papi.read_into_rdpmc",
    "papi.read_qualified_into", "papi.read_multiplexed", "papi.marker_pair"};

/// Each (machine, call kind) pair appears this many times per batch.
constexpr std::size_t kRepeatsPerBatch = 6;
/// Batches per pass; every pass replays them on a fresh world.
constexpr std::uint64_t kBatchesPerPass = 3000;

/// Twelve raptorlake core events: more than the P-core PMU holds at
/// once, so the multiplexed set rotates.
constexpr const char* kMultiplexEvents[] = {
    "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
    "adl_glc::LONGEST_LAT_CACHE:MISS",
    "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
    "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
    "adl_glc::RESOURCE_STALLS",
    "adl_glc::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
};

struct Machine {
  std::unique_ptr<simkernel::SimKernel> kernel;
  std::unique_ptr<papi::SimBackend> backend;
  simkernel::Tid tid = simkernel::kInvalidTid;
  /// The multiplexed set measures its own thread: the library runs one
  /// EventSet per thread and component.
  simkernel::Tid mpx_tid = simkernel::kInvalidTid;
  std::unique_ptr<papi::Library> lib_fd;
  std::unique_ptr<papi::Library> lib_rdpmc;
  int set_fd = -1;
  int set_rdpmc = -1;
  int set_mpx = -1;  // raptorlake only
  /// One result buffer per call site, as a caller reusing buffers keeps
  /// them: a buffer shared across sets of different shapes would be
  /// reshaped on every switch.
  std::vector<long long> values_fd;
  std::vector<long long> values_rdpmc;
  std::vector<long long> values_mpx;
  std::vector<papi::QualifiedReading> qualified;
};

struct World {
  Machine machines[2];  // raptorlake, meteorlake
  std::unique_ptr<papi::MarkerManager> markers;  // raptorlake rdpmc set
  bool ok = false;
};

bool build_machine(Machine& m, const char* preset, bool with_multiplex,
                   std::uint64_t seed, Tracer* tracer) {
  {
    Scope span(tracer, span_id(tracer, "simkernel.kernel_ctor"));
    simkernel::SimKernel::Config config;
    config.seed = seed;
    m.kernel = std::make_unique<simkernel::SimKernel>(
        *cpumodel::machine_preset_by_name(preset), config);
  }
  m.backend = std::make_unique<papi::SimBackend>(m.kernel.get());
  // Pinned, so every seed sees the same placement (and the same resident
  // groups) and seeds vary only the order of the mix.
  m.tid = m.kernel->spawn(std::make_shared<workload::FixedWorkProgram>(
                              workload::PhaseSpec{}, 1'000'000'000'000'000ULL),
                          simkernel::CpuSet::of({0}));
  papi::LibraryConfig config;
  config.call_overhead_instructions = 0;
  for (const bool rdpmc : {false, true}) {
    config.use_rdpmc = rdpmc;
    std::unique_ptr<papi::Library>& lib = rdpmc ? m.lib_rdpmc : m.lib_fd;
    {
      Scope span(tracer, span_id(tracer, "papi.library_init"));
      auto created = papi::Library::init(m.backend.get(), config);
      if (!created) return setup_failed("Library::init", created.status().to_string());
      lib = std::move(*created);
    }
    Scope span(tracer, span_id(tracer, "papi.eventset_build"));
    auto set = lib->create_eventset();
    if (!set) return setup_failed("create_eventset", set.status().to_string());
    Status s = lib->attach(*set, m.tid);
    if (s.is_ok()) s = lib->add_event(*set, "PAPI_TOT_INS");
    if (s.is_ok()) s = lib->add_event(*set, "PAPI_TOT_CYC");
    if (s.is_ok()) s = lib->start(*set);
    if (!s.is_ok()) return setup_failed(preset, s.to_string());
    (rdpmc ? m.set_rdpmc : m.set_fd) = *set;
  }
  if (with_multiplex) {
    Scope span(tracer, span_id(tracer, "papi.eventset_build"));
    auto set = m.lib_fd->create_eventset();
    if (!set) return setup_failed("create_eventset", set.status().to_string());
    m.mpx_tid = m.kernel->spawn(std::make_shared<workload::FixedWorkProgram>(
                                    workload::PhaseSpec{}, 1'000'000'000'000'000ULL),
                                simkernel::CpuSet::of({2}));
    if (const Status s = m.lib_fd->attach(*set, m.mpx_tid); !s.is_ok()) {
      return setup_failed("attach", s.to_string());
    }
    for (int copy = 0; copy < 2; ++copy) {
      for (const char* name : kMultiplexEvents) {
        if (const Status s = m.lib_fd->add_event(*set, name); !s.is_ok()) {
          return setup_failed(name, s.to_string());
        }
      }
    }
    Status s = m.lib_fd->set_multiplex(*set);
    if (s.is_ok()) s = m.lib_fd->start(*set);
    if (!s.is_ok()) return setup_failed("multiplexed set", s.to_string());
    m.set_mpx = *set;
  }
  m.kernel->run_for(std::chrono::milliseconds(10));
  return true;
}

std::unique_ptr<World> build_world(std::uint64_t seed, Tracer* tracer) {
  auto w = std::make_unique<World>();
  if (!build_machine(w->machines[0], "raptorlake", true, seed, tracer) ||
      !build_machine(w->machines[1], "meteorlake", false, seed, tracer)) {
    return w;
  }
  w->markers = std::make_unique<papi::MarkerManager>();
  const Status attached = w->markers->attach_thread(w->machines[0].lib_rdpmc.get(),
                                                    w->machines[0].set_rdpmc);
  w->ok = attached.is_ok() || setup_failed("marker attach", attached.to_string());
  return w;
}

bool call(World& w, int machine, Call kind) {
  Machine& m = w.machines[machine];
  switch (kind) {
    case Call::kRead:
      return m.lib_fd->read(m.set_fd).has_value();
    case Call::kReadIntoFd:
      return m.lib_fd->read_into(m.set_fd, m.values_fd).is_ok();
    case Call::kReadIntoRdpmc:
      return m.lib_rdpmc->read_into(m.set_rdpmc, m.values_rdpmc).is_ok();
    case Call::kReadQualifiedInto:
      return m.lib_fd->read_qualified_into(m.set_fd, m.qualified).is_ok();
    case Call::kReadMultiplexed:
      return m.lib_fd->read_into(m.set_mpx, m.values_mpx).is_ok();
    case Call::kMarkerPair:
      return w.markers->region_begin("mix").is_ok() &&
             w.markers->region_end("mix").is_ok();
  }
  return false;
}

struct MixEntry {
  int machine = 0;
  Call kind = Call::kRead;
};

/// The seeded mix: every (machine, call kind) pair the machines support,
/// kRepeatsPerBatch times each, in a seeded order. Seeds vary the order,
/// never the composition, so every seed asks for the same work.
std::vector<MixEntry> make_mix(std::uint64_t seed) {
  std::vector<MixEntry> choices;
  for (int k = 0; k < kCallKinds; ++k) {
    choices.push_back({0, static_cast<Call>(k)});
    const auto kind = static_cast<Call>(k);
    if (kind != Call::kReadMultiplexed && kind != Call::kMarkerPair) {
      choices.push_back({1, kind});
    }
  }
  std::vector<MixEntry> mix;
  for (std::size_t r = 0; r < kRepeatsPerBatch; ++r) {
    mix.insert(mix.end(), choices.begin(), choices.end());
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.next() % i]);
  }
  return mix;
}

/// Reads of every non-multiplexed set equal the kernel's ground truth.
bool reads_equal_truth(World& w) {
  for (Machine& m : w.machines) {
    const simkernel::ThreadGroundTruth* truth = m.kernel->ground_truth(m.tid);
    if (truth == nullptr) return false;
    const simkernel::ExecCounts total = truth->total();
    for (papi::Library* lib : {m.lib_fd.get(), m.lib_rdpmc.get()}) {
      const int set = lib == m.lib_fd.get() ? m.set_fd : m.set_rdpmc;
      auto values = lib->read(set);
      if (!values || values->size() != 2 ||
          static_cast<std::uint64_t>((*values)[0]) != total.instructions ||
          static_cast<std::uint64_t>((*values)[1]) != total.cycles) {
        return false;
      }
    }
    auto qualified = m.lib_fd->read_qualified(m.set_fd);
    if (!qualified || qualified->size() != 2) return false;
    for (std::size_t slot = 0; slot < 2; ++slot) {
      for (const papi::QualifiedValue& part : (*qualified)[slot].parts) {
        const auto& types = m.kernel->machine().core_types;
        std::size_t type = 0;
        while (type < types.size() && types[type].pfm_pmu_name != part.pmu_name) {
          ++type;
        }
        if (type >= truth->per_type.size()) return false;
        const simkernel::ExecCounts& c = truth->per_type[type];
        if (static_cast<std::uint64_t>(part.value) !=
            (slot == 0 ? c.instructions : c.cycles)) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Time `fn` in batches of calls too short to clock one by one; returns
/// per-call ns of each batch.
constexpr std::uint32_t kAloneCalls = 500;

template <typename Fn>
std::vector<double> time_alone(Tracer* tracer, const char* name, Fn&& fn) {
  constexpr int kBatches = 30;
  const std::uint32_t id = span_id(tracer, name);
  std::vector<double> out;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    {
      Scope span(tracer, id, kAloneCalls);
      for (std::uint32_t i = 0; i < kAloneCalls; ++i) fn();
    }
    out.push_back(static_cast<double>(now_ns() - t0) / kAloneCalls);
  }
  return out;
}

/// Per-layer reads on the raptorlake world, each call kind run alone,
/// plus the same group read through the Backend seam, the simulated
/// kernel and the user page, and a real-kernel task-clock group.
void measure_layers(World& w, Tracer* tracer, Outcome& out) {
  std::uint64_t errors = 0;
  const char* metric[kCallKinds] = {
      "papi.read_ns",          "papi.read_into_fd_ns",
      "papi.read_into_rdpmc_ns", "papi.read_qualified_into_ns",
      "papi.read_multiplexed_ns", "papi.marker_pair_ns"};
  for (int k = 0; k < kCallKinds; ++k) {
    const std::vector<double> per_call = time_alone(tracer, kCallSpan[k], [&] {
      if (!call(w, 0, static_cast<Call>(k))) ++errors;
    });
    out.layer(metric[k], quantile(per_call, 0.5), "ns", per_call.size());
    out.attempted += per_call.size() * kAloneCalls;
  }
  out.failed += errors;

  Machine& m = w.machines[0];
  papi::Backend* seam = m.backend.get();
  const auto open = [&](const char* name, int group_fd) -> int {
    auto encoding = m.lib_fd->pfm().encode(name);
    if (!encoding) return -1;
    simkernel::PerfEventAttr attr;
    attr.type = encoding->perf_type;
    attr.config = encoding->config;
    attr.read_format = simkernel::kFormatGroup |
                       simkernel::kFormatTotalTimeEnabled |
                       simkernel::kFormatTotalTimeRunning;
    auto fd = seam->perf_event_open(attr, m.tid, -1, group_fd, 0);
    return fd ? *fd : -1;
  };
  const int leader = open("adl_glc::INST_RETIRED:ANY", -1);
  const int member = leader >= 0 ? open("adl_glc::CPU_CLK_UNHALTED:THREAD", leader) : -1;
  out.check(leader >= 0 && member >= 0, "counter_reads: seam group opened");
  std::uint64_t sink = 0;
  if (leader >= 0 && member >= 0) {
    std::vector<double> kernel_ns = time_alone(tracer, "simkernel.perf_read_group", [&] {
      auto values = m.kernel->perf_read_group(leader);
      if (values) sink += values->size();
    });
    std::vector<double> seam_ns = time_alone(tracer, "papi.backend_read_group", [&] {
      auto values = seam->perf_read_group(leader);
      if (values) sink += values->size();
    });
    out.layer("simkernel.perf_read_group_ns", quantile(kernel_ns, 0.5), "ns",
              kernel_ns.size());
    out.layer("papi.backend_read_group_ns", quantile(seam_ns, 0.5), "ns",
              seam_ns.size());
    auto page = seam->perf_mmap_user_page(leader);
    std::vector<double> page_ns;
    if (page) {
      papi::UserPageSample sample;
      page_ns = time_alone(tracer, "papi.user_page_read", [&] {
        if (papi::read_user_page(**page, sample) == papi::UserPageReadResult::kOk) {
          sink += sample.value;
        }
      });
    }
    out.layer("papi.user_page_read_ns", quantile(page_ns, 0.5), "ns",
              page_ns.size());
  }
  if (member >= 0) (void)seam->perf_close(member);
  if (leader >= 0) (void)seam->perf_close(leader);

  // Real-kernel figure: a task-clock group on this host, when allowed.
  std::vector<double> linux_ns;
  if (linuxkernel::perf_event_available()) {
    linuxkernel::LinuxBackend linux_backend;
    simkernel::PerfEventAttr attr;
    attr.type = simkernel::kPerfTypeSoftware;
    attr.config = static_cast<std::uint64_t>(simkernel::CountKind::kTaskClockNs);
    attr.read_format = simkernel::kFormatGroup |
                       simkernel::kFormatTotalTimeEnabled |
                       simkernel::kFormatTotalTimeRunning;
    auto first = linux_backend.perf_event_open(attr, 0, -1, -1, 0);
    auto second = first ? linux_backend.perf_event_open(attr, 0, -1, *first, 0)
                        : first;
    if (first && second) {
      linux_ns = time_alone(tracer, "linuxkernel.perf_read_group", [&] {
        auto values = linux_backend.perf_read_group(*first);
        if (values) sink += values->size();
      });
    } else {
      std::printf("counter_reads: linuxkernel.perf_read_group_ns skipped: %s\n",
                  first ? second.status().to_string().c_str()
                        : first.status().to_string().c_str());
    }
    if (second) (void)linux_backend.perf_close(*second);
    if (first) (void)linux_backend.perf_close(*first);
  } else {
    std::printf("counter_reads: linuxkernel.perf_read_group_ns skipped: "
                "perf_event_open refused on this host\n");
  }
  out.layer("linuxkernel.perf_read_group_ns", quantile(linux_ns, 0.5), "ns",
            linux_ns.size());
  out.layer("papi.read_errors", static_cast<double>(errors), "count");
  out.check(sink > 0, "counter_reads: layer reads returned values");
}

}  // namespace

Outcome run_counter_reads(const Options& opts, double seconds, Tracer* tracer) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<World> world = build_timed(
      kSetupReps, setup_s, [&] { return build_world(opts.seed, tracer); });
  const std::vector<MixEntry> mix = make_mix(opts.seed);

  const std::uint32_t run_for_id = span_id(tracer, "simkernel.run_for");
  const std::uint32_t mix_id = span_id(tracer, "papi.read_mix");
  const SimDuration step = std::chrono::milliseconds(1);
  ReplayMin batch_s;        // the 1 ms advance plus the mix
  ReplayMin batch_mean_ns;  // mean per call of the mix
  std::uint64_t ok_calls = 0;
  std::uint64_t batches = 0;
  std::uint64_t passes = 0;
  bool exact = true;
  double loop_s = 0.0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    if (passes > 0) {
      rebuild_timed(world, setup_s, [&] { return build_world(opts.seed, tracer); });
    }
    out.check(world->ok, "counter_reads: world set up");
    if (!world->ok) return out;
    batch_s.restart();
    batch_mean_ns.restart();
    if (tracer != nullptr) tracer->open_window();
    for (std::uint64_t b = 0; b < kBatchesPerPass; ++b) {
      const std::int64_t t0 = now_ns();
      {
        Scope span(tracer, run_for_id);
        for (Machine& m : world->machines) m.kernel->run_for(step);
      }
      const std::int64_t t1 = now_ns();
      {
        Scope span(tracer, mix_id, static_cast<std::uint32_t>(mix.size()));
        for (const MixEntry& entry : mix) {
          if (call(*world, entry.machine, entry.kind)) ++ok_calls;
        }
      }
      const std::int64_t t2 = now_ns();
      batch_s.add(static_cast<double>(t2 - t0) * 1e-9);
      batch_mean_ns.add(static_cast<double>(t2 - t1) / static_cast<double>(mix.size()));
      loop_s += static_cast<double>(t2 - t0) * 1e-9;
    }
    if (tracer != nullptr) tracer->close_window();
    batches += kBatchesPerPass;
    exact = exact && reads_equal_truth(*world);
    ++passes;
  } while (now_ns() < deadline);

  const std::uint64_t calls = batches * mix.size();
  out.attempted += calls;
  out.failed += calls - ok_calls;
  out.check(ok_calls == calls, "counter_reads: every call returned OK");
  out.check(exact, "counter_reads: final reads equal ground truth exactly");
  std::printf("counter_reads: passes=%llu batches=%llu calls=%llu mix=%zu\n",
              static_cast<unsigned long long>(passes),
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(calls), mix.size());

  const double pass_host_s = batch_s.sum();
  std::vector<double> batch_us = batch_s.values();
  for (double& v : batch_us) v *= 1e6;
  out.loop_host_s = loop_s;
  out.loop_sim_s = static_cast<double>(batches) * 1e-3;
  out.e2e("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  out.e2e("sim_speed", static_cast<double>(kBatchesPerPass) * 1e-3 / pass_host_s,
          "sim_s/s", static_cast<std::size_t>(passes));
  out.e2e("read_ns_p50", quantile(batch_mean_ns.values(), 0.5), "ns", batches);
  out.e2e("read_ns_p99", quantile(batch_mean_ns.values(), 0.99), "ns", batches);
  out.e2e("tick_to_sample_us_p50", quantile(batch_us, 0.5), "us", batches);
  out.e2e("tick_to_sample_us_p99", quantile(batch_us, 0.99), "us", batches);
  out.e2e("samples_per_s",
          static_cast<double>(ok_calls) / static_cast<double>(passes) / pass_host_s,
          "1/s", ok_calls);

  if (tracer != nullptr) {
    // Two kernels, 500 us tick: four ticks per batch.
    const double ticks = static_cast<double>(batches) * 4.0;
    out.layer("simkernel.run_for_ns_per_tick",
              tracer->total_ns("simkernel.run_for") / ticks, "ns", batches);
    out.layer("simkernel.ticks", ticks, "count");
    out.layer("simkernel.kernel_ctor_ms",
              quantile(tracer->per_call_ns("simkernel.kernel_ctor"), 0.5) * 1e-6,
              "ms", tracer->calls("simkernel.kernel_ctor"));
    out.layer("papi.library_init_ms",
              quantile(tracer->per_call_ns("papi.library_init"), 0.5) * 1e-6,
              "ms", tracer->calls("papi.library_init"));
    out.layer("papi.eventset_build_ms",
              quantile(tracer->per_call_ns("papi.eventset_build"), 0.5) * 1e-6,
              "ms", tracer->calls("papi.eventset_build"));
    measure_layers(*world, tracer, out);
  }
  return out;
}

}  // namespace perfbench
