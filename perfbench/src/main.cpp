// perfbench: the hetpapi benchmark program.
//
//   perfbench --workload <hpl_table2|counter_reads|service_fanout|
//                         sampling_profile|all>
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-dir DIR] [--commit SHA]
//   perfbench --record-references
//
// Untraced (--trace 0) the workload runs for S seconds and the last line
// of stdout is a JSON object with the end-to-end metrics. Traced
// (--trace 1) it runs S/2 seconds untraced, then S/2 seconds with spans
// recorded around every call into a layer; the last line then carries
// the per-layer metrics, the tracing overhead and the span coverage, and
// the spans are written to <trace-dir>/<workload>-seed<N>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_speed", "sim_s/s"},
    {"read_ns_p50", "ns"},
    {"read_ns_p99", "ns"},
    {"tick_to_sample_us_p50", "us"},
    {"tick_to_sample_us_p99", "us"},
    {"samples_per_s", "1/s"},
};

/// Every per-layer metric; a workload that does not exercise a layer
/// reports it as 0.
constexpr MetricSpec kPerLayer[] = {
    {"simkernel.run_for_ns_per_tick", "ns"},
    {"simkernel.ticks", "count"},
    {"simkernel.kernel_ctor_ms", "ms"},
    {"simkernel.perf_read_group_ns", "ns"},
    {"simkernel.sample_crossings", "count"},
    {"cpumodel.governor_step_limited_ns", "ns"},
    {"cpumodel.governor_step_unlimited_ns", "ns"},
    {"cpumodel.power_limited_share", "ratio"},
    {"workload.hpl_work_instructions", "count"},
    {"workload.hpl_spin_instructions", "count"},
    {"telemetry.sampler_sample_us", "us"},
    {"papi.library_init_ms", "ms"},
    {"papi.eventset_build_ms", "ms"},
    {"papi.read_ns", "ns"},
    {"papi.read_into_rdpmc_ns", "ns"},
    {"papi.read_into_fd_ns", "ns"},
    {"papi.read_qualified_into_ns", "ns"},
    {"papi.read_multiplexed_ns", "ns"},
    {"papi.marker_pair_ns", "ns"},
    {"papi.backend_read_group_ns", "ns"},
    {"papi.user_page_read_ns", "ns"},
    {"papi.set_overflow_us", "us"},
    {"papi.read_samples_us", "us"},
    {"papi.read_samples_ns_per_record", "ns"},
    {"papi.samples_delivered", "count"},
    {"papi.samples_lost", "count"},
    {"papi.read_errors", "count"},
    {"linuxkernel.perf_read_group_ns", "ns"},
    {"service.init_ms", "ms"},
    {"service.tick_us", "us"},
    {"service.poll_us", "us"},
    {"service.take_samples_us", "us"},
    {"service.sample_encode_ns", "ns"},
    {"service.sample_decode_ns", "ns"},
    {"service.churn_session_us", "us"},
    {"service.backend_reads", "count"},
    {"service.samples_delivered", "count"},
    {"service.frames_sent", "count"},
    {"service.reads_per_sample", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.span_coverage", "ratio"},
};

struct Workload {
  const char* name;
  const char* machine;
  Outcome (*run)(const Options&, double, Tracer*);
};

constexpr Workload kWorkloads[] = {
    {"hpl_table2", "raptorlake", run_hpl_table2},
    {"counter_reads", "raptorlake+meteorlake", run_counter_reads},
    {"service_fanout", "raptorlake", run_service_fanout},
    {"sampling_profile", "raptorlake", run_sampling_profile},
};

const char* build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool optimised_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--tiny] [--trace-dir DIR] [--commit SHA]\n"
               "       %s --record-references\n",
               argv0, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-dir" && has_value) {
      opts.trace_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      opts.commit = argv[++i];
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--record-references") {
      opts.record_references = true;
    } else {
      usage(argv[0]);
    }
  }
  if (!opts.record_references && opts.workload.empty()) usage(argv[0]);
  return opts;
}

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

struct Reported {
  std::string name;
  double value;
  std::string unit;
};

/// Run one workload in the requested mode and return its reported
/// metrics (prefixed with the workload name when `prefix`).
Outcome run_one(const Workload& workload, const Options& opts, bool prefix,
                std::vector<Reported>& reported) {
  const std::string head = prefix ? std::string(workload.name) + "." : "";
  std::printf("== %s (seed %llu, %.3g s, %s)\n", workload.name,
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? "traced" : "untraced");
  std::printf("provenance: build_type=%s commit=%s nproc=%u machine=%s seed=%llu\n",
              build_type(), opts.commit.c_str(), std::thread::hardware_concurrency(),
              workload.machine, static_cast<unsigned long long>(opts.seed));
  std::fflush(stdout);

  if (!opts.trace) {
    Outcome out = workload.run(opts, opts.seconds, nullptr);
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find(out.end_to_end, spec.name);
      const double value = m != nullptr && std::isfinite(m->value) ? m->value : 0.0;
      out.check(m != nullptr && std::isfinite(m->value),
                std::string("metric measured: ") + spec.name);
      std::printf("  %-24s %14.6g %-8s (n=%zu)\n", spec.name, value, spec.unit,
                  m != nullptr ? m->samples : 0);
      reported.push_back({head + spec.name, value, spec.unit});
    }
    for (const std::string& failed : out.failed_checks) {
      std::printf("  CHECK FAILED: %s\n", failed.c_str());
    }
    return out;
  }

  const double half = opts.seconds / 2.0;
  Outcome plain = workload.run(opts, half, nullptr);
  Tracer tracer;
  Outcome traced = workload.run(opts, half, &tracer);
  Outcome out = traced;
  out.correct = plain.correct && traced.correct;
  out.attempted += plain.attempted;
  out.failed += plain.failed;
  out.failed_checks.insert(out.failed_checks.end(), plain.failed_checks.begin(),
                           plain.failed_checks.end());

  std::printf("  tracing overhead (traced - untraced):\n");
  for (const MetricSpec& spec : kEndToEnd) {
    const Metric* a = find(plain.end_to_end, spec.name);
    const Metric* b = find(traced.end_to_end, spec.name);
    if (a == nullptr || b == nullptr) continue;
    std::printf("    %-24s %14.6g - %14.6g = %+.6g %s\n", spec.name, b->value,
                a->value, b->value - a->value, spec.unit);
  }
  const double plain_speed = plain.loop_sim_s / plain.loop_host_s;
  const double traced_speed = traced.loop_sim_s / traced.loop_host_s;
  out.layer("trace.overhead_pct", (plain_speed / traced_speed - 1.0) * 100.0, "%");
  out.layer("trace.span_coverage", tracer.coverage(), "ratio");

  for (const MetricSpec& spec : kPerLayer) {
    const Metric* m = find(out.per_layer, spec.name);
    if (m != nullptr) {
      out.check(std::isfinite(m->value), std::string("metric finite: ") + spec.name);
    }
    const double value = m != nullptr && std::isfinite(m->value) ? m->value : 0.0;
    std::printf("  %-38s %14.6g %-6s (n=%zu)%s\n", spec.name, value, spec.unit,
                m != nullptr ? m->samples : 0,
                m != nullptr ? "" : "  [layer not exercised by this workload]");
    reported.push_back({head + spec.name, value, spec.unit});
  }
  for (const std::string& failed : out.failed_checks) {
    std::printf("  CHECK FAILED: %s\n", failed.c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(opts.trace_dir, ec);
  const std::string path = opts.trace_dir + "/" + workload.name + "-seed" +
                           std::to_string(opts.seed) + ".json";
  const std::string provenance = std::string("build_type=") + build_type() +
                                 " commit=" + opts.commit +
                                 " machine=" + workload.machine +
                                 " seed=" + std::to_string(opts.seed);
  if (tracer.write_chrome_trace(path, 50'000, provenance)) {
    std::printf("  trace: %s\n", path.c_str());
  } else {
    std::printf("  trace: could not write %s\n", path.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  if (!optimised_build()) {
    std::fprintf(stderr, "warning: perfbench was built without optimisation "
                         "(build type %s); timings are not representative\n",
                 build_type());
  }
  if (opts.record_references) return record_hpl_references(opts);

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == "all" || opts.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    return 2;
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Reported> reported;
  for (const Workload* w : selected) {
    const Outcome out = run_one(*w, opts, selected.size() > 1, reported);
    correct = correct && out.correct;
    attempted += out.attempted;
    failed += out.failed;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                reported[i].name.c_str(), reported[i].value, reported[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
