// Shared machinery of the hetpapi benchmark: run options, the outcome
// every workload reports (checks, failure accounting, metrics), order
// statistics, and the in-memory span recorder behind the traced run.
//
// Spans are recorded only by this benchmark's own code, around calls into
// the library's public functions; the library itself is not instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cpumodel/machine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced problem sizes for the self-test.
  bool tiny = false;
  /// Regenerate the hpl_table2 reference table instead of benchmarking.
  bool record_references = false;
  std::string trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> values, double q);

/// Timing samples of a deterministic sequence that a run replays many
/// times: every workload runs passes over a freshly built world, so the
/// i-th value of every pass times the same work.
///
/// On a shared machine the same work runs up to 1.5x (at times 3x)
/// slower for stretches of a second to a minute while a neighbour loads
/// the host. Keeping each position's minimum over the passes removes
/// that interference, so quantiles and sums over the positions describe
/// the work itself, including its own slow steps. Memory is one pass's
/// length, however many passes a run completes.
class ReplayMin {
 public:
  void restart() { pos_ = 0; }
  void add(double value) {
    if (pos_ < min_.size()) {
      if (value < min_[pos_]) min_[pos_] = value;
    } else {
      min_.push_back(value);
    }
    ++pos_;
  }
  const std::vector<double>& values() const { return min_; }
  double sum() const;

 private:
  std::vector<double> min_;
  std::size_t pos_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Timings carry how many samples their order statistic was taken over.
  std::size_t samples = 0;
};

/// What one workload phase produced: checks, failure accounting and
/// metrics. `attempted`/`failed` count operations (calls, expected
/// samples, expected records, monitor ticks); a failed check marks the
/// outcome incorrect.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Host time of the measured loop and simulated time it advanced.
  double loop_host_s = 0.0;
  double loop_sim_s = 0.0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failed_checks.push_back(what);
    }
  }
  void e2e(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit,
             std::size_t samples = 0) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// In-memory span recorder. A span names a call into one layer; a span
/// with count > 1 times a batch of calls that are each shorter than a
/// clock read. Spans are never nested; those recorded inside an open
/// window (the measured loop) count toward the window's coverage.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t count = 1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t intern(std::string_view name);
  void record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t count = 1);

  void open_window() { window_start_ = now_ns(); }
  void close_window();
  /// Share of window time covered by spans.
  double coverage() const {
    return window_ns_ > 0 ? static_cast<double>(covered_ns_) /
                                static_cast<double>(window_ns_)
                          : 0.0;
  }

  /// Per-call durations (span duration / count) of every span named
  /// `name`, in ns.
  std::vector<double> per_call_ns(std::string_view name) const;
  /// Sum of span durations (ns) and of call counts for `name`.
  double total_ns(std::string_view name) const;
  std::uint64_t calls(std::string_view name) const;

  /// Write the spans as a Chrome trace-event file (chrome://tracing,
  /// ui.perfetto.dev). At most `max_spans` spans are written.
  bool write_chrome_trace(const std::string& path, std::size_t max_spans,
                          const std::string& provenance) const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::int64_t window_start_ = -1;
  std::int64_t window_ns_ = 0;
  std::int64_t covered_ns_ = 0;
};

/// RAII span around one call (or one batch of `count` calls); a null
/// tracer makes it a no-op without reading the clock.
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name, std::uint32_t count = 1)
      : tracer_(tracer), name_(name), count_(count),
        start_(tracer != nullptr ? now_ns() : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->record(name_, start_, now_ns(), count_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t name_;
  std::uint32_t count_;
  std::int64_t start_;
};

/// Interned span names, resolved once per tracer (ids are stable).
inline std::uint32_t span_id(Tracer* tracer, std::string_view name) {
  return tracer != nullptr ? tracer->intern(name) : 0;
}

/// Report a failed set-up step on stderr; always returns false.
inline bool setup_failed(const char* step, const std::string& why) {
  std::fprintf(stderr, "set-up failed: %s: %s\n", step, why.c_str());
  return false;
}

/// A slice counts as power-limited when package power is within this
/// share of the RAPL allowance (the governor's bisection settles just
/// under the budget, never exactly on it).
inline constexpr double kLimitedTolerance = 0.99;

/// One worker thread per physical core of every core type.
std::vector<int> all_primary_cpus(const hetpapi::cpumodel::MachineSpec& m);

/// PackageGovernor::step replayed on a standalone Raptor Lake governor
/// with every cpu in `busy` fully loaded, warmed until its thermals
/// settle or, if the load is high enough, until the package is
/// power-limited. Returns per-step host ns over batches of steps.
std::vector<double> replay_governor(const std::vector<int>& busy, double activity,
                                    std::uint64_t seed, Tracer* tracer,
                                    const char* span_name);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Tear down `world`, then build the next one and append the build's
/// host seconds to `times`. Tearing down is not timed.
template <typename World, typename Build>
void rebuild_timed(World& world, std::vector<double>& times, Build&& build) {
  world = {};
  const std::int64_t start = now_ns();
  world = build();
  times.push_back(seconds_since(start));
}

/// Build the world `reps` times, appending each build's host seconds to
/// `times` (the set-up metric is their median), and keep the last one.
template <typename Build>
auto build_timed(int reps, std::vector<double>& times, Build&& build)
    -> decltype(build()) {
  decltype(build()) world;
  for (int i = 0; i < reps; ++i) rebuild_timed(world, times, build);
  return world;
}

/// Set-up repetitions before the measured loop. The workloads that build
/// a fresh world for every pass time those builds too, so that set-up
/// time is a median over the whole run rather than over one burst of
/// builds at its start, which a short stall of the host can slow as a
/// whole.
inline constexpr int kSetupReps = 21;

/// The four workloads. Each runs a closed loop for `seconds` of host time
/// and fills the outcome; with a tracer it also records spans and the
/// per-layer metrics.
Outcome run_hpl_table2(const Options& opts, double seconds, Tracer* tracer);
Outcome run_counter_reads(const Options& opts, double seconds, Tracer* tracer);
Outcome run_service_fanout(const Options& opts, double seconds, Tracer* tracer);
Outcome run_sampling_profile(const Options& opts, double seconds,
                             Tracer* tracer);

/// Print the hpl_table2 reference table for every recorded seed/size.
int record_hpl_references(const Options& opts);

}  // namespace perfbench
