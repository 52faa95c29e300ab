#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "cpumodel/dvfs.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ReplayMin::sum() const {
  double total = 0.0;
  for (const double v : min_) total += v;
  return total;
}

std::vector<int> all_primary_cpus(const hetpapi::cpumodel::MachineSpec& m) {
  std::vector<int> cpus;
  for (std::size_t t = 0; t < m.core_types.size(); ++t) {
    const std::vector<int> of_type =
        m.primary_threads_of_type(static_cast<hetpapi::cpumodel::CoreTypeId>(t));
    cpus.insert(cpus.end(), of_type.begin(), of_type.end());
  }
  return cpus;
}

std::vector<double> replay_governor(const std::vector<int>& busy, double activity,
                                    std::uint64_t seed, Tracer* tracer,
                                    const char* span_name) {
  using namespace hetpapi;
  const cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();
  cpumodel::PackageGovernor governor(machine, seed);
  std::vector<cpumodel::CpuLoad> loads(machine.cpus.size());
  for (const int cpu : busy) {
    loads[static_cast<std::size_t>(cpu)] = {1.0, activity};
  }
  const SimDuration dt = std::chrono::milliseconds(1);
  const auto limited = [&] {
    return governor.package_power().value >=
           kLimitedTolerance * governor.rapl().allowed_power().value;
  };
  // A minute of simulated time saturates the RAPL long window.
  for (int i = 0; i < 60'000 && !limited(); ++i) governor.step(dt, loads);
  const std::uint32_t id = span_id(tracer, span_name);
  constexpr int kBatch = 200;
  std::vector<double> per_step;
  for (int batch = 0; batch < 40; ++batch) {
    const std::int64_t t0 = now_ns();
    {
      Scope span(tracer, id, kBatch);
      for (int i = 0; i < kBatch; ++i) governor.step(dt, loads);
    }
    per_step.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  return per_step;
}

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark. getrusage's ru_maxrss
  // also carries the resident set of the process that forked it across
  // exec, so it serves only as the fallback.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto found = ids_.find(std::string(name));
  if (found != ids_.end()) return found->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

void Tracer::record(std::uint32_t name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t count) {
  spans_.push_back({name, count, start_ns, end_ns});
  if (window_start_ >= 0 && start_ns >= window_start_) {
    covered_ns_ += end_ns - start_ns;
  }
}

void Tracer::close_window() {
  if (window_start_ < 0) return;
  window_ns_ += now_ns() - window_start_;
  window_start_ = -1;
}

std::vector<double> Tracer::per_call_ns(std::string_view name) const {
  std::vector<double> out;
  const auto found = ids_.find(std::string(name));
  if (found == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name != found->second) continue;
    out.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                  static_cast<double>(span.count));
  }
  return out;
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0.0;
  const auto found = ids_.find(std::string(name));
  if (found == ids_.end()) return total;
  for (const Span& span : spans_) {
    if (span.name == found->second) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

std::uint64_t Tracer::calls(std::string_view name) const {
  std::uint64_t total = 0;
  const auto found = ids_.find(std::string(name));
  if (found == ids_.end()) return total;
  for (const Span& span : spans_) {
    if (span.name == found->second) total += span.count;
  }
  return total;
}

bool Tracer::write_chrome_trace(const std::string& path, std::size_t max_spans,
                                const std::string& provenance) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"otherData\": {\"provenance\": \"%s\", \"spans\": %zu},\n",
               provenance.c_str(), spans_.size());
  std::fprintf(out, " \"traceEvents\": [\n");
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"calls\": %u}}%s\n",
                 names_[span.name].c_str(),
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 span.count, i + 1 < n ? "," : "");
  }
  std::fprintf(out, " ]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
