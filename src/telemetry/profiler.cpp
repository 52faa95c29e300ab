#include "telemetry/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi::telemetry {

namespace {

void append_line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

struct Row {
  std::string symbol;
  std::string ip;  // rendered bucket address ("-" for the unknown row)
  std::vector<std::uint64_t> per_type;
  std::uint64_t total = 0;
};

}  // namespace

Expected<ProfileReport> run_simplemoc_profile(const ProfileOptions& options) {
  if (options.workers <= 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "profiler needs at least one worker");
  }
  if (options.period == 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "sampling period must be positive");
  }
  const auto spec = cpumodel::machine_preset_by_name(options.machine);
  if (!spec.has_value()) {
    return make_error(StatusCode::kNotFound,
                      "unknown machine preset: " + options.machine);
  }

  simkernel::SimKernel kernel(*spec);
  papi::SimBackend backend(&kernel);

  // Round-robin pin workers across core types: pinning is what makes
  // per-core-type attribution exactly checkable (a worker pinned to E
  // cores must produce zero P-core samples).
  const int num_types = static_cast<int>(spec->core_types.size());
  std::vector<simkernel::Tid> tids;
  std::vector<int> worker_type;
  for (int w = 0; w < options.workers; ++w) {
    const int type = w % num_types;
    tids.push_back(kernel.spawn(
        std::make_shared<workload::SimpleMocProgram>(options.moc),
        simkernel::CpuSet::of(
            spec->cpus_of_type(static_cast<cpumodel::CoreTypeId>(type)))));
    worker_type.push_back(type);
  }

  auto lib = papi::Library::init(&backend);
  if (!lib) return lib.status();

  const std::vector<std::string> events =
      options.event_set >= 0 ? workload::simplemoc_event_set(options.event_set)
                             : std::vector<std::string>{options.event};
  const std::string& sampled_event = events.front();

  std::vector<int> sets;
  for (int w = 0; w < options.workers; ++w) {
    auto set = (*lib)->create_eventset();
    if (!set) return set.status();
    HETPAPI_RETURN_IF_ERROR((*lib)->attach(*set, tids[static_cast<std::size_t>(w)]));
    for (const std::string& name : events) {
      HETPAPI_RETURN_IF_ERROR((*lib)->add_event(*set, name));
    }
    // The callback side of PAPI_overflow still fires on every period
    // crossing; the profiler itself consumes the ring records.
    HETPAPI_RETURN_IF_ERROR((*lib)->set_overflow(
        *set, 0, options.period, [](const papi::Library::OverflowEvent&) {}));
    HETPAPI_RETURN_IF_ERROR((*lib)->start(*set));
    sets.push_back(*set);
  }

  kernel.run_until_idle(std::chrono::seconds(600));

  // Column order: core PMUs by core-type id, labelled by the detection
  // ladder — the same labels read_samples stamps on each record.
  // core_type_for_pmu keys on the pfm table name, so join the kernel's
  // PMU descriptors to the library's scan through the sysfs name.
  std::vector<std::string> label_by_type(
      static_cast<std::size_t>(num_types));
  for (const simkernel::PmuDesc* pmu : kernel.pmus().core_pmus()) {
    std::string label;
    for (const pfm::ActivePmu& active : (*lib)->pfm().pmus()) {
      if (active.sysfs_name == pmu->sysfs_name && active.table != nullptr) {
        label = (*lib)->core_type_for_pmu(active.table->pfm_name);
        break;
      }
    }
    if (label.empty()) label = pmu->sysfs_name;
    label_by_type[static_cast<std::size_t>(pmu->core_type)] = label;
  }
  std::map<std::string, int, std::less<>> column_of;
  for (int t = 0; t < num_types; ++t) {
    column_of[label_by_type[static_cast<std::size_t>(t)]] = t;
  }

  ProfileReport report;
  report.core_type_labels = label_by_type;

  std::map<std::string, Row> rows;
  papi::SampleBatch batch;  // one buffer, reused across workers
  for (int w = 0; w < options.workers; ++w) {
    auto values = (*lib)->stop(sets[static_cast<std::size_t>(w)]);
    if (!values) return values.status();
    HETPAPI_RETURN_IF_ERROR(
        (*lib)->read_samples_into(sets[static_cast<std::size_t>(w)], batch));

    ProfileWorkerStats stats;
    stats.worker = w;
    const int pinned = worker_type[static_cast<std::size_t>(w)];
    stats.core_type = label_by_type[static_cast<std::size_t>(pinned)];
    stats.samples = batch.samples.size();
    stats.lost = batch.lost;
    stats.counter = static_cast<std::uint64_t>(
        std::max<long long>(0, (*values)[0]));
    const simkernel::ThreadGroundTruth* truth =
        kernel.ground_truth(tids[static_cast<std::size_t>(w)]);
    if (truth != nullptr) {
      stats.truth_instructions =
          truth->per_type[static_cast<std::size_t>(pinned)].instructions;
    }

    for (const papi::Sample& sample : batch.samples) {
      if (sample.core_type != stats.core_type) ++stats.foreign_samples;
      const auto column = column_of.find(sample.core_type);
      const workload::SimpleMocPhase* phase =
          workload::simplemoc_phase_for_ip(sample.ip);
      const std::string symbol = phase != nullptr ? phase->symbol : "[unknown]";
      Row& row = rows[symbol];
      if (row.per_type.empty()) {
        row.symbol = symbol;
        char ip_buf[24];
        if (phase != nullptr) {
          std::snprintf(ip_buf, sizeof ip_buf, "0x%" PRIx64, phase->ip);
        } else {
          std::snprintf(ip_buf, sizeof ip_buf, "-");
        }
        row.ip = ip_buf;
        row.per_type.assign(static_cast<std::size_t>(num_types), 0);
      }
      if (column != column_of.end()) {
        ++row.per_type[static_cast<std::size_t>(column->second)];
      }
      ++row.total;
    }

    report.total_samples += stats.samples;
    report.lost += batch.lost;
    report.malformed += batch.malformed;
    report.rings_denied += batch.rings_denied;
    report.drains_stalled += batch.drains_stalled;
    report.wakeups_missed += batch.wakeups_missed;

    // Reconcile: every period crossing became exactly one delivered or
    // lost record, and those records together track the exact-truth
    // instruction count within one period.
    const std::uint64_t crossings = stats.counter / options.period;
    bool ok = stats.foreign_samples == 0 &&
              stats.samples + stats.lost == crossings;
    if (sampled_event == "PAPI_TOT_INS") {
      const long long drift =
          static_cast<long long>((stats.samples + stats.lost) *
                                 options.period) -
          static_cast<long long>(stats.truth_instructions);
      ok = ok && drift <= 0 &&
           -drift <= static_cast<long long>(options.period);
    }
    stats.ok = ok;
    report.workers.push_back(std::move(stats));
  }

  // Flat hot-spot table, hottest first (ties alphabetical).
  std::vector<Row> ordered;
  for (auto& [symbol, row] : rows) ordered.push_back(std::move(row));
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Row& a, const Row& b) {
                     if (a.total != b.total) return a.total > b.total;
                     return a.symbol < b.symbol;
                   });

  std::string& out = report.table;
  append_line(out,
              "hetpapi_profile machine=%s event=%s period=%" PRIu64
              " workers=%d segments=%" PRIu64,
              options.machine.c_str(), sampled_event.c_str(), options.period,
              options.workers, options.moc.segments);
  out += '\n';
  {
    char buf[512];
    int n = std::snprintf(buf, sizeof buf, "%-30s %-10s", "function", "ip");
    for (int t = 0; t < num_types; ++t) {
      n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                         " %14s",
                         label_by_type[static_cast<std::size_t>(t)].c_str());
    }
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n), " %14s",
                  "total");
    out += buf;
    out += '\n';
  }
  std::vector<std::uint64_t> column_totals(
      static_cast<std::size_t>(num_types), 0);
  for (const Row& row : ordered) {
    char buf[512];
    int n = std::snprintf(buf, sizeof buf, "%-30s %-10s", row.symbol.c_str(),
                          row.ip.c_str());
    for (int t = 0; t < num_types; ++t) {
      column_totals[static_cast<std::size_t>(t)] +=
          row.per_type[static_cast<std::size_t>(t)];
      n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                         " %14" PRIu64,
                         row.per_type[static_cast<std::size_t>(t)]);
    }
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                  " %14" PRIu64, row.total);
    out += buf;
    out += '\n';
  }
  {
    char buf[512];
    int n = std::snprintf(buf, sizeof buf, "%-30s %-10s", "total", "-");
    for (int t = 0; t < num_types; ++t) {
      n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                         " %14" PRIu64,
                         column_totals[static_cast<std::size_t>(t)]);
    }
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                  " %14" PRIu64, report.total_samples);
    out += buf;
    out += '\n';
  }
  out += '\n';
  append_line(out,
              "samples=%" PRIu64 " lost=%" PRIu64 " malformed=%" PRIu64
              " rings_denied=%d drains_stalled=%d wakeups_missed=%d",
              report.total_samples, report.lost, report.malformed,
              report.rings_denied, report.drains_stalled,
              report.wakeups_missed);
  report.validated = true;
  for (const ProfileWorkerStats& stats : report.workers) {
    append_line(out,
                "worker %d core_type=%s samples=%" PRIu64 " lost=%" PRIu64
                " counter=%" PRIu64 " truth=%" PRIu64 " foreign=%" PRIu64
                " %s",
                stats.worker, stats.core_type.c_str(), stats.samples,
                stats.lost, stats.counter, stats.truth_instructions,
                stats.foreign_samples, stats.ok ? "ok" : "FAIL");
    report.validated = report.validated && stats.ok;
  }
  append_line(out, "validation: %s", report.validated ? "PASS" : "FAIL");
  return report;
}

}  // namespace hetpapi::telemetry
