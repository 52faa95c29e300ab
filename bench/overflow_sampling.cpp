// overflow_sampling: sampling-mode cost and loss characterization.
// Sweeps the sampling period over a deliberately small ring
// (capacity 64 records) with a fixed drain cadence, so short periods
// overflow between drains and long periods do not, and reports per
// cell:
//
//   * crossings (counter / period), delivered and lost record counts —
//     deterministic, printed to stdout, and reconciled exactly
//     (delivered + lost == crossings; bench_check --overflow guards
//     this and that the loss rate never grows as the period grows), and
//   * arming cost (set_overflow wall time) and drain throughput
//     (records ingested per wall second) — wall-clock, JSON only.
//
// Counts go to stdout, timings to BENCH_overflow.json (BenchRecorder
// convention: stdout stays bit-identical across runs and --threads
// values; cells run on the multi-run executor).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

using namespace hetpapi;
using papi::Library;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

namespace {

constexpr std::uint64_t kPeriods[] = {250'000, 500'000, 1'000'000, 2'000'000,
                                      4'000'000};
constexpr std::uint64_t kRingCapacity = 64;
constexpr int kDrainPasses = 25;
constexpr std::uint64_t kWork = 200'000'000;

struct CellResult {
  std::string label;
  std::uint64_t period = 0;
  std::uint64_t crossings = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  double lost_rate = 0.0;
  int drains = 0;
  double arm_us = 0.0;
  double drain_us = 0.0;
  double ingest_per_s = 0.0;  // records per wall second of drain time
  bool ok = false;
};

double elapsed_us(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - from)
      .count();
}

CellResult run_cell(const cpumodel::MachineSpec& machine,
                    std::uint64_t period) {
  CellResult cell;
  cell.label = "period/" + std::to_string(period);
  cell.period = period;

  SimKernel::Config config;
  config.perf.sample_ring_capacity = kRingCapacity;
  SimKernel kernel(machine, config);
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(std::make_shared<FixedWorkProgram>(phase, kWork),
                               CpuSet::of({0}));
  backend.set_default_target(tid);

  auto lib = Library::init(&backend);
  if (!lib.has_value()) return cell;
  auto set = (*lib)->create_eventset();
  if (!set.has_value() || !(*lib)->add_event(*set, "PAPI_TOT_INS").is_ok()) {
    return cell;
  }
  const auto arm_start = std::chrono::steady_clock::now();
  if (!(*lib)
           ->set_overflow(*set, 0, period, [](const papi::Sample&) {})
           .is_ok()) {
    return cell;
  }
  cell.arm_us = elapsed_us(arm_start);
  if (!(*lib)->start(*set).is_ok()) return cell;

  // Fixed cadence: the short-period cells outrun the capacity-64 ring
  // between passes (records drop to in-band LOST), the long-period
  // cells never fill it. Either way nothing vanishes silently.
  const auto drain = [&] {
    const auto drain_start = std::chrono::steady_clock::now();
    auto batch = (*lib)->read_samples(*set);
    cell.drain_us += elapsed_us(drain_start);
    ++cell.drains;
    if (batch.has_value()) {
      cell.delivered += batch->samples.size();
      cell.lost += batch->lost;
    }
  };
  for (int pass = 0; pass < kDrainPasses; ++pass) {
    kernel.run_for(std::chrono::milliseconds(2));
    drain();
  }
  kernel.run_until_idle(std::chrono::seconds(60));
  auto values = (*lib)->stop(*set);
  if (!values.has_value()) return cell;
  drain();
  drain();  // a drained ring must stay drained — rides into the total

  const auto counter = static_cast<std::uint64_t>((*values)[0]);
  cell.crossings = counter / period;
  cell.lost_rate = cell.crossings == 0
                       ? 0.0
                       : static_cast<double>(cell.lost) /
                             static_cast<double>(cell.crossings);
  cell.ingest_per_s =
      cell.drain_us <= 0.0
          ? 0.0
          : static_cast<double>(cell.delivered) / (cell.drain_us * 1e-6);
  cell.ok = cell.delivered + cell.lost == cell.crossings;
  return cell;
}

void write_json(const std::vector<CellResult>& cells, std::size_t threads,
                double wall_s) {
  const char* path = "BENCH_overflow.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"name\": \"overflow_sampling\",\n"
               "  \"threads\": %zu,\n  \"ring_capacity\": %" PRIu64 ",\n"
               "  \"drain_passes\": %d,\n  \"wall_s\": %.6f,\n"
               "  \"cells\": [\n",
               threads, kRingCapacity, kDrainPasses, wall_s);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        out,
        "    {\"label\": \"%s\", \"period\": %" PRIu64
        ", \"crossings\": %" PRIu64 ", \"delivered\": %" PRIu64
        ", \"lost\": %" PRIu64
        ", \"lost_rate\": %.6f, "
        "\"arm_us\": %.3f, \"drain_us\": %.3f, \"ingest_per_s\": %.1f}%s\n",
        c.label.c_str(), c.period, c.crossings, c.delivered, c.lost,
        c.lost_rate, c.arm_us, c.drain_us, c.ingest_per_s,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s (wall %.3f s, %zu cells, %zu threads)\n",
               path, wall_s, cells.size(), threads);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv, 0);
  const auto machine = cpumodel::machine_preset_by_name(opts.machine);
  if (!machine.has_value()) {
    std::fprintf(stderr, "unknown machine preset: %s\n", opts.machine.c_str());
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();

  std::vector<CellResult> cells(std::size(kPeriods));
  std::vector<telemetry::RunCell> run_cells;
  for (std::size_t i = 0; i < std::size(kPeriods); ++i) {
    run_cells.push_back(telemetry::RunCell{
        "period/" + std::to_string(kPeriods[i]), [&, i] {
          cells[i] = run_cell(*machine, kPeriods[i]);
        }});
  }
  telemetry::MultiRunExecutor executor(opts.threads);
  executor.execute(run_cells);

  std::printf("overflow_sampling machine=%s work=%" PRIu64
              " ring_capacity=%" PRIu64 " drain_passes=%d\n\n",
              opts.machine.c_str(), kWork, kRingCapacity, kDrainPasses);
  std::printf("%-16s %10s %10s %10s %10s %8s\n", "cell", "crossings",
              "delivered", "lost", "lost_rate", "exact");
  bool all_ok = true;
  for (const CellResult& c : cells) {
    std::printf("%-16s %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                " %10.4f %8s\n",
                c.label.c_str(), c.crossings, c.delivered, c.lost, c.lost_rate,
                c.ok ? "ok" : "FAIL");
    all_ok = all_ok && c.ok;
  }
  std::printf(
      "\ndelivered + lost == crossings on every cell: %s\n"
      "(arming cost and drain throughput are wall-clock and live in "
      "BENCH_overflow.json)\n",
      all_ok ? "yes" : "NO");

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  write_json(cells, opts.threads, wall_s);
  return all_ok ? 0 : 1;
}
