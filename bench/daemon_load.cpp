// daemon_load: the counter-service load generator. Sweeps client count
// 1 -> 1024 (c10k via --n 10000) with every client riding the SAME
// subscription spec, plus a distinct-spec control cell, a mixed cell
// (1024 clients over 8 distinct specs), a shard-count axis over the
// mixed cell, and a session-churn cell (steady riders while
// short-lived clients connect and vanish every tick), and reports:
//
//   * backend reads per client-delivered sample (the coalescing ratio:
//     ~1/N for the shared sweep, ~1 for the distinct control, ~1/128
//     for the mixed cell — reads scale with distinct specs, never with
//     client count), and
//   * per-client sample-retrieval latency percentiles (p50/p95/p99),
//     which must stay flat across the sweep and the shard axis — a slow
//     client count would mean the daemon does per-client backend work
//     it should coalesce (bench_check --daemon-load guards both).
//
// Counts and ratios are deterministic and go to stdout; wall-clock
// latencies go to BENCH_daemon_load.json (BenchRecorder convention:
// stdout stays bit-identical across runs, --threads values, and
// --shards values, which feed the daemon's encode pool and fan-out
// partitioning).
// The daemon now ignores both knobs: every --shards (and --threads) value
// runs the same serial fan-out on the ticking thread.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "cpumodel/machine.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

using namespace hetpapi;
using service::Client;
using service::TargetKind;

namespace {

constexpr int kTicks = 40;
constexpr int kDistinctTargets = 8;

struct CellResult {
  std::string label;
  int clients = 0;
  std::size_t shards = 1;
  std::uint64_t distinct_subscriptions = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t client_reads = 0;  // samples delivered across all clients
  double reads_per_client_read = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One load cell: `clients` subscribers spread across `targets` worker
/// threads (targets == 1 -> everyone coalesces onto one EventSet;
/// targets == clients -> every subscription is distinct), delivered by
/// `shards` session shards. With `churn_per_tick` > 0, that many
/// short-lived sessions additionally connect, hello and subscribe the
/// same coalesced spec every tick and leave before the next delivery —
/// half politely (Close/CloseAck), half by abandoning the socket so the
/// daemon's dead-pipe reaper runs — and the steady riders' counts and
/// latencies must be completely undisturbed.
CellResult run_cell(const std::string& label, int clients, int targets,
                    std::size_t encode_threads, std::size_t shards,
                    int churn_per_tick = 0) {
  simkernel::SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  papi::SimBackend backend(&kernel);
  std::vector<simkernel::Tid> tids;
  for (int i = 0; i < targets; ++i) {
    tids.push_back(kernel.spawn(
        std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                     40'000'000'000ull),
        simkernel::CpuSet::of({i})));
  }
  service::DaemonConfig dconfig;
  dconfig.encode_threads = encode_threads;
  dconfig.shards = shards;
  service::LoopbackTransport transport;
  service::Daemon daemon(&kernel, &backend, dconfig);
  if (const Status s = daemon.init(); !s.is_ok()) {
    std::fprintf(stderr, "daemon init: %s\n", s.to_string().c_str());
    std::exit(1);
  }
  daemon.add_listener(transport.listener());
  transport.set_pump([&daemon] { daemon.poll(); });

  std::vector<std::unique_ptr<Client>> riders;
  for (int i = 0; i < clients; ++i) {
    auto client = std::make_unique<Client>(transport.connect());
    if (!client->hello("load-" + std::to_string(i)).is_ok()) {
      std::fprintf(stderr, "hello failed for client %d\n", i);
      std::exit(1);
    }
    service::Subscribe spec;
    spec.target_kind = TargetKind::kThread;
    spec.target = tids[static_cast<std::size_t>(i % targets)];
    spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    if (const auto ack = client->subscribe(spec); !ack.has_value()) {
      std::fprintf(stderr, "subscribe failed for client %d: %s\n", i,
                   ack.status().to_string().c_str());
      std::exit(1);
    }
    riders.push_back(std::move(client));
  }

  const std::uint64_t reads_before = daemon.stats().backend_reads;
  const std::uint64_t samples_before = daemon.stats().samples_delivered;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(clients) * kTicks);
  std::uint64_t samples_seen = 0;
  for (int t = 0; t < kTicks; ++t) {
    kernel.run_for(std::chrono::milliseconds(5));
    daemon.tick();
    if (churn_per_tick > 0) {
      std::vector<std::unique_ptr<Client>> ephemerals;
      for (int c = 0; c < churn_per_tick; ++c) {
        auto eph = std::make_unique<Client>(transport.connect());
        if (!eph->hello("churn-" + std::to_string(t) + "-" +
                        std::to_string(c))
                 .is_ok()) {
          std::fprintf(stderr, "churn hello failed (tick %d)\n", t);
          std::exit(1);
        }
        service::Subscribe spec;
        spec.target_kind = TargetKind::kThread;
        spec.target = tids[0];
        spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
        if (!eph->subscribe(spec).has_value()) {
          std::fprintf(stderr, "churn subscribe failed (tick %d)\n", t);
          std::exit(1);
        }
        ephemerals.push_back(std::move(eph));
      }
      for (std::size_t c = 0; c < ephemerals.size(); ++c) {
        if (c % 2 == 0) {
          static_cast<void>(ephemerals[c]->close());  // polite farewell
        } else {
          ephemerals[c].reset();  // vanish mid-session
        }
      }
      // Reap the vanished before the next delivery tick so churned
      // sessions never receive a sample: client_reads stays exactly
      // steady-riders x ticks.
      daemon.poll();
    }
    for (auto& rider : riders) {
      const auto start = std::chrono::steady_clock::now();
      samples_seen += rider->take_samples().size();
      const auto stop = std::chrono::steady_clock::now();
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
    }
  }

  CellResult result;
  result.label = label;
  result.clients = clients;
  result.shards = shards;
  result.distinct_subscriptions = daemon.distinct_subscription_count();
  result.backend_reads = daemon.stats().backend_reads - reads_before;
  result.client_reads = daemon.stats().samples_delivered - samples_before;
  if (samples_seen != result.client_reads) {
    std::fprintf(stderr, "warning: %s: clients swept %llu of %llu samples\n",
                 label.c_str(),
                 static_cast<unsigned long long>(samples_seen),
                 static_cast<unsigned long long>(result.client_reads));
  }
  result.reads_per_client_read =
      result.client_reads == 0
          ? 0.0
          : static_cast<double>(result.backend_reads) /
                static_cast<double>(result.client_reads);
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = percentile(latencies_us, 0.50);
  result.p95_us = percentile(latencies_us, 0.95);
  result.p99_us = percentile(latencies_us, 0.99);

  for (auto& rider : riders) static_cast<void>(rider->close());
  daemon.shutdown();
  if (backend.open_fd_count() != 0) {
    std::fprintf(stderr, "error: %s leaked %zu fds\n", label.c_str(),
                 backend.open_fd_count());
    std::exit(1);
  }
  return result;
}

void write_json(const std::vector<CellResult>& cells, std::size_t threads,
                double wall_s) {
  const char* path = "BENCH_daemon_load.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"name\": \"daemon_load\",\n  \"threads\": %zu,\n"
               "  \"ticks_per_cell\": %d,\n  \"wall_s\": %.6f,\n"
               "  \"cells\": [\n",
               threads, kTicks, wall_s);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        out,
        "    {\"label\": \"%s\", \"clients\": %d, \"shards\": %zu, "
        "\"distinct_subscriptions\": %llu, \"backend_reads\": %llu, "
        "\"client_reads\": %llu, \"reads_per_client_read\": %.6f, "
        "\"latency_us\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}}%s\n",
        c.label.c_str(), c.clients, c.shards,
        static_cast<unsigned long long>(c.distinct_subscriptions),
        static_cast<unsigned long long>(c.backend_reads),
        static_cast<unsigned long long>(c.client_reads),
        c.reads_per_client_read, c.p50_us, c.p95_us, c.p99_us,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s (wall %.3f s, %zu cells, %zu threads)\n",
               path, wall_s, cells.size(), threads);
}

}  // namespace

// Stdout carries only the deterministic counts: it must be byte-for-byte
// identical across --threads and --shards (CI diffs the runs). The shard
// count and the latency percentiles live in the JSON.
void print_cell(const CellResult& c) {
  std::printf("%-26s %8d %9llu %13llu %13llu %9.4f\n", c.label.c_str(),
              c.clients,
              static_cast<unsigned long long>(c.distinct_subscriptions),
              static_cast<unsigned long long>(c.backend_reads),
              static_cast<unsigned long long>(c.client_reads),
              c.reads_per_client_read);
}

int main(int argc, char** argv) {
  // --shards S is our own axis; strip it before the shared parser (which
  // would otherwise read the bare value as the client count).
  std::size_t base_shards = 1;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      base_shards = static_cast<std::size_t>(
          std::max(1L, std::strtol(argv[++i], nullptr, 10)));
      continue;
    }
    rest.push_back(argv[i]);
  }
  const bench::BenchOptions opts =
      bench::parse_bench_args(static_cast<int>(rest.size()), rest.data(), 1024);
  const auto bench_start = std::chrono::steady_clock::now();

  std::vector<CellResult> cells;
  std::printf("daemon_load: shared-subscription sweep, %d ticks per cell\n\n",
              kTicks);
  std::fprintf(stderr, "daemon_load: %zu base shard(s)\n", base_shards);
  std::printf("%-26s %8s %9s %13s %13s %9s\n", "cell", "clients", "distinct",
              "backend-reads", "client-reads", "ratio");
  for (int clients = 1; clients <= opts.n; clients *= 2) {
    cells.push_back(run_cell("same-spec/" + std::to_string(clients), clients,
                             /*targets=*/1, opts.threads, base_shards));
    print_cell(cells.back());
  }
  // Control: distinct targets -> no coalescing -> ratio ~1.
  cells.push_back(run_cell("distinct-spec/" + std::to_string(kDistinctTargets),
                           kDistinctTargets, kDistinctTargets, opts.threads,
                           base_shards));
  print_cell(cells.back());
  // Mixed cell: a big client population over a handful of distinct
  // specs — reads must scale with the 8 specs, not the client count —
  // swept across the shard axis to show fan-out partitioning keeps the
  // counts (and, in the JSON, the latency percentiles) invariant.
  const int mixed_clients = std::min(opts.n, 1024);
  if (mixed_clients >= kDistinctTargets) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}}) {
      cells.push_back(run_cell(
          "mixed-spec/" + std::to_string(mixed_clients) + "x" +
              std::to_string(kDistinctTargets) + "/shards" +
              std::to_string(shards),
          mixed_clients, kDistinctTargets, opts.threads, shards));
      print_cell(cells.back());
    }
  }
  // Churn cell (PR 9, self-healing fabric): steady riders under
  // constant session churn — 16 short-lived clients join and leave
  // every tick, half of them by abandoning their socket. The steady
  // stream's counts must match same-spec/64 exactly and its p99 must
  // stay flat (bench_check's churn guard).
  if (opts.n >= 64) {
    cells.push_back(run_cell("churn/64+16", 64, /*targets=*/1, opts.threads,
                             base_shards, /*churn_per_tick=*/16));
    print_cell(cells.back());
  }
  std::printf(
      "\ncoalescing holds when same-spec ratios track 1/clients while the\n"
      "distinct-spec control stays at 1.0 and the mixed cells sit at\n"
      "specs/clients regardless of shard count; latency percentiles live\n"
      "in BENCH_daemon_load.json and must stay flat across the sweep\n"
      "(bench_check --daemon-load enforces both properties).\n");

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - bench_start)
                            .count();
  write_json(cells, opts.threads, wall_s);
  return 0;
}
