// hetpapi_client: drive the counter-service daemon from the command
// line. Two subcommands mirror the classic perf workflow:
//
//   hetpapi_client stat    — one session, total counts over a run
//   hetpapi_client monitor — one shared subscription, streamed samples
//
// The daemon runs in-process over the deterministic loopback transport
// with a simulated workload thread (pick the machine with --machine),
// so the tool is reproducible anywhere; the same Client class speaks to
// a real hetpapid over a unix socket (see examples/counter_service.cpp
// for the socket wiring).
//
//   hetpapi_client stat    [--machine M] [--events a,b,...] [--ms N]
//   hetpapi_client monitor [--machine M] [--events a,b,...]
//                          [--period P] [--ticks N] [--qualified]
//                          [--reconnect]
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/cli.hpp"
#include "base/strings.hpp"
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

struct Options {
  std::string command;
  std::string machine = "raptorlake";
  std::vector<std::string> events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  int ms = 100;            // stat: simulated run length
  int period = 1;          // monitor: ticks between samples
  int ticks = 10;          // monitor: sampling ticks to run
  bool qualified = false;  // monitor: stream per-PMU constituents
  bool reconnect = false;  // auto-reconnect across transport loss
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: hetpapi_client <stat|monitor> [options]\n"
      "  --machine <preset>     (any cpumodel catalog name; default "
      "raptorlake)\n"
      "  --events ev1,ev2,...   (default PAPI_TOT_INS,PAPI_TOT_CYC)\n"
      "  --ms N        stat: simulated milliseconds to run (default 100)\n"
      "  --period P    monitor: ticks between samples (default 1)\n"
      "  --ticks N     monitor: sampling ticks to run (default 10)\n"
      "  --qualified   monitor: stream per-PMU constituent values\n"
      "  --reconnect   re-dial, re-handshake and resubscribe when the\n"
      "                transport dies (exits non-zero otherwise)\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  if (argc < 2) usage();
  opts.command = argv[1];
  if (opts.command != "stat" && opts.command != "monitor") usage();
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--qualified") {
      opts.qualified = true;
      continue;
    }
    if (arg == "--reconnect") {
      opts.reconnect = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const std::string_view value = argv[++i];
    if (arg == "--machine") {
      opts.machine = value;
    } else if (arg == "--events") {
      opts.events.clear();
      for (const std::string_view ev : split(value, ',')) {
        if (!ev.empty()) opts.events.emplace_back(ev);
      }
      if (opts.events.empty()) cli::usage_error(arg, value, "an event list");
    } else if (arg == "--ms") {
      opts.ms = static_cast<int>(cli::require_positive_int(arg, value));
    } else if (arg == "--period") {
      opts.period = static_cast<int>(cli::require_positive_int(arg, value));
    } else if (arg == "--ticks") {
      opts.ticks = static_cast<int>(cli::require_positive_int(arg, value));
    } else {
      usage();
    }
  }
  return opts;
}

cpumodel::MachineSpec machine_by_name(const std::string& name) {
  auto machine = cpumodel::machine_preset_by_name(name);
  return machine.has_value() ? *machine : cpumodel::raptor_lake_i7_13700();
}

/// A daemon farewell ends the run: surface the reason once so the
/// operator knows WHY the stream stopped (idle, slow, liveness,
/// shutdown, overload) instead of silently getting fewer samples. With
/// --reconnect the run continues (the client heals on its next op);
/// without it the caller exits non-zero.
bool report_goodbye(Client& client, bool& reported) {
  if (client.goodbye_reason().empty() || reported) {
    return !client.goodbye_reason().empty();
  }
  reported = true;
  std::fprintf(stderr, "daemon said goodbye: %s\n",
               client.goodbye_reason().c_str());
  return true;
}

void print_resume_stats(const Client& client) {
  const service::ResumeStats& rs = client.resume_stats();
  std::printf(
      "reconnect: %llu resumes over %llu dials, %llu gaps (%llu samples "
      "missed), %llu unknown gaps, %llu epoch changes\n",
      static_cast<unsigned long long>(rs.reconnects),
      static_cast<unsigned long long>(rs.attempts),
      static_cast<unsigned long long>(rs.gaps),
      static_cast<unsigned long long>(rs.samples_missed),
      static_cast<unsigned long long>(rs.unknown_gaps),
      static_cast<unsigned long long>(rs.epoch_changes));
}

/// The in-process serving stack: daemon + sim workload over loopback.
struct Stack {
  std::unique_ptr<simkernel::SimKernel> kernel;
  std::unique_ptr<papi::SimBackend> backend;
  std::unique_ptr<service::LoopbackTransport> transport;
  std::unique_ptr<service::Daemon> daemon;
  simkernel::Tid tid{};

  Status init(const Options& opts) {
    kernel = std::make_unique<simkernel::SimKernel>(
        machine_by_name(opts.machine));
    backend = std::make_unique<papi::SimBackend>(kernel.get());
    transport = std::make_unique<service::LoopbackTransport>();
    daemon = std::make_unique<service::Daemon>(kernel.get(), backend.get(),
                                               service::DaemonConfig{});
    tid = kernel->spawn(
        std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                     4'000'000'000ull),
        simkernel::CpuSet::of({0}));
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    return Status::ok();
  }
};

int run_stat(Stack& stack, const Options& opts) {
  Client client(stack.transport->connect());
  if (opts.reconnect) {
    client.enable_reconnect(
        [&stack]() -> Expected<std::unique_ptr<service::Connection>> {
          return stack.transport->connect();
        });
  }
  if (const Status s = client.hello("hetpapi_client"); !s.is_ok()) {
    std::fprintf(stderr, "hello: %s\n", s.to_string().c_str());
    return 1;
  }
  auto session = client.open_session(TargetKind::kThread, stack.tid);
  if (!session.has_value()) {
    std::fprintf(stderr, "open_session: %s\n",
                 session.status().to_string().c_str());
    return 1;
  }
  auto ack = client.add_events(*session, opts.events);
  if (!ack.has_value()) {
    std::fprintf(stderr, "add_events: %s\n", ack.status().to_string().c_str());
    return 1;
  }
  if (const Status s = client.start(*session); !s.is_ok()) {
    std::fprintf(stderr, "start: %s\n", s.to_string().c_str());
    return 1;
  }
  stack.kernel->run_for(std::chrono::milliseconds(opts.ms));
  auto reading = client.read(*session);
  if (!reading.has_value()) {
    std::fprintf(stderr, "read: %s\n", reading.status().to_string().c_str());
    return 1;
  }
  std::printf("counter stats on %s over %d simulated ms:\n",
              opts.machine.c_str(), opts.ms);
  for (std::size_t i = 0; i < reading->values.size(); ++i) {
    const bool degraded =
        i < reading->degraded.size() && reading->degraded[i] != 0;
    std::printf("  %-24s %16lld%s\n", ack->canonical_names[i].c_str(),
                reading->values[i], degraded ? "  (degraded)" : "");
  }
  static_cast<void>(client.close());
  return 0;
}

int run_monitor(Stack& stack, const Options& opts) {
  Client client(stack.transport->connect());
  if (opts.reconnect) {
    client.enable_reconnect(
        [&stack]() -> Expected<std::unique_ptr<service::Connection>> {
          return stack.transport->connect();
        });
  }
  if (const Status s = client.hello("hetpapi_client"); !s.is_ok()) {
    std::fprintf(stderr, "hello: %s\n", s.to_string().c_str());
    return 1;
  }
  service::Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = stack.tid;
  spec.events = opts.events;
  spec.period_ticks = static_cast<std::uint32_t>(opts.period);
  spec.qualified = opts.qualified ? 1 : 0;
  auto ack = client.subscribe(spec);
  if (!ack.has_value()) {
    std::fprintf(stderr, "subscribe: %s\n", ack.status().to_string().c_str());
    return 1;
  }
  std::printf("monitoring %s (subscription %u, shared key %u, period %d)\n",
              opts.machine.c_str(), ack->subscription_id, ack->shared_key_id,
              opts.period);
  bool goodbye_reported = false;
  std::vector<service::WireSample> samples;  // one buffer for every take
  for (int t = 0; t < opts.ticks; ++t) {
    stack.kernel->run_for(std::chrono::milliseconds(10));
    stack.daemon->tick();
    if (report_goodbye(client, goodbye_reported) && !opts.reconnect) return 1;
    client.take_samples_into(samples);
    for (const service::WireSample& sample : samples) {
      std::printf("tick %llu t=%.3fs:",
                  static_cast<unsigned long long>(sample.tick),
                  sample.t_seconds);
      for (std::size_t i = 0; i < sample.values.size(); ++i) {
        std::printf("  %s=%lld", spec.events[i].c_str(), sample.values[i]);
      }
      std::printf("\n");
      // Part values arrive in the order of the ack's schema (the client
      // has checked each sample's part counts against it).
      for (std::size_t i = 0; i < sample.parts.size(); ++i) {
        const std::span<const long long> parts = sample.parts[i];
        if (parts.empty()) continue;
        std::printf("    %s parts:", spec.events[i].c_str());
        const std::vector<std::string>& names = ack->part_names.at(i);
        for (std::size_t p = 0; p < parts.size(); ++p) {
          std::printf(" %s=%lld", p < names.size() ? names[p].c_str() : "?",
                      parts[p]);
        }
        std::printf("\n");
      }
    }
  }
  auto stats = client.stats();
  if (stats.has_value()) {
    std::printf(
        "daemon: %llu ticks, %llu backend reads, %llu samples delivered\n",
        static_cast<unsigned long long>(stats->ticks),
        static_cast<unsigned long long>(stats->backend_reads),
        static_cast<unsigned long long>(stats->samples_delivered));
  }
  if (opts.reconnect) print_resume_stats(client);
  if (report_goodbye(client, goodbye_reported) && !opts.reconnect) return 1;
  static_cast<void>(client.close());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  Stack stack;
  if (const Status s = stack.init(opts); !s.is_ok()) {
    std::fprintf(stderr, "daemon init: %s\n", s.to_string().c_str());
    return 1;
  }
  const int rc = opts.command == "stat" ? run_stat(stack, opts)
                                        : run_monitor(stack, opts);
  stack.daemon->shutdown();
  return rc;
}
