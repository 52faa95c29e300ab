// Client auto-reconnect end to end: a severed link heals through the
// connection factory under deterministic backoff, the recorded
// subscription set is replayed, and the epoch + sequence/tick tail
// turns the outage into exact accounting — same epoch means the client
// knows precisely how many samples it missed; a changed epoch (daemon
// restart) is an explicit unknown gap, never a silent guess. RPCs
// interrupted by a resume fail kInterrupted so non-idempotent requests
// are never silently re-run, and a dead-silent daemon is bounded by the
// rpc deadline instead of hanging the client forever.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/faulty_transport.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;
using namespace hetpapi::service;

/// Daemon with a clean listener; only client endpoints are wrapped, so
/// sever_all() kills exactly the client-side links (the outage the
/// reconnect machinery must heal). The factory dials whatever transport
/// is current, which lets tests restart the daemon under the client.
struct ReconnectHarness {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> backend;
  std::unique_ptr<LoopbackTransport> transport;
  std::vector<std::unique_ptr<LoopbackTransport>> retired;
  std::unique_ptr<FaultyTransport> faulty;
  std::unique_ptr<Daemon> daemon;
  std::vector<Tid> tids;
  Tid tid{};

  Status init(DaemonConfig dconfig = {}) {
    kernel = std::make_unique<SimKernel>(cpumodel::raptor_lake_i7_13700());
    backend = std::make_unique<SimBackend>(kernel.get());
    for (int cpu = 0; cpu < 2; ++cpu) {
      tids.push_back(kernel->spawn(
          std::make_shared<FixedWorkProgram>(PhaseSpec{}, 4'000'000'000ull),
          CpuSet::of({cpu})));
    }
    tid = tids[0];
    faulty = std::make_unique<FaultyTransport>(
        *TransportFaultProfile::named("none"), 1);
    return start_daemon(std::move(dconfig));
  }

  Status start_daemon(DaemonConfig dconfig) {
    transport = std::make_unique<LoopbackTransport>();
    daemon = std::make_unique<Daemon>(kernel.get(), backend.get(),
                                      std::move(dconfig));
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    return Status::ok();
  }

  /// Shut the daemon down and bring up a replacement (new transport,
  /// new config) that the factory dials transparently. The retired
  /// transport stays alive: the client still holds an endpoint into it
  /// until the heal adopts a fresh connection.
  Status restart(DaemonConfig dconfig) {
    daemon->shutdown();
    daemon.reset();  // before its transport: the pump captures it raw
    retired.push_back(std::move(transport));
    return start_daemon(std::move(dconfig));
  }

  ConnectionFactory factory() {
    return [this]() -> Expected<std::unique_ptr<Connection>> {
      return faulty->wrap(transport->connect());
    };
  }

  /// A reconnect-armed client (enable_reconnect precedes hello).
  Client connect(const std::string& name, ReconnectConfig rc = {}) {
    Client client(faulty->wrap(transport->connect()));
    client.enable_reconnect(factory(), std::move(rc));
    EXPECT_TRUE(client.hello(name).is_ok()) << name;
    return client;
  }

  void tick(int ms = 10) {
    kernel->run_for(std::chrono::milliseconds(ms));
    daemon->poll();  // drain inbound pipes (and notice dead ones)
    daemon->tick();
  }

  Subscribe spec(int which = 0) const {
    Subscribe s;
    s.target_kind = TargetKind::kThread;
    s.target = tids[static_cast<std::size_t>(which)];
    s.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    return s;
  }
};

// --- resume + exact gap accounting -----------------------------------------

TEST(ServiceReconnect, ResumeRestoresSubscriptionsAndAccountsTheGapExactly) {
  ReconnectHarness h;
  DaemonConfig dconfig;
  dconfig.epoch = 7;
  ASSERT_TRUE(h.init(dconfig).is_ok());
  Client client = h.connect("resumer");
  EXPECT_EQ(client.epoch(), 7u);

  auto sub = client.subscribe(h.spec());
  ASSERT_TRUE(sub.has_value()) << sub.status().message();
  for (int t = 0; t < 3; ++t) h.tick();
  const auto before = client.take_samples();
  ASSERT_EQ(before.size(), 3u);
  const std::uint64_t last_tick = before.back().tick;

  // The outage: the link dies and the daemon keeps ticking without us.
  h.faulty->sever_all();
  EXPECT_FALSE(client.connected());
  constexpr int kMissedTicks = 4;
  for (int t = 0; t < kMissedTicks; ++t) h.tick();
  EXPECT_EQ(h.daemon->client_count(), 0u) << "the daemon reaped the dead pipe";

  // The next operation heals transparently: redial, re-hello,
  // re-subscribe, then the RPC itself proceeds on the new connection.
  auto stats = client.stats();
  ASSERT_TRUE(stats.has_value()) << stats.status().message();
  const ResumeStats& rs = client.resume_stats();
  EXPECT_EQ(rs.reconnects, 1u);
  EXPECT_EQ(rs.attempts, 1u);
  EXPECT_EQ(rs.epoch_changes, 0u);
  EXPECT_EQ(rs.resubscribe_failures, 0u);
  EXPECT_EQ(client.epoch(), 7u);
  const std::uint32_t resumed_id =
      client.current_subscription_id(sub->subscription_id);
  EXPECT_NE(resumed_id, 0u);

  // Samples flow again, and the first one quantifies the outage
  // exactly: same epoch, so missed = tick delta over the period.
  h.tick();
  const auto after = client.take_samples();
  ASSERT_GE(after.size(), 1u);
  EXPECT_EQ(after.front().subscription_id, resumed_id);
  EXPECT_EQ(client.resume_stats().gaps, 1u);
  EXPECT_EQ(client.resume_stats().unknown_gaps, 0u);
  EXPECT_EQ(client.resume_stats().samples_missed,
            after.front().tick - last_tick - 1);
  EXPECT_EQ(client.resume_stats().samples_missed,
            static_cast<std::uint64_t>(kMissedTicks));
}

// --- deterministic bounded backoff -----------------------------------------

std::pair<Status, std::vector<std::uint64_t>> run_exhaustion(
    std::uint64_t seed, int* dials_out) {
  ReconnectHarness h;
  EXPECT_TRUE(h.init().is_ok());
  std::vector<std::uint64_t> delays;
  ReconnectConfig rc;
  rc.seed = seed;
  rc.max_attempts = 5;
  rc.initial_backoff_ms = 10;
  rc.max_backoff_ms = 40;
  rc.jitter_frac = 0.25;
  rc.sleep_ms = [&delays](std::uint64_t ms) { delays.push_back(ms); };
  int dials = 0;
  Client client(h.faulty->wrap(h.transport->connect()));
  client.enable_reconnect(
      [&dials]() -> Expected<std::unique_ptr<Connection>> {
        ++dials;
        return make_error(StatusCode::kNotFound, "dial refused (test)");
      },
      std::move(rc));
  EXPECT_TRUE(client.hello("doomed").is_ok());
  EXPECT_TRUE(client.subscribe(h.spec()).has_value());
  h.faulty->sever_all();
  auto st = client.stats();
  EXPECT_FALSE(st.has_value());
  EXPECT_EQ(client.resume_stats().attempts, 5u);
  EXPECT_EQ(client.resume_stats().reconnects, 0u);
  if (dials_out != nullptr) *dials_out = dials;
  return {st.status(), delays};
}

TEST(ServiceReconnect, BackoffIsDeterministicBoundedAndSurfacedOnExhaustion) {
  int dials = 0;
  auto [status, delays] = run_exhaustion(23, &dials);
  // Exhaustion preserves the terminal cause's code and wraps it.
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("reconnect exhausted"), std::string::npos)
      << status.message();
  EXPECT_EQ(dials, 5);

  // One sleep before each attempt after the first; the schedule is
  // 10, 20, 40, 40 (doubling, capped) scaled by jitter in [0.75, 1.25].
  ASSERT_EQ(delays.size(), 4u);
  const std::uint64_t lo[] = {7, 14, 29, 29};
  const std::uint64_t hi[] = {13, 26, 51, 51};
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_GE(delays[i], lo[i]) << "delay " << i;
    EXPECT_LE(delays[i], hi[i]) << "delay " << i;
  }

  // Same seed, same jittered schedule, bit for bit.
  auto [again_status, again] = run_exhaustion(23, nullptr);
  EXPECT_EQ(again, delays);
  EXPECT_EQ(again_status.code(), StatusCode::kNotFound);
}

// --- epoch change across a daemon restart ----------------------------------

TEST(ServiceReconnect, DaemonRestartSurfacesEpochChangeAsUnknownGap) {
  ReconnectHarness h;
  DaemonConfig first;
  first.epoch = 1;
  ASSERT_TRUE(h.init(first).is_ok());
  Client client = h.connect("watcher");
  EXPECT_EQ(client.epoch(), 1u);
  auto sub = client.subscribe(h.spec());
  ASSERT_TRUE(sub.has_value());
  for (int t = 0; t < 2; ++t) h.tick();
  ASSERT_EQ(client.take_samples().size(), 2u);

  // Restart under a new epoch: the tick counter resets, so the outage
  // cannot be quantified — the client must say so explicitly.
  DaemonConfig second;
  second.epoch = 9;
  ASSERT_TRUE(h.restart(second).is_ok());

  // The shutdown's buffered Goodbye surfaces first as an explicit drop
  // (kNotRunning — never silently healed), then the dead pipe triggers
  // the resume, which interrupts whatever RPC was in flight.
  auto stats = client.stats();
  ASSERT_FALSE(stats.has_value());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotRunning);
  EXPECT_NE(client.goodbye_reason().find("shutting down"), std::string::npos)
      << client.goodbye_reason();
  for (int i = 0; i < 3 && !stats.has_value(); ++i) {
    const StatusCode code = stats.status().code();
    ASSERT_TRUE(code == StatusCode::kNotRunning ||
                code == StatusCode::kInterrupted)
        << stats.status().message();
    stats = client.stats();
  }
  ASSERT_TRUE(stats.has_value()) << stats.status().message();
  EXPECT_EQ(client.epoch(), 9u);
  EXPECT_EQ(client.resume_stats().reconnects, 1u);
  EXPECT_EQ(client.resume_stats().epoch_changes, 1u);

  h.tick();
  ASSERT_GE(client.take_samples().size(), 1u);
  EXPECT_EQ(client.resume_stats().unknown_gaps, 1u);
  EXPECT_EQ(client.resume_stats().gaps, 0u);
  EXPECT_EQ(client.resume_stats().samples_missed, 0u);
}

TEST(ServiceReconnect, ResubscribeAfterRestartCarriesTheSamePartNames) {
  // The replayed subscription lands on a fresh daemon, which computes
  // its schema anew: the part names must be identical, so the resumed
  // qualified stream keeps passing the client's shape check.
  ReconnectHarness h;
  DaemonConfig first;
  first.epoch = 1;
  ASSERT_TRUE(h.init(first).is_ok());
  Client client = h.connect("schema");
  Subscribe spec = h.spec();
  spec.qualified = 1;
  auto sub = client.subscribe(spec);
  ASSERT_TRUE(sub.has_value()) << sub.status().message();
  ASSERT_EQ(sub->part_names.size(), 2u);
  ASSERT_FALSE(sub->part_names[0].empty());
  h.tick();
  ASSERT_EQ(client.take_samples().size(), 1u);

  DaemonConfig second;
  second.epoch = 2;
  ASSERT_TRUE(h.restart(second).is_ok());
  auto stats = client.stats();
  for (int i = 0; i < 3 && !stats.has_value(); ++i) stats = client.stats();
  ASSERT_TRUE(stats.has_value()) << stats.status().message();
  ASSERT_EQ(client.resume_stats().reconnects, 1u);
  const std::uint32_t resumed_id =
      client.current_subscription_id(sub->subscription_id);
  ASSERT_NE(resumed_id, 0u);

  // A second rider on the same spec coalesces onto the replayed
  // subscription and is acked with exactly the original schema.
  Client probe(h.transport->connect());
  ASSERT_TRUE(probe.hello("probe").is_ok());
  auto again = probe.subscribe(spec);
  ASSERT_TRUE(again.has_value()) << again.status().message();
  EXPECT_EQ(again->part_names, sub->part_names);
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);

  h.tick();
  const auto after = client.take_samples();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].subscription_id, resumed_id);
  ASSERT_EQ(after[0].parts.size(), sub->part_names.size());
  for (std::size_t i = 0; i < after[0].parts.size(); ++i) {
    EXPECT_EQ(after[0].parts[i].size(), sub->part_names[i].size());
  }
}

// --- mid-RPC interruption ---------------------------------------------------

TEST(ServiceReconnect, MidRpcHealSurfacesInterruptedAndTheRetrySucceeds) {
  ReconnectHarness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("midflight");
  auto sub = client.subscribe(h.spec());
  ASSERT_TRUE(sub.has_value());

  // Script the failure between request and reply: the first transport
  // pump of the next RPC severs the link, after the request went out.
  bool armed = true;
  h.transport->set_pump([&h, &armed] {
    if (armed) {
      armed = false;
      h.faulty->sever_all();
    }
    h.daemon->poll();
  });

  auto st = client.stats();
  ASSERT_FALSE(st.has_value());
  EXPECT_EQ(st.status().code(), StatusCode::kInterrupted);
  EXPECT_EQ(client.resume_stats().reconnects, 1u)
      << "the connection healed even though the RPC was interrupted";

  auto retry = client.stats();
  ASSERT_TRUE(retry.has_value()) << retry.status().message();
  EXPECT_NE(client.current_subscription_id(sub->subscription_id), 0u);
  h.tick();
  EXPECT_GE(client.take_samples().size(), 1u);
}

// --- partial resubscribe ----------------------------------------------------

TEST(ServiceReconnect, RefusedResubscribeIsCountedAndTheSubMarkedDead) {
  ReconnectHarness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("greedy");
  auto sub0 = client.subscribe(h.spec(0));
  ASSERT_TRUE(sub0.has_value());
  auto sub1 = client.subscribe(h.spec(1));
  ASSERT_TRUE(sub1.has_value());
  h.tick();
  ASSERT_EQ(client.take_samples().size(), 2u);

  // The replacement daemon admits only one subscription per client, so
  // the resume replays the first and is refused on the second.
  DaemonConfig capped;
  capped.epoch = 2;
  capped.max_subscriptions = 1;
  ASSERT_TRUE(h.restart(capped).is_ok());

  auto stats = client.stats();
  for (int i = 0; i < 3 && !stats.has_value(); ++i) {
    const StatusCode code = stats.status().code();
    ASSERT_TRUE(code == StatusCode::kNotRunning ||
                code == StatusCode::kInterrupted)
        << stats.status().message();
    stats = client.stats();
  }
  ASSERT_TRUE(stats.has_value()) << stats.status().message();
  EXPECT_EQ(client.resume_stats().reconnects, 1u);
  EXPECT_EQ(client.resume_stats().resubscribe_failures, 1u);
  EXPECT_NE(client.current_subscription_id(sub0->subscription_id), 0u);
  EXPECT_EQ(client.current_subscription_id(sub1->subscription_id), 0u)
      << "the refused subscription reads as dead, not resurrected";

  // The surviving subscription streams.
  h.tick();
  EXPECT_GE(client.take_samples().size(), 1u);
}

TEST(ServiceReconnect, RefusedResubscribeIsRetriedOncePerPassUntilAdmitted) {
  ReconnectHarness h;
  DaemonConfig first;
  first.epoch = 3;
  ASSERT_TRUE(h.init(first).is_ok());
  Client client = h.connect("patient-resubscriber");
  auto sub0 = client.subscribe(h.spec(0));
  ASSERT_TRUE(sub0.has_value());
  auto sub1 = client.subscribe(h.spec(1));
  ASSERT_TRUE(sub1.has_value());
  h.tick();
  ASSERT_EQ(client.take_samples().size(), 2u);

  // The same daemon process, now admitting one subscription per client:
  // the resume is refused the second one with kOverloaded, which is
  // worth asking again.
  DaemonConfig capped;
  capped.epoch = 3;
  capped.max_subscriptions = 1;
  ASSERT_TRUE(h.restart(capped).is_ok());
  auto stats = client.stats();
  for (int i = 0; i < 3 && !stats.has_value(); ++i) stats = client.stats();
  ASSERT_TRUE(stats.has_value()) << stats.status().message();
  ASSERT_EQ(client.resume_stats().resubscribe_failures, 1u);
  EXPECT_EQ(client.current_subscription_id(sub1->subscription_id), 0u);

  // Each sweep asks once; the quota is still taken.
  h.tick();
  (void)client.take_samples();
  EXPECT_EQ(client.resume_stats().resubscribe_retries, 1u);
  EXPECT_EQ(client.current_subscription_id(sub1->subscription_id), 0u);

  // Freeing the quota lets the next sweep's retry in, and the stream
  // flows on the new id.
  ASSERT_TRUE(client
                  .unsubscribe(
                      client.current_subscription_id(sub0->subscription_id))
                  .is_ok());
  (void)client.take_samples();
  EXPECT_EQ(client.resume_stats().resubscribe_retries, 2u);
  const std::uint32_t resumed =
      client.current_subscription_id(sub1->subscription_id);
  ASSERT_NE(resumed, 0u);
  h.tick();
  const auto samples = client.take_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].subscription_id, resumed);
  EXPECT_EQ(client.resume_stats().resubscribe_retries, 2u)
      << "no retry once the subscription is back";
}

// --- bounded deadlines ------------------------------------------------------

TEST(ServiceReconnect, DeadSilentDaemonIsBoundedByTheRpcDeadline) {
  ReconnectHarness h;
  ASSERT_TRUE(h.init().is_ok());
  ReconnectConfig rc;
  rc.rpc_deadline_pumps = 8;
  rc.max_attempts = 2;
  Client client = h.connect("patient", rc);
  ASSERT_TRUE(client.subscribe(h.spec()).has_value());

  // The daemon goes catatonic: the transport stops pumping it, so a
  // request is sent but no reply ever arrives. Without the deadline
  // this loop would never return.
  h.transport->set_pump([] {});
  auto st = client.stats();
  ASSERT_FALSE(st.has_value());
  EXPECT_EQ(st.status().code(), StatusCode::kInterrupted);
  EXPECT_NE(st.status().message().find("deadline"), std::string::npos)
      << st.status().message();
}

TEST(ServiceReconnect, HandshakeAgainstASilentDaemonIsBounded) {
  ReconnectHarness h;
  ASSERT_TRUE(h.init().is_ok());
  h.transport->set_pump([] {});
  ReconnectConfig rc;
  rc.rpc_deadline_pumps = 8;
  rc.max_attempts = 1;
  Client client(h.faulty->wrap(h.transport->connect()));
  client.enable_reconnect(h.factory(), rc);
  Status st = client.hello("nobody-home");
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kInterrupted);
}

/// What one mixed-fault soak saw.
struct SoakOutcome {
  std::size_t received = 0;
  std::uint64_t last_tick = 0;  // tick of the last sample received
  ResumeStats resume;
};

/// The full gauntlet on one daemon: its backend injects transient read
/// faults while the client's end of the link (and, with
/// `wrap_daemon_side`, the daemon's accepted end too) runs the mixed
/// wire profile (short/zero writes, EAGAIN bursts, random disconnects,
/// half-closes, stalls). A severed link re-dials under backoff, and
/// every ledger must read clean afterwards.
SoakOutcome run_mixed_soak(int steps, bool wrap_daemon_side) {
  SoakOutcome outcome;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend sim(&kernel);
  papi::FaultInjectingBackend injector(
      &sim, *papi::FaultProfile::named("transient-read"), /*seed=*/7);
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 4'000'000'000ull),
      CpuSet::of({0}));
  LoopbackTransport transport;
  FaultyTransport links(*TransportFaultProfile::named("mixed"), 29);
  {
    Daemon daemon(&kernel, &injector, DaemonConfig{});
    EXPECT_TRUE(daemon.init().is_ok());
    daemon.add_listener(wrap_daemon_side
                            ? links.wrap_listener(transport.listener())
                            : transport.listener());
    transport.set_pump([&daemon] { daemon.poll(); });
    const ConnectionFactory dial =
        [&]() -> Expected<std::unique_ptr<Connection>> {
      return links.wrap(transport.connect());
    };
    Client client(links.wrap(transport.connect()));
    client.enable_reconnect(dial);
    EXPECT_TRUE(client.hello("soak").is_ok());
    Subscribe spec;
    spec.target_kind = TargetKind::kThread;
    spec.target = tid;
    spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    auto sub = client.subscribe(spec);
    EXPECT_TRUE(sub.has_value()) << sub.status().message();

    for (int t = 0; t < steps; ++t) {
      kernel.run_for(std::chrono::milliseconds(10));
      daemon.poll();
      daemon.tick();
      for (const WireSample& sample : client.take_samples()) {
        ++outcome.received;
        outcome.last_tick = sample.tick;
        EXPECT_EQ(sample.values.size(), spec.events.size());
      }
    }
    outcome.resume = client.resume_stats();
    EXPECT_GT(links.total_injected(), 0u) << "the wire profile fired";
    EXPECT_GT(injector.stats().total_injected(), 0u)
        << "the backend profile fired";
    (void)client.close();
    daemon.shutdown();
    EXPECT_EQ(injector.open_fd_count(), 0u)
        << "leaked: " << testing::PrintToString(injector.leaked_fds());
    EXPECT_EQ(sim.open_fd_count(), 0u);
  }
  EXPECT_EQ(links.open_connection_count(), 0u);
  return outcome;
}

TEST(ServiceSelfHealChaos, MixedWireAndBackendFaultsSoakCleanly) {
  // Long enough for the profile to sever the link at least once.
  constexpr int kSteps = 200;
  const SoakOutcome soak = run_mixed_soak(kSteps, /*wrap_daemon_side=*/false);
  // Progress, not perfection: wire and backend faults may cost some
  // ticks, but the stream never stalls outright.
  EXPECT_GE(soak.received, static_cast<std::size_t>(kSteps) / 2);
  EXPECT_GE(soak.resume.reconnects, 1u) << "a severed link healed";
}

TEST(ServiceSelfHealChaos, FaultsOnBothEndsKeepTheStreamFlowing) {
  // Faults on both ends of every link, so the daemon notices a dead
  // link late and tears its subscription down while the backend
  // faults the final stop. The resumed client's resubscribe must still
  // be served: a force-destroyed set gives up its component lock, and
  // a refused resubscribe is retried rather than dropped for good.
  constexpr int kSteps = 200;
  const SoakOutcome soak = run_mixed_soak(kSteps, /*wrap_daemon_side=*/true);
  EXPECT_GE(soak.resume.reconnects, 1u) << "a severed link healed";
  EXPECT_GE(soak.received, static_cast<std::size_t>(kSteps) / 2);
  EXPECT_GE(soak.last_tick, static_cast<std::uint64_t>(kSteps) - 10)
      << "the stream still flows at the end of the soak";
}

}  // namespace
}  // namespace hetpapi
