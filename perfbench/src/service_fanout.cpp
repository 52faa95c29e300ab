// service_fanout: one Daemon (4 shards, 2 encode threads) serves clients
// over LoopbackTransport. Three steady connections each hold 64
// subscriptions spread over 8 distinct keys, half plain and half
// qualified; one churn connection connects, subscribes and closes on
// every tick; the kernel advances 1 ms per tick. Backend reads stay at 8
// per tick while encode, fan-out, transport and decode scale with the
// 192 riders.
//
// Each key targets its own thread: the library runs at most one EventSet
// per thread and component, so a plain and a qualified key cannot share
// a target.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "base/rng.hpp"
#include "bench.hpp"
#include "cpumodel/machine.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

constexpr int kKeys = 8;
constexpr int kSteady = 3;
constexpr int kSubsPerConnection = 64;
/// One target thread per key: four P cores, four E cores.
constexpr int kTargetCpus[kKeys] = {0, 2, 4, 6, 16, 17, 18, 19};

/// Odd keys stream qualified (per-PMU) samples, even keys plain ones.
bool qualified_key(int key) { return key % 2 == 1; }

service::Subscribe spec_for_key(const std::vector<simkernel::Tid>& tids, int key) {
  service::Subscribe spec;
  spec.target_kind = service::TargetKind::kThread;
  spec.target = tids[static_cast<std::size_t>(key)];
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  spec.qualified = qualified_key(key) ? 1 : 0;
  return spec;
}

struct World {
  std::unique_ptr<simkernel::SimKernel> kernel;
  std::unique_ptr<papi::SimBackend> backend;
  std::vector<simkernel::Tid> tids;
  std::unique_ptr<service::LoopbackTransport> transport;
  std::unique_ptr<service::Daemon> daemon;
  /// Per steady connection: subscription id -> key.
  std::vector<std::vector<int>> key_of;
  std::vector<std::unique_ptr<service::Client>> steady;
  bool ok = false;
};

std::unique_ptr<World> build_world(std::uint64_t seed, Tracer* tracer) {
  auto w = std::make_unique<World>();
  {
    Scope span(tracer, span_id(tracer, "simkernel.kernel_ctor"));
    simkernel::SimKernel::Config config;
    config.seed = seed;
    w->kernel = std::make_unique<simkernel::SimKernel>(
        cpumodel::raptor_lake_i7_13700(), config);
  }
  w->backend = std::make_unique<papi::SimBackend>(w->kernel.get());
  for (const int cpu : kTargetCpus) {
    w->tids.push_back(w->kernel->spawn(
        std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                     1'000'000'000'000'000ULL),
        simkernel::CpuSet::of({cpu})));
  }
  service::DaemonConfig config;
  config.shards = 4;
  config.encode_threads = 2;
  w->transport = std::make_unique<service::LoopbackTransport>();
  w->daemon = std::make_unique<service::Daemon>(w->kernel.get(), w->backend.get(),
                                                config);
  {
    Scope span(tracer, span_id(tracer, "service.init"));
    if (const Status s = w->daemon->init(); !s.is_ok()) {
      setup_failed("Daemon::init", s.to_string());
      return w;
    }
  }
  w->daemon->add_listener(w->transport->listener());
  service::Daemon* daemon = w->daemon.get();
  w->transport->set_pump([daemon] { daemon->poll(); });

  // Each connection subscribes its 64 riders in a seeded order over the
  // 8 keys (8 riders per key).
  Rng rng(seed ^ 0x5e2f1ceULL);
  for (int c = 0; c < kSteady; ++c) {
    auto client = std::make_unique<service::Client>(w->transport->connect());
    if (const Status s = client->hello("steady-" + std::to_string(c)); !s.is_ok()) {
      setup_failed("hello", s.to_string());
      return w;
    }
    std::vector<int> keys(kSubsPerConnection);
    for (int i = 0; i < kSubsPerConnection; ++i) keys[static_cast<std::size_t>(i)] = i % kKeys;
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.next() % i]);
    }
    std::vector<int> key_of;
    for (const int key : keys) {
      auto ack = client->subscribe(spec_for_key(w->tids, key));
      if (!ack) {
        setup_failed("subscribe", ack.status().to_string());
        return w;
      }
      if (key_of.size() <= ack->subscription_id) key_of.resize(ack->subscription_id + 1, -1);
      key_of[ack->subscription_id] = key;
    }
    w->key_of.push_back(std::move(key_of));
    w->steady.push_back(std::move(client));
  }
  w->ok = true;
  return w;
}

bool same_sample(const service::WireSample& a, const service::WireSample& b) {
  return a.tick == b.tick && a.values == b.values && a.parts == b.parts;
}

/// Batch-timed encode and decode of one sample shape; per-call ns.
void time_codec(const service::WireSample& sample, Tracer* tracer,
                std::vector<double>& encode_ns, std::vector<double>& decode_ns,
                Outcome& out) {
  constexpr std::uint32_t kCalls = 500;
  const std::uint32_t encode_id = span_id(tracer, "service.sample_encode");
  const std::uint32_t decode_id = span_id(tracer, "service.sample_decode");
  const service::Frame frame{service::MsgType::kSample, sample.encode()};
  std::size_t sink = 0;
  bool roundtrip = true;
  for (int b = 0; b < 30; ++b) {
    std::int64_t t0 = now_ns();
    {
      Scope span(tracer, encode_id, kCalls);
      for (std::uint32_t i = 0; i < kCalls; ++i) sink += sample.encode().size();
    }
    encode_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    t0 = now_ns();
    {
      Scope span(tracer, decode_id, kCalls);
      for (std::uint32_t i = 0; i < kCalls; ++i) {
        auto decoded = service::WireSample::decode(frame);
        roundtrip = roundtrip && decoded && same_sample(*decoded, sample);
        sink += decoded ? decoded->values.size() : 0;
      }
    }
    decode_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  out.check(roundtrip && sink > 0, "service_fanout: WireSample round-trips");
}

/// Timed ticks per pass. Every pass replays them on a freshly built
/// world, which also bounds memory: the loopback transport keeps every
/// connection it ever made, one per churn session.
constexpr std::uint64_t kTicksPerPass = 250;
/// Untimed ticks that open every pass. A fresh world's first ticks run on
/// cold caches in every pass alike, so no per-position minimum removes
/// their cost, and how much it is depends on the host's memory traffic.
/// They are run and checked like the others but not timed.
constexpr std::uint64_t kWarmupTicks = 50;

/// Host-side measurements and check state accumulated across passes.
struct Totals {
  ReplayMin tick_s;             // run_for plus service time, per tick
  ReplayMin service_s;          // tick, take_samples, churn and poll
  ReplayMin take_ns;            // per connection per tick
  ReplayMin tick_to_sample_us;  // per connection per tick
  std::uint64_t ticks = 0;      // timed
  std::uint64_t all_ticks = 0;  // warm-up included
  std::uint64_t decoded = 0;
  std::uint64_t timed_decoded = 0;
  std::uint64_t missing = 0;
  std::uint64_t churn_failed = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t delivered = 0;
  std::uint64_t frames_sent = 0;
  bool one_per_rider = true;
  bool shared_identical = true;
  bool reads_match = true;
  bool no_leak = true;
  double loop_host_s = 0.0;
  /// The last tick's samples on the first connection: the workload's
  /// plain and qualified shapes for the codec timings.
  std::vector<service::WireSample> last_samples;
};

/// Checks of one tick (untimed): one sample per rider, identical values
/// for riders sharing a key.
void check_tick(const World& w,
                const std::vector<std::vector<service::WireSample>>& taken,
                Totals& t) {
  const service::WireSample* first_of_key[kKeys] = {};
  for (int c = 0; c < kSteady; ++c) {
    const auto& samples = taken[static_cast<std::size_t>(c)];
    const auto& key_of = w.key_of[static_cast<std::size_t>(c)];
    t.decoded += samples.size();
    if (samples.size() != kSubsPerConnection) {
      t.one_per_rider = false;
      if (samples.size() < kSubsPerConnection) {
        t.missing += kSubsPerConnection - samples.size();
      }
    }
    std::vector<char> seen(key_of.size(), 0);
    for (const service::WireSample& s : samples) {
      if (s.subscription_id >= key_of.size() || key_of[s.subscription_id] < 0 ||
          seen[s.subscription_id] != 0) {
        t.one_per_rider = false;
        continue;
      }
      seen[s.subscription_id] = 1;
      const int key = key_of[s.subscription_id];
      if (first_of_key[key] == nullptr) {
        first_of_key[key] = &s;
      } else if (!same_sample(*first_of_key[key], s)) {
        t.shared_identical = false;
      }
    }
  }
}

/// One pass over a fresh world, then the shutdown checks.
void run_pass(World& w, std::uint64_t seed, Tracer* traced, Totals& t) {
  const std::uint32_t run_for_id = span_id(traced, "simkernel.run_for");
  const std::uint32_t tick_id = span_id(traced, "service.tick");
  const std::uint32_t take_id = span_id(traced, "service.take_samples");
  const std::uint32_t churn_id = span_id(traced, "service.churn_session");
  const std::uint32_t poll_id = span_id(traced, "service.poll");
  service::Daemon& daemon = *w.daemon;
  const service::DaemonStats before = daemon.stats();
  std::vector<std::vector<service::WireSample>> taken(kSteady);
  Rng churn_rng(seed ^ 0xc4u);
  t.tick_s.restart();
  t.service_s.restart();
  t.take_ns.restart();
  t.tick_to_sample_us.restart();
  for (std::uint64_t tick = 0; tick < kWarmupTicks + kTicksPerPass; ++tick) {
    const bool timed = tick >= kWarmupTicks;
    Tracer* const tracer = timed ? traced : nullptr;
    if (tick == kWarmupTicks && tracer != nullptr) tracer->open_window();
    std::int64_t at = now_ns();
    {
      Scope span(tracer, run_for_id);
      w.kernel->run_for(std::chrono::milliseconds(1));
    }
    const std::int64_t tick_start = now_ns();
    const double run_for_s = static_cast<double>(tick_start - at) * 1e-9;
    {
      Scope span(tracer, tick_id);
      daemon.tick();
    }
    for (int c = 0; c < kSteady; ++c) {
      at = now_ns();
      {
        Scope span(tracer, take_id);
        taken[static_cast<std::size_t>(c)] =
            w.steady[static_cast<std::size_t>(c)]->take_samples();
      }
      const std::int64_t done = now_ns();
      if (timed) {
        t.take_ns.add(static_cast<double>(done - at));
        t.tick_to_sample_us.add(static_cast<double>(done - tick_start) * 1e-3);
      }
    }
    double service_s = static_cast<double>(now_ns() - tick_start) * 1e-9;
    check_tick(w, taken, t);
    if (timed) {
      for (const auto& samples : taken) t.timed_decoded += samples.size();
    }

    at = now_ns();
    {
      Scope span(tracer, churn_id);
      service::Client churn(w.transport->connect());
      const bool ok =
          churn.hello("churn").is_ok() &&
          churn.subscribe(spec_for_key(w.tids, static_cast<int>(churn_rng.next() % kKeys)))
              .has_value() &&
          churn.close().is_ok();
      if (!ok) ++t.churn_failed;
    }
    {
      Scope span(tracer, poll_id);
      daemon.poll();
    }
    service_s += static_cast<double>(now_ns() - at) * 1e-9;
    if (!timed) continue;
    t.service_s.add(service_s);
    t.tick_s.add(run_for_s + service_s);
    t.loop_host_s += run_for_s + service_s;
  }
  if (traced != nullptr) traced->close_window();
  t.ticks += kTicksPerPass;
  t.all_ticks += kWarmupTicks + kTicksPerPass;

  const service::DaemonStats after = daemon.stats();
  const std::uint64_t reads = after.backend_reads - before.backend_reads;
  t.backend_reads += reads;
  t.reads_match = t.reads_match && reads == kKeys * (kWarmupTicks + kTicksPerPass);
  t.delivered += after.samples_delivered - before.samples_delivered;
  t.frames_sent += after.frames_sent - before.frames_sent;
  t.last_samples = std::move(taken[0]);

  for (auto& client : w.steady) (void)client->close();
  daemon.shutdown();
  t.no_leak = t.no_leak && w.backend->open_fd_count() == 0;
}

}  // namespace

Outcome run_service_fanout(const Options& opts, double seconds, Tracer* tracer) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<World> world = build_timed(
      kSetupReps, setup_s, [&] { return build_world(opts.seed, tracer); });

  Totals t;
  std::uint64_t passes = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    if (passes > 0) {
      rebuild_timed(world, setup_s, [&] { return build_world(opts.seed, tracer); });
    }
    out.check(world->ok, "service_fanout: world set up");
    if (!world->ok) return out;
    run_pass(*world, opts.seed, tracer, t);
    ++passes;
  } while (now_ns() < deadline);

  const std::uint64_t riders = kSteady * kSubsPerConnection;
  out.attempted += riders * t.all_ticks + t.all_ticks;
  out.failed += t.missing + t.churn_failed;
  out.check(t.one_per_rider, "service_fanout: every rider decodes one sample per tick");
  out.check(t.shared_identical,
            "service_fanout: riders sharing a key decode identical values");
  out.check(t.churn_failed == 0, "service_fanout: every churn session succeeded");
  out.check(t.reads_match, "service_fanout: backend reads equal keys x ticks");
  out.check(t.no_leak, "service_fanout: no fds leak after shutdown");
  std::printf("service_fanout: passes=%llu ticks=%llu timed=%llu riders=%llu decoded=%llu "
              "backend_reads=%llu churn_sessions=%llu\n",
              static_cast<unsigned long long>(passes),
              static_cast<unsigned long long>(t.all_ticks),
              static_cast<unsigned long long>(t.ticks),
              static_cast<unsigned long long>(riders),
              static_cast<unsigned long long>(t.decoded),
              static_cast<unsigned long long>(t.backend_reads),
              static_cast<unsigned long long>(t.all_ticks));

  // Mean over the workload's two shapes of each shape's median.
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t codec_batches = 0;
  if (tracer != nullptr) {
    const auto& key_of = world->key_of[0];
    const service::WireSample* shape[2] = {};
    for (const service::WireSample& s : t.last_samples) {
      shape[qualified_key(key_of[s.subscription_id]) ? 1 : 0] = &s;
    }
    out.check(shape[0] != nullptr && shape[1] != nullptr,
              "service_fanout: plain and qualified samples decoded");
    for (const service::WireSample* s : shape) {
      if (s == nullptr) continue;
      std::vector<double> enc;
      std::vector<double> dec;
      time_codec(*s, tracer, enc, dec, out);
      encode_ns += 0.5 * quantile(enc, 0.5);
      decode_ns += 0.5 * quantile(dec, 0.5);
      codec_batches += enc.size();
    }
  }

  out.loop_host_s = t.loop_host_s;
  out.loop_sim_s = static_cast<double>(t.ticks) * 1e-3;
  const double pass_sim_s = static_cast<double>(kTicksPerPass) * 1e-3;
  out.e2e("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  // The benchmark's own checks are excluded: host time is run_for plus
  // service time.
  out.e2e("sim_speed", pass_sim_s / t.tick_s.sum(), "sim_s/s",
          static_cast<std::size_t>(passes));
  out.e2e("read_ns_p50", quantile(t.take_ns.values(), 0.5), "ns", t.ticks * kSteady);
  out.e2e("read_ns_p99", quantile(t.take_ns.values(), 0.99), "ns", t.ticks * kSteady);
  // Every rider of a connection is decoded by the same take_samples
  // call, so each per-connection time stands for its 64 riders.
  out.e2e("tick_to_sample_us_p50", quantile(t.tick_to_sample_us.values(), 0.5), "us",
          t.ticks * riders);
  out.e2e("tick_to_sample_us_p99", quantile(t.tick_to_sample_us.values(), 0.99), "us",
          t.ticks * riders);
  out.e2e("samples_per_s",
          static_cast<double>(t.timed_decoded) / static_cast<double>(passes) /
              t.service_s.sum(),
          "1/s", t.timed_decoded);

  if (tracer != nullptr) {
    const double sim_ticks = static_cast<double>(t.ticks) * 2.0;  // 500 us tick
    out.layer("simkernel.run_for_ns_per_tick",
              tracer->total_ns("simkernel.run_for") / sim_ticks, "ns", t.ticks);
    out.layer("simkernel.ticks", sim_ticks, "count");
    out.layer("simkernel.kernel_ctor_ms",
              quantile(tracer->per_call_ns("simkernel.kernel_ctor"), 0.5) * 1e-6,
              "ms", tracer->calls("simkernel.kernel_ctor"));
    out.layer("service.init_ms",
              quantile(tracer->per_call_ns("service.init"), 0.5) * 1e-6, "ms",
              tracer->calls("service.init"));
    const auto median_us = [&](const char* name) {
      return quantile(tracer->per_call_ns(name), 0.5) * 1e-3;
    };
    out.layer("service.tick_us", median_us("service.tick"), "us", t.ticks);
    out.layer("service.poll_us", median_us("service.poll"), "us", t.ticks);
    out.layer("service.take_samples_us", median_us("service.take_samples"), "us",
              tracer->calls("service.take_samples"));
    out.layer("service.churn_session_us", median_us("service.churn_session"), "us",
              t.ticks);
    out.layer("service.sample_encode_ns", encode_ns, "ns", codec_batches);
    out.layer("service.sample_decode_ns", decode_ns, "ns", codec_batches);
    out.layer("service.backend_reads", static_cast<double>(t.backend_reads), "count");
    out.layer("service.samples_delivered", static_cast<double>(t.delivered), "count");
    out.layer("service.frames_sent", static_cast<double>(t.frames_sent), "count");
    out.layer("service.reads_per_sample",
              t.delivered > 0 ? static_cast<double>(t.backend_reads) /
                                    static_cast<double>(t.delivered)
                              : 0.0,
              "ratio");
  }
  return out;
}

}  // namespace perfbench
