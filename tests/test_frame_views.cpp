// Samples decoded where they land: the client receives straight into
// its FrameReader's buffer and decodes each Sample from a view of it.
// These suites pin that the view path changes nothing a caller sees.
// One seeded daemon stream goes through the loopback transport whole,
// in 1-, 7- and 64-byte chunks, and through a short-read fault profile
// (5-byte chunks, receive EAGAIN bursts, zero and short writes); every
// variant must decode the same samples and capture the same bytes. With
// liveness pings on, a Ping sits between Sample frames, and under the
// fault profile its Pong's send would-block, so the client receives
// into the reader while it is still draining it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/faulty_transport.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "stream_digest.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using namespace hetpapi::service;
using Bytes = std::vector<std::uint8_t>;

// --- FrameReader views -----------------------------------------------------

Bytes three_frame_stream() {
  Hello hello;
  hello.client_name = "views";
  Bytes stream = encode_frame(MsgType::kHello, hello.encode());
  for (const auto& frame :
       {encode_frame(MsgType::kPing, Ping{42}.encode()),
        encode_frame(MsgType::kGetStats, GetStats{}.encode())}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  return stream;
}

TEST(ServiceFrameViews, ViewsPointIntoTheBufferAndMatchCopiedFrames) {
  const Bytes stream = three_frame_stream();
  FrameReader copied;
  copied.feed(stream);
  FrameReader viewed;
  // Receive the way a transport does: append onto input() in 3-byte
  // pieces, popping whatever completed after each.
  std::size_t frames = 0;
  for (std::size_t at = 0; at < stream.size(); at += 3) {
    Bytes& in = viewed.input();
    const std::size_t end = std::min(stream.size(), at + 3);
    in.insert(in.end(), stream.begin() + static_cast<std::ptrdiff_t>(at),
              stream.begin() + static_cast<std::ptrdiff_t>(end));
    while (const FrameView view = viewed.next_view()) {
      auto frame = copied.next();
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(view.type, frame->type);
      EXPECT_EQ(view.frame().payload, frame->payload);
      // The payload is read where it landed, not copied out.
      EXPECT_GE(view.payload, in.data());
      EXPECT_LE(view.payload + view.size, in.data() + in.size());
      ++frames;
    }
  }
  EXPECT_EQ(frames, 3u);
  EXPECT_EQ(viewed.buffered_bytes(), 0u);
  // Everything was handed out, so the next receive starts on an empty
  // buffer (which the loopback fills by swapping, not copying).
  EXPECT_TRUE(viewed.input().empty());
  EXPECT_FALSE(viewed.next_view());
  EXPECT_FALSE(viewed.corrupt());
}

TEST(ServiceFrameViews, LoopbackReceiveAppendsOrSwapsInTheWholePipe) {
  LoopbackTransport transport;
  auto client = transport.connect();
  auto server = transport.listener()->accept();
  ASSERT_TRUE(server.has_value());
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  const std::uint8_t de[] = {'d', 'e'};

  // A buffer holding a partial frame is appended to.
  ASSERT_EQ(*(*server)->send(abc, sizeof(abc)), 3u);
  Bytes out = {'x'};
  ASSERT_EQ(*client->receive(out), 3u);
  EXPECT_EQ(out, (Bytes{'x', 'a', 'b', 'c'}));
  // An empty one takes the pipe's bytes whole, and the pipe keeps the
  // empty buffer's block for the next sends.
  Bytes spare;
  spare.reserve(64);
  const std::uint8_t* block = spare.data();
  ASSERT_EQ(*(*server)->send(de, sizeof(de)), 2u);
  ASSERT_EQ(*client->receive(spare), 2u);
  EXPECT_EQ(spare, (Bytes{'d', 'e'}));
  Bytes next;
  ASSERT_EQ(*(*server)->send(abc, sizeof(abc)), 3u);
  ASSERT_EQ(*client->receive(next), 3u);
  EXPECT_EQ(next, (Bytes{'a', 'b', 'c'}));
  EXPECT_EQ(next.data(), block);
  EXPECT_EQ(*client->receive(next), 0u);
}

// --- one stream, every chunking ---------------------------------------------

struct Variant {
  std::string name;
  std::size_t chunk_bytes = 0;  // LoopbackTransport::Config::max_chunk_bytes
  bool short_reads = false;     // behind the short-read fault profile
};

const Variant kVariants[] = {
    {"whole", 0, false},    {"chunk1", 1, false},      {"chunk7", 7, false},
    {"chunk64", 64, false}, {"short-read", 5, true},
};

/// Receive EAGAIN bursts on 5-byte chunks, and sends that would-block
/// or go out short: the client's Pong send would-block while the Ping
/// it answers is still being drained.
TransportFaultProfile short_read_profile() {
  TransportFaultProfile p;
  p.name = "short-read";
  p.recv_eagain_prob = 0.2;
  p.eagain_burst = 2;
  p.zero_write_prob = 0.5;
  p.short_write_prob = 0.5;
  return p;
}

struct Outcome {
  std::vector<WireSample> samples;
  Bytes bytes;
  DaemonStats stats;
  std::uint64_t zero_writes_while_streaming = 0;
};

constexpr std::size_t kRiders = 4;
constexpr int kRounds = 6;
constexpr int kTicksPerRound = 2;

/// Four riders (plain and qualified, two threads) on one seeded kernel.
/// Each round ticks twice, then drains the client until it is idle and
/// takes what it decoded.
Outcome run_stream(const Variant& variant, bool pings) {
  simkernel::SimKernel::Config kconfig;
  kconfig.seed = 7;
  simkernel::SimKernel kernel(cpumodel::raptor_lake_i7_13700(), kconfig);
  papi::SimBackend backend(&kernel);
  std::vector<simkernel::Tid> tids;
  for (const int cpu : {0, 16}) {
    tids.push_back(kernel.spawn(std::make_shared<workload::FixedWorkProgram>(
                                    workload::PhaseSpec{}, 4'000'000'000ull),
                                simkernel::CpuSet::of({cpu})));
  }
  DaemonConfig dconfig;
  dconfig.ping_interval_ticks = pings ? 1 : 0;
  Daemon daemon(&kernel, &backend, dconfig);
  EXPECT_TRUE(daemon.init().is_ok());
  LoopbackTransport::Config tconfig;
  tconfig.max_chunk_bytes = variant.chunk_bytes;
  LoopbackTransport transport(tconfig);
  daemon.add_listener(transport.listener());
  transport.set_pump([&daemon] { daemon.poll(); });
  FaultyTransport faulty(short_read_profile(), 0x5eed);
  std::unique_ptr<Connection> conn = transport.connect();
  if (variant.short_reads) conn = faulty.wrap(std::move(conn));

  Outcome out;
  Client client(std::move(conn));
  client.set_capture_bytes(true);
  EXPECT_TRUE(client.hello("views").is_ok());
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  for (const int qualified : {0, 1, 1, 0}) {
    spec.target = tids[static_cast<std::size_t>(qualified)];
    spec.qualified = static_cast<std::uint8_t>(qualified);
    EXPECT_TRUE(client.subscribe(spec).has_value());
  }
  const std::uint64_t setup_zero_writes =
      variant.short_reads ? faulty.link_stats(0).zero_writes : 0;

  std::vector<WireSample> batch;
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kTicksPerRound; ++t) {
      kernel.run_for(std::chrono::milliseconds(1));
      daemon.tick();
    }
    // Idle passes outlast any EAGAIN burst; an idle loopback receive
    // pumps the daemon, so every Pong sent is read before the next tick.
    for (int idle = 0; idle < 8;) idle = client.pump_once() ? 0 : idle + 1;
    daemon.poll();
    client.take_samples_into(batch);
    out.samples.insert(out.samples.end(), batch.begin(), batch.end());
  }
  out.bytes = client.captured_bytes();
  out.stats = daemon.stats();
  if (variant.short_reads) {
    out.zero_writes_while_streaming =
        faulty.link_stats(0).zero_writes - setup_zero_writes;
  }
  EXPECT_TRUE(client.close().is_ok());
  return out;
}

void expect_same_samples(const std::vector<WireSample>& got,
                         const std::vector<WireSample>& want,
                         const std::string& variant) {
  ASSERT_EQ(got.size(), want.size()) << variant;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(variant + " sample " + std::to_string(i));
    EXPECT_EQ(got[i].subscription_id, want[i].subscription_id);
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].tick, want[i].tick);
    EXPECT_EQ(got[i].values, want[i].values);
    EXPECT_EQ(got[i].degraded, want[i].degraded);
    EXPECT_EQ(got[i].counters_ok, want[i].counters_ok);
    EXPECT_EQ(got[i].parts, want[i].parts);
  }
}

/// Frame types in a captured stream, in order.
std::vector<MsgType> frame_types(const Bytes& bytes) {
  FrameReader reader;
  reader.feed(bytes);
  std::vector<MsgType> types;
  while (const FrameView view = reader.next_view()) types.push_back(view.type);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  return types;
}

/// The whole-pipe streams, without and with pings, as a client that
/// copied every frame out of its reader captured them. The HelloAck's
/// protocol version (6) is part of each stream; the rest is the bytes
/// the v5 daemon sent.
constexpr testing_support::StreamDigest kRecordedStream = {
    5097, 0x9b3f79ee5aaf6861ull};
constexpr testing_support::StreamDigest kRecordedPingStream = {
    5253, 0xc33c39bfc836c509ull};

TEST(ServiceFrameViews, EveryChunkingDecodesTheSameSamples) {
  const Outcome whole = run_stream(kVariants[0], /*pings=*/false);
  ASSERT_EQ(whole.samples.size(), kRiders * kRounds * kTicksPerRound);
  EXPECT_EQ(testing_support::digest_of(whole.bytes), kRecordedStream);
  std::size_t qualified = 0;
  for (const WireSample& s : whole.samples) {
    if (!s.parts.empty()) ++qualified;
  }
  EXPECT_EQ(qualified, whole.samples.size() / 2);
  for (const Variant& variant : kVariants) {
    const Outcome got = run_stream(variant, /*pings=*/false);
    expect_same_samples(got.samples, whole.samples, variant.name);
    EXPECT_EQ(got.bytes, whole.bytes) << variant.name;
  }
}

TEST(ServiceFrameViews, PingBetweenSamplesIsAnsweredMidDrain) {
  const Outcome whole = run_stream(kVariants[0], /*pings=*/true);
  ASSERT_EQ(whole.samples.size(), kRiders * kRounds * kTicksPerRound);
  EXPECT_EQ(testing_support::digest_of(whole.bytes), kRecordedPingStream);
  // Every Ping but the last sits between Samples: a round's first
  // between its two ticks', so the drain meets it mid-batch.
  const std::vector<MsgType> types = frame_types(whole.bytes);
  std::size_t pings_between_samples = 0;
  for (std::size_t i = 1; i + 1 < types.size(); ++i) {
    if (types[i] == MsgType::kPing && types[i - 1] == MsgType::kSample &&
        types[i + 1] == MsgType::kSample) {
      ++pings_between_samples;
    }
  }
  EXPECT_EQ(pings_between_samples,
            static_cast<std::size_t>(kRounds * kTicksPerRound - 1));
  for (const Variant& variant : kVariants) {
    const Outcome got = run_stream(variant, /*pings=*/true);
    expect_same_samples(got.samples, whole.samples, variant.name);
    EXPECT_EQ(got.bytes, whole.bytes) << variant.name;
    // Every Ping was answered before the next round: one deadline is
    // missed per round (the second tick), none drops the client.
    EXPECT_EQ(got.stats.pings_missed, static_cast<std::uint64_t>(kRounds))
        << variant.name;
    EXPECT_EQ(got.stats.clients_dropped_liveness, 0u) << variant.name;
    if (variant.short_reads) {
      EXPECT_GT(got.zero_writes_while_streaming, 0u)
          << "no Pong send would-block mid-drain";
    }
  }
}

}  // namespace
}  // namespace hetpapi
