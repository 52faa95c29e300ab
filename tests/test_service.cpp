// The counter-service daemon, end to end over the deterministic
// loopback transport: wire-protocol round trips and malformed-input
// handling, session lifecycle, shared-subscription coalescing (the
// backend-reads-per-tick oracle), backpressure and idle-timeout drops,
// graceful shutdown with the fd ledger as leak oracle, client byte
// streams pinned to recorded digests, and a seeded chaos soak with the
// fault injector behind the daemon. The unix-socket transport gets a
// real-socket smoke test in the ServiceLinuxHost suite (runs in the
// linux-host CI shard).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "stream_digest.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::FaultInjectingBackend;
using papi::FaultProfile;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;
using namespace hetpapi::service;

// --- wire protocol ---------------------------------------------------------

TEST(ServiceProto, ScalarAndStringRoundTrip) {
  const std::vector<std::string> strings{"a", "", "bc"};
  const std::vector<long long> values{-1, 0, 7};
  const std::vector<std::uint8_t> bytes{1, 0, 1};
  const std::vector<std::vector<std::string>> nested{{"x"}, {}, {"y", "z"}};
  Writer w;
  w(std::uint8_t{0xab}, std::uint32_t{0xdeadbeefu},
    std::uint64_t{0x0123456789abcdefull}, std::int64_t{-42},
    std::int32_t{-7}, std::string("hello"), TargetKind::kCpu);
  w(strings, values, bytes, nested);
  Reader r(w.bytes());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  std::int32_t i32 = 0;
  std::string str;
  TargetKind kind{};
  std::vector<std::string> strings_out;
  std::vector<long long> values_out;
  std::vector<std::uint8_t> bytes_out;
  std::vector<std::vector<std::string>> nested_out;
  r(u8, u32, u64, i64, i32, str, kind);
  r(strings_out, values_out, bytes_out, nested_out);
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(str, "hello");
  EXPECT_EQ(kind, TargetKind::kCpu);
  EXPECT_EQ(strings_out, strings);
  EXPECT_EQ(values_out, values);
  EXPECT_EQ(bytes_out, bytes);
  EXPECT_EQ(nested_out, nested);
  EXPECT_TRUE(r.finish("round trip").is_ok());
}

TEST(ServiceProto, ReaderRejectsTruncationAndStaysPoisoned) {
  Writer w;
  w(std::string("truncate me"));
  std::vector<std::uint8_t> bytes = w.take();
  bytes.erase(bytes.end() - 3, bytes.end());
  Reader r(bytes);
  std::string s;
  r(s);
  EXPECT_FALSE(r.ok());
  // Poisoned: even a 1-byte read now fails although bytes remain.
  std::uint8_t byte = 0x5a;
  r(byte);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(byte, 0x5a);
  const Status status = r.finish("Probe");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "Probe: truncated");

  // A target kind past the last one poisons the reader the same way.
  Writer bad;
  bad(std::uint8_t{3});
  Reader kinds(bad.bytes());
  TargetKind kind = TargetKind::kThread;
  kinds(kind);
  EXPECT_EQ(kind, TargetKind::kThread);
  EXPECT_EQ(kinds.finish("Probe").message(), "Probe: bad target kind");
}

TEST(ServiceProto, MessagesRoundTripThroughFrames) {
  Subscribe sub;
  sub.target_kind = TargetKind::kThread;
  sub.target = 17;
  sub.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  sub.period_ticks = 4;
  sub.qualified = 1;
  FrameReader reader;
  reader.feed(encode_frame(MsgType::kSubscribe, sub.encode()));
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, MsgType::kSubscribe);
  auto decoded = Subscribe::decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->target_kind, TargetKind::kThread);
  EXPECT_EQ(decoded->target, 17);
  EXPECT_EQ(decoded->events, sub.events);
  EXPECT_EQ(decoded->period_ticks, 4u);
  EXPECT_EQ(decoded->qualified, 1);

  WireSample sample;
  sample.subscription_id = 3;
  sample.tick = 99;
  sample.t_seconds = 1.5;
  sample.values = {100, 200};
  sample.degraded = {0, 1};
  sample.counters_ok = 1;
  sample.package_temp_c = 55.0;
  sample.package_power_w = 12.5;
  sample.parts = {{60, 40}, {}};
  reader.feed(encode_frame(MsgType::kSample, sample.encode()));
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  auto ds = WireSample::decode(*frame);
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(ds->subscription_id, 3u);
  EXPECT_EQ(ds->tick, 99u);
  EXPECT_EQ(ds->values, sample.values);
  EXPECT_EQ(ds->degraded, sample.degraded);
  EXPECT_EQ(ds->parts, sample.parts);

  WireError err;
  err.code = static_cast<std::int32_t>(StatusCode::kNoEventSet);
  err.in_reply_to = static_cast<std::uint8_t>(MsgType::kRead);
  err.message = "no such session";
  reader.feed(encode_frame(MsgType::kError, err.encode()));
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  auto de = WireError::decode(*frame);
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(de->to_status().code(), StatusCode::kNoEventSet);
  EXPECT_EQ(de->message, "no such session");
}

TEST(ServiceProto, SampleRoundTripsThreePerCoreTypeParts) {
  // The qualified frame is N-part by construction (a part count per
  // slot): three per-core-type constituents — a P/E/LP-E breakdown —
  // survive the wire byte-exactly, including an uncore slot with a
  // single unattributed part.
  WireSample sample;
  sample.subscription_id = 7;
  sample.tick = 12;
  sample.t_seconds = 0.25;
  sample.values = {300, 55};
  sample.degraded = {0, 0};
  sample.counters_ok = 1;
  sample.package_temp_c = 48.0;
  sample.package_power_w = 9.5;
  sample.parts = {{180, 90, 30}, {55}};

  FrameReader reader;
  reader.feed(encode_frame(MsgType::kSample, sample.encode()));
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  auto decoded = WireSample::decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->parts, sample.parts);
  ASSERT_EQ(decoded->parts[0].size(), 3u);
  long long sum = 0;
  for (const long long value : decoded->parts[0]) sum += value;
  EXPECT_EQ(sum, decoded->values[0]);

  // A truncated third part poisons the decode instead of silently
  // yielding a two-part frame.
  auto bytes = sample.encode();
  bytes.erase(bytes.end() - 5, bytes.end());
  Frame cut;
  cut.type = MsgType::kSample;
  cut.payload = std::move(bytes);
  EXPECT_FALSE(WireSample::decode(cut).has_value());
}

TEST(ServiceProto, SampleLargerThanItsInlineBuffersRoundTripsAndReusesThem) {
  // A decoded sample keeps a few slots and parts inside the object; a
  // larger one spills to the heap, round-trips byte-identically all the
  // same, and the next decode_into reuses the spilled blocks.
  constexpr std::size_t kSlots = 10;
  constexpr std::size_t kPartsPerSlot = 3;
  static_assert(kSlots > kSampleInlineSlots);
  static_assert(kSlots * kPartsPerSlot > kSampleInlineParts);
  const auto make = [&](long long base) {
    WireSample m;
    m.subscription_id = 4;
    m.tick = static_cast<std::uint64_t>(base);
    m.counters_ok = 1;
    m.seq = 9;
    for (std::size_t i = 0; i < kSlots; ++i) {
      m.values.push_back(base + static_cast<long long>(i));
      m.degraded.push_back(i % 3 == 0 ? 1 : 0);
      std::span<long long> parts = m.parts.add_slot(kPartsPerSlot);
      for (std::size_t p = 0; p < parts.size(); ++p) {
        parts[p] = base * 100 + static_cast<long long>(i * kPartsPerSlot + p);
      }
    }
    return m;
  };
  const WireSample first = make(1);
  const std::vector<std::uint8_t> first_bytes = first.encode();
  ASSERT_EQ(first_bytes.size(), 49u + 13u * kSlots + 8u * kSlots * kPartsPerSlot);

  WireSample out;
  ASSERT_TRUE(
      WireSample::decode_into(first_bytes.data(), first_bytes.size(), out).is_ok());
  EXPECT_EQ(out.encode(), first_bytes);
  EXPECT_EQ(out.values, first.values);
  EXPECT_EQ(out.degraded, first.degraded);
  EXPECT_EQ(out.parts, first.parts);
  ASSERT_EQ(out.parts.size(), kSlots);
  EXPECT_EQ(out.parts[kSlots - 1].size(), kPartsPerSlot);
  EXPECT_TRUE(out.values.spilled());
  EXPECT_TRUE(out.degraded.spilled());
  const auto* object = reinterpret_cast<const std::uint8_t*>(&out);
  const auto* parts_block =
      reinterpret_cast<const std::uint8_t*>(out.parts[0].data());
  EXPECT_TRUE(parts_block < object || parts_block >= object + sizeof(out))
      << "the part values spilled out of the object";

  const long long* values_block = out.values.data();
  const std::uint8_t* degraded_block = out.degraded.data();
  const long long* parts_values = out.parts[0].data();
  const WireSample second = make(2);
  const std::vector<std::uint8_t> second_bytes = second.encode();
  ASSERT_TRUE(
      WireSample::decode_into(second_bytes.data(), second_bytes.size(), out).is_ok());
  EXPECT_EQ(out.encode(), second_bytes);
  EXPECT_EQ(out.parts, second.parts);
  EXPECT_EQ(out.values.data(), values_block);
  EXPECT_EQ(out.degraded.data(), degraded_block);
  EXPECT_EQ(out.parts[0].data(), parts_values);

  // A plain sample into the same object: no part slots, blocks kept.
  WireSample plain;
  plain.values = {1, 2, 3};
  const std::vector<std::uint8_t> plain_bytes = plain.encode();
  ASSERT_TRUE(
      WireSample::decode_into(plain_bytes.data(), plain_bytes.size(), out).is_ok());
  EXPECT_TRUE(out.parts.empty());
  EXPECT_TRUE(out.degraded.empty());
  EXPECT_EQ(out.values.data(), values_block);
  EXPECT_EQ(out.encode(), plain_bytes);
}

/// Every field of `got` equals `want`'s, doubles compared by their bits.
void expect_same_sample(const WireSample& got, const WireSample& want) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(got.subscription_id, want.subscription_id);
  EXPECT_EQ(got.tick, want.tick);
  EXPECT_EQ(bits(got.t_seconds), bits(want.t_seconds));
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.counters_ok, want.counters_ok);
  EXPECT_EQ(bits(got.package_temp_c), bits(want.package_temp_c));
  EXPECT_EQ(bits(got.package_power_w), bits(want.package_power_w));
  EXPECT_EQ(got.parts, want.parts);
  EXPECT_EQ(got.seq, want.seq);
}

/// The shapes a decoder meets in turn: plain, qualified 2x2, spilled
/// (12 slots whose part counts run 0..5), a failed read, and plain
/// again straight after qualified.
std::vector<WireSample> sample_shapes() {
  WireSample plain;
  plain.subscription_id = 3;
  plain.tick = 40;
  plain.t_seconds = 0.04;
  plain.values = {1000, 2000};
  plain.degraded = {0, 1};
  plain.package_temp_c = std::nan("");
  plain.package_power_w = 12.5;
  plain.seq = 1;
  WireSample qualified;
  qualified.subscription_id = 4;
  qualified.tick = 41;
  qualified.t_seconds = 0.041;
  qualified.values = {300, 55};
  qualified.parts = {{180, 120}, {50, 5}};
  qualified.seq = 2;
  WireSample spilled;
  spilled.subscription_id = 5;
  spilled.tick = 42;
  spilled.seq = 3;
  for (std::size_t i = 0; i < 12; ++i) {
    spilled.values.push_back(static_cast<long long>(7 * i));
    spilled.degraded.push_back(i == 11 ? 1 : 0);
    std::span<long long> parts = spilled.parts.add_slot(i % 6);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      parts[p] = -static_cast<long long>(100 * i + p);
    }
  }
  WireSample failed;
  failed.subscription_id = 6;
  failed.tick = 43;
  failed.counters_ok = 0;
  failed.seq = 4;
  WireSample qualified_again = qualified;
  qualified_again.seq = 5;
  WireSample plain_after = plain;
  plain_after.degraded.clear();
  plain_after.seq = 6;
  return {plain, qualified, spilled, failed, qualified_again, plain_after};
}

TEST(ServiceProto, OneReusedSampleDecodesEveryShapeInTurn) {
  // One object decoded into again and again (the client's stash slot)
  // and a fresh one per frame both come out equal to what was sent and
  // re-encode to the same bytes: a reshape that kept a stale slot end,
  // or a read of an inline buffer past its size, shows here (and under
  // ASan+UBSan in the chaos shard).
  WireSample reused;
  for (const WireSample& want : sample_shapes()) {
    SCOPED_TRACE(testing::Message() << "seq " << want.seq);
    const std::vector<std::uint8_t> bytes = want.encode();
    ASSERT_TRUE(WireSample::decode_into(bytes.data(), bytes.size(), reused).is_ok());
    expect_same_sample(reused, want);
    EXPECT_EQ(reused.encode(), bytes);
    WireSample fresh;
    ASSERT_TRUE(WireSample::decode_into(bytes.data(), bytes.size(), fresh).is_ok());
    expect_same_sample(fresh, want);
    EXPECT_EQ(fresh.encode(), bytes);
    const auto decoded = WireSample::decode(Frame{MsgType::kSample, bytes});
    ASSERT_TRUE(decoded.has_value());
    expect_same_sample(*decoded, want);
  }
}

TEST(ServiceProto, SchemaCheckReadsOnlyTheWireBytes) {
  // The client checks a Sample against its subscription's schema on the
  // raw payload, before any decode. Every proper prefix of every shape
  // fails, each in a buffer of exactly its size (ASan catches a read
  // past it); the whole payload fits its own part counts and no count
  // one off. A failed read fits any schema.
  for (const WireSample& shape : sample_shapes()) {
    SCOPED_TRACE(testing::Message() << "seq " << shape.seq);
    const std::vector<std::uint8_t> bytes = shape.encode();
    std::vector<std::uint32_t> schema;
    for (std::size_t i = 0; i < shape.values.size(); ++i) {
      schema.push_back(shape.parts.empty()
                           ? 0u
                           : static_cast<std::uint32_t>(shape.parts[i].size()));
    }
    for (std::size_t size = 0; size < bytes.size(); ++size) {
      const std::vector<std::uint8_t> cut(bytes.data(), bytes.data() + size);
      EXPECT_FALSE(WireSample::fits_schema(cut.data(), cut.size(), schema)) << size;
    }
    EXPECT_TRUE(WireSample::fits_schema(bytes.data(), bytes.size(), schema));
    if (shape.counters_ok == 0) {
      const std::vector<std::uint32_t> any{2, 2};
      EXPECT_TRUE(WireSample::fits_schema(bytes.data(), bytes.size(), any));
      continue;
    }
    for (std::size_t i = 0; i < schema.size(); ++i) {
      for (const int off : {1, -1}) {
        if (schema[i] == 0 && off < 0) continue;
        std::vector<std::uint32_t> wrong = schema;
        wrong[i] += static_cast<std::uint32_t>(off);
        EXPECT_FALSE(WireSample::fits_schema(bytes.data(), bytes.size(), wrong));
      }
    }
    schema.push_back(0);
    EXPECT_FALSE(WireSample::fits_schema(bytes.data(), bytes.size(), schema));
  }
}

TEST(ServiceProto, SampleFrameSizeIsTheFixedWidthFormula) {
  // 49 fixed payload bytes, 13 per slot (value, degraded byte, part
  // count) and 8 per part, behind the 5-byte frame header — for a plain
  // sample, a qualified one, and a failed read with no slots.
  WireSample plain;
  plain.values = {1, 2, 3};
  plain.degraded = {0, 0, 1};
  WireSample qualified;
  qualified.values = {300, 55};
  qualified.degraded = {0, 0};
  qualified.parts = {{180, 90, 30}, {55}};
  WireSample failed;
  failed.counters_ok = 0;
  for (const auto& [sample, slots, parts] :
       {std::tuple{&plain, 3u, 0u}, std::tuple{&qualified, 2u, 4u},
        std::tuple{&failed, 0u, 0u}}) {
    std::vector<std::uint8_t> frame;
    sample->encode_frame_into(frame);
    EXPECT_EQ(frame.size(), 5u + 49u + 13u * slots + 8u * parts);
    EXPECT_EQ(frame, encode_frame(MsgType::kSample, sample->encode()));
    Frame decoded_frame{MsgType::kSample, sample->encode()};
    auto decoded = WireSample::decode(decoded_frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->values, sample->values);
    EXPECT_EQ(decoded->parts, sample->parts);
  }
}

TEST(ServiceProto, DecodeRejectsTrailingBytes) {
  Start msg;
  msg.session_id = 5;
  std::vector<std::uint8_t> payload = msg.encode();
  payload.push_back(0x77);  // one stray byte after a complete message
  Frame frame;
  frame.type = MsgType::kStart;
  frame.payload = payload;
  auto decoded = Start::decode(frame);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceProto, FrameReaderReassemblesSingleByteChunks) {
  Hello hello;
  hello.client_name = "chunked";
  const auto f1 = encode_frame(MsgType::kHello, hello.encode());
  const auto f2 = encode_frame(MsgType::kGetStats, GetStats{}.encode());
  std::vector<std::uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    for (;;) {
      auto frame = reader.next();
      if (!frame) {
        EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
        break;
      }
      frames.push_back(*std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kHello);
  EXPECT_EQ(frames[1].type, MsgType::kGetStats);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ServiceProto, FrameReaderPoisonsOnCorruptLengthPrefix) {
  FrameReader reader;
  // Length prefix of zero is impossible (the type byte is included).
  const std::uint8_t zero_len[4] = {0, 0, 0, 0};
  reader.feed(zero_len, sizeof(zero_len));
  auto frame = reader.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_FALSE(reader.next_view());

  FrameReader oversized;
  Writer w;
  w(kMaxFrameBytes + 1);
  oversized.feed(w.bytes());
  frame = oversized.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_TRUE(oversized.corrupt());
}

/// Lowercase hex of a byte string, for pinning exact frames.
std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// Frame `m` as `type`, compare the frame's bytes with `want_hex`, then
/// decode it back through a FrameReader and compare every field via
/// `tie` (a function from the message to a tuple of its fields).
template <typename M, typename Tie>
void expect_frame_bytes(MsgType type, const M& m, std::string_view want_hex,
                        Tie tie) {
  SCOPED_TRACE(std::string(to_string(type)));
  const std::vector<std::uint8_t> frame = encode_frame(type, m.encode());
  EXPECT_EQ(hex(frame), want_hex);
  FrameReader reader;
  reader.feed(frame);
  auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->type, type);
  auto decoded = M::decode(*got);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().message();
  EXPECT_TRUE(tie(*decoded) == tie(m));
}

TEST(ServiceProto, EveryMessageKeepsItsBytes) {
  // One fixed instance of every message, framed: the exact bytes are
  // the wire format, so a codec change that reorders, resizes or
  // re-prefixes any field fails here, not only in a round trip. Each
  // hex string is the length prefix and type byte, then one literal
  // per field.
  const auto none = [](const auto&) { return std::tuple<>(); };
  expect_frame_bytes(
      MsgType::kHello, Hello{6, "cli"},
      "0c000000" "01" "06000000" "03000000" "636c69",
      [](const Hello& m) { return std::tie(m.version, m.client_name); });
  expect_frame_bytes(
      MsgType::kHelloAck, HelloAck{6, 3, "hetpapid", 0x0102030405060708ull},
      "1d000000" "02" "06000000" "03000000"
      "08000000" "6865747061706964" "0807060504030201",
      [](const HelloAck& m) {
        return std::tie(m.version, m.client_id, m.server_name, m.epoch);
      });
  expect_frame_bytes(
      MsgType::kOpenSession, OpenSession{TargetKind::kCpu, -5},
      "0a000000" "03" "02" "fbffffffffffffff",
      [](const OpenSession& m) { return std::tie(m.target_kind, m.target); });
  expect_frame_bytes(
      MsgType::kOpenSessionAck, OpenSessionAck{9},
      "05000000" "04" "09000000",
      [](const OpenSessionAck& m) { return std::tie(m.session_id); });
  expect_frame_bytes(
      MsgType::kAddEvents, AddEvents{4, {"PAPI_TOT_INS", ""}},
      "1d000000" "05" "04000000"
      "02000000" "0c000000" "504150495f544f545f494e53" "00000000",
      [](const AddEvents& m) { return std::tie(m.session_id, m.events); });
  expect_frame_bytes(
      MsgType::kAddEventsAck, AddEventsAck{{"adl_glc::INST_RETIRED:ANY"}},
      "22000000" "06"
      "01000000" "19000000"
      "61646c5f676c633a3a494e53545f524554495245443a414e59",
      [](const AddEventsAck& m) { return std::tie(m.canonical_names); });
  expect_frame_bytes(
      MsgType::kStart, Start{2}, "05000000" "07" "02000000",
      [](const Start& m) { return std::tie(m.session_id); });
  expect_frame_bytes(
      MsgType::kRead, Read{3}, "05000000" "09" "03000000",
      [](const Read& m) { return std::tie(m.session_id); });
  expect_frame_bytes(
      MsgType::kReadReply, ReadReply{{-1, 42}, {0, 1}},
      "1b000000" "0a"
      "02000000" "ffffffffffffffff" "2a00000000000000"
      "02000000" "0001",
      [](const ReadReply& m) { return std::tie(m.values, m.degraded); });
  expect_frame_bytes(
      MsgType::kSubscribe, Subscribe{TargetKind::kThread, 17, {"X", "Y"}, 4, 1},
      "1d000000" "0b" "01" "1100000000000000"
      "02000000" "01000000" "58" "01000000" "59" "04000000" "01",
      [](const Subscribe& m) {
        return std::tie(m.target_kind, m.target, m.events, m.period_ticks,
                        m.qualified);
      });
  expect_frame_bytes(
      MsgType::kSubscribeAck, SubscribeAck{5, 2, {{"p[c]", "q"}, {}}},
      "22000000" "0c" "05000000" "02000000"
      "02000000" "02000000" "04000000" "705b635d" "01000000" "71"
      "00000000",
      [](const SubscribeAck& m) {
        return std::tie(m.subscription_id, m.shared_key_id, m.part_names);
      });
  expect_frame_bytes(
      MsgType::kUnsubscribe, Unsubscribe{5}, "05000000" "0d" "05000000",
      [](const Unsubscribe& m) { return std::tie(m.subscription_id); });
  expect_frame_bytes(MsgType::kGetStats, GetStats{}, "01000000" "10", none);
  expect_frame_bytes(
      MsgType::kStatsReply, StatsReply{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      "41000000" "11"
      "0100000000000000" "0200000000000000" "0300000000000000"
      "0400000000000000" "0500000000000000"
      "06000000" "07000000" "08000000" "09000000" "0a000000" "0b000000",
      [](const StatsReply& m) {
        return std::tie(m.ticks, m.backend_reads, m.samples_delivered,
                        m.frames_received, m.frames_sent, m.active_clients,
                        m.active_sessions, m.distinct_subscriptions,
                        m.total_subscribers, m.clients_dropped_slow,
                        m.clients_closed_idle);
      });
  expect_frame_bytes(MsgType::kClose, Close{}, "01000000" "12", none);
  expect_frame_bytes(MsgType::kCloseAck, CloseAck{}, "01000000" "13", none);
  expect_frame_bytes(
      MsgType::kError, WireError{-3, 9, "no"},
      "0c000000" "14" "fdffffff" "09" "02000000" "6e6f",
      [](const WireError& m) {
        return std::tie(m.code, m.in_reply_to, m.message);
      });
  expect_frame_bytes(
      MsgType::kGoodbye, Goodbye{"bye"}, "08000000" "15" "03000000" "627965",
      [](const Goodbye& m) { return std::tie(m.reason); });
  expect_frame_bytes(
      MsgType::kPing, Ping{0xfeedull}, "09000000" "19" "edfe000000000000",
      [](const Ping& m) { return std::tie(m.token); });
  expect_frame_bytes(
      MsgType::kPong, Pong{0xbeefull}, "09000000" "1a" "efbe000000000000",
      [](const Pong& m) { return std::tie(m.token); });

  const auto sample_fields = [](const WireSample& m) {
    return std::tie(m.subscription_id, m.tick, m.t_seconds, m.values,
                    m.degraded, m.counters_ok, m.package_temp_c,
                    m.package_power_w, m.parts, m.seq);
  };
  WireSample plain;
  plain.subscription_id = 7;
  plain.tick = 11;
  plain.t_seconds = 0.5;
  plain.values = {100, -2};
  plain.package_temp_c = 45.5;
  plain.package_power_w = 12.25;
  plain.seq = 3;
  expect_frame_bytes(
      MsgType::kSample, plain,
      "4c000000" "0f" "07000000" "0b00000000000000" "000000000000e03f"
      "02000000" "6400000000000000" "feffffffffffffff" "0000" "01"
      "0000000000c04640" "0000000000802840" "00000000" "00000000"
      "0300000000000000",
      sample_fields);
  WireSample qualified = plain;
  qualified.values = {100, 50};
  qualified.degraded = {0, 1};
  qualified.parts = {{60, 40}, {50}};
  qualified.seq = 4;
  expect_frame_bytes(
      MsgType::kSample, qualified,
      "64000000" "0f" "07000000" "0b00000000000000" "000000000000e03f"
      "02000000" "6400000000000000" "3200000000000000" "0001" "01"
      "0000000000c04640" "0000000000802840" "02000000" "01000000"
      "3c00000000000000" "2800000000000000" "3200000000000000"
      "0400000000000000",
      sample_fields);
}

// --- loopback daemon harness ----------------------------------------------

struct Harness {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> backend;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Daemon> daemon;
  /// Three measured workload threads (the component lock allows one
  /// running perf EventSet per thread, so distinct subscription specs
  /// need distinct targets). tid aliases tids[0].
  std::vector<Tid> tids;
  Tid tid{};
  /// Machine model the daemon serves; set before init() to exercise
  /// other core-type counts (e.g. the three-PMU hybrids).
  cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();

  Status init(DaemonConfig dconfig = {},
              LoopbackTransport::Config tconfig = {}) {
    kernel = std::make_unique<SimKernel>(machine);
    backend = std::make_unique<SimBackend>(kernel.get());
    transport = std::make_unique<LoopbackTransport>(tconfig);
    daemon = std::make_unique<Daemon>(kernel.get(), backend.get(),
                                      std::move(dconfig));
    PhaseSpec phase;
    for (int cpu = 0; cpu < 3; ++cpu) {
      tids.push_back(kernel->spawn(
          std::make_shared<FixedWorkProgram>(phase, 4'000'000'000ull),
          CpuSet::of({cpu})));
    }
    tid = tids[0];
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    return Status::ok();
  }

  Client connect(const std::string& name) {
    Client client(transport->connect());
    EXPECT_TRUE(client.hello(name).is_ok()) << name;
    return client;
  }

  /// Advance simulated time, then run one daemon sampling tick.
  void advance_and_tick(int ms = 10) {
    kernel->run_for(std::chrono::milliseconds(ms));
    daemon->tick();
  }
};

TEST(ServiceDaemon, HandshakeThenSessionLifecycle) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("lifecycle");

  auto session = client.open_session(TargetKind::kThread, h.tid);
  ASSERT_TRUE(session.has_value()) << session.status().message();
  auto ack = client.add_events(*session, {"papi_tot_ins", "PAPI_TOT_CYC"});
  ASSERT_TRUE(ack.has_value()) << ack.status().message();
  // The daemon canonicalizes spellings on the way in.
  ASSERT_EQ(ack->canonical_names.size(), 2u);
  EXPECT_EQ(ack->canonical_names[0], "PAPI_TOT_INS");
  EXPECT_EQ(ack->canonical_names[1], "PAPI_TOT_CYC");

  ASSERT_TRUE(client.start(*session).is_ok());
  h.kernel->run_for(std::chrono::milliseconds(50));
  auto reading = client.read(*session);
  ASSERT_TRUE(reading.has_value()) << reading.status().message();
  ASSERT_EQ(reading->values.size(), 2u);
  EXPECT_GT(reading->values[0], 0);
  EXPECT_GT(reading->values[1], 0);

  h.kernel->run_for(std::chrono::milliseconds(50));
  auto later = client.read(*session);
  ASSERT_TRUE(later.has_value());
  EXPECT_GT(later->values[0], reading->values[0]);

  EXPECT_TRUE(client.close().is_ok());
  h.daemon->poll();
  EXPECT_EQ(h.daemon->client_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);
}

TEST(ServiceDaemon, RequestBeforeHelloIsRefused) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  auto conn = h.transport->connect();
  GetStats msg;
  const auto frame = encode_frame(MsgType::kGetStats, msg.encode());
  ASSERT_TRUE(conn->send(frame.data(), frame.size()).has_value());
  h.daemon->poll();

  std::vector<std::uint8_t> bytes;
  (void)conn->receive(bytes);
  FrameReader reader;
  reader.feed(bytes);
  auto reply = reader.next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  auto err = WireError::decode(*reply);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->to_status().code(), StatusCode::kPermission);
  EXPECT_EQ(h.daemon->stats().protocol_errors, 1u);
}

TEST(ServiceDaemon, VersionMismatchIsRefused) {
  // One wire version: every earlier version (v1 to v5) and one from
  // the future each get a kNotSupported Error naming version 6, and the
  // daemon hangs up without serving the Subscribe sent right behind
  // the Hello.
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u, 999u}) {
    SCOPED_TRACE(testing::Message() << "v" << version);
    Harness h;
    ASSERT_TRUE(h.init().is_ok());
    auto conn = h.transport->connect();
    Hello hello;
    hello.version = version;
    hello.client_name = "mismatched";
    std::vector<std::uint8_t> frames =
        encode_frame(MsgType::kHello, hello.encode());
    Subscribe spec;
    spec.target_kind = TargetKind::kThread;
    spec.target = h.tid;
    spec.events = {"PAPI_TOT_INS"};
    const auto subscribe = encode_frame(MsgType::kSubscribe, spec.encode());
    frames.insert(frames.end(), subscribe.begin(), subscribe.end());
    ASSERT_TRUE(conn->send(frames.data(), frames.size()).has_value());
    h.daemon->poll();

    std::vector<std::uint8_t> bytes;
    (void)conn->receive(bytes);
    FrameReader reader;
    reader.feed(bytes);
    auto reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kError);
    auto err = WireError::decode(*reply);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->to_status().code(), StatusCode::kNotSupported);
    EXPECT_NE(err->message.find("version 6"), std::string::npos)
        << err->message;
    EXPECT_FALSE(reader.next().has_value()) << "nothing after the refusal";
    h.daemon->poll();
    EXPECT_EQ(h.daemon->client_count(), 0u);
    EXPECT_EQ(h.daemon->distinct_subscription_count(), 0u);
  }
}

TEST(ServiceDaemon, RetiredTypeNumbersAreRefusedAndTheConnectionServesOn) {
  // Types 22-24 are retired, never reused: after Hello, a frame of type
  // 22 gets a kNotSupported Error like any unknown type, and the same
  // connection still subscribes and streams.
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  auto conn = h.transport->connect();
  FrameReader reader;
  const auto send = [&](MsgType type,
                        const std::vector<std::uint8_t>& payload) {
    const auto frame = encode_frame(type, payload);
    EXPECT_TRUE(conn->send(frame.data(), frame.size()).has_value());
    h.daemon->poll();
  };
  const auto next = [&]() -> Expected<Frame> {
    std::vector<std::uint8_t> bytes;
    (void)conn->receive(bytes);
    reader.feed(bytes);
    return reader.next();
  };

  Hello hello;
  hello.client_name = "retired-types";
  send(MsgType::kHello, hello.encode());
  auto hello_ack = next();
  ASSERT_TRUE(hello_ack.has_value());
  ASSERT_EQ(hello_ack->type, MsgType::kHelloAck);
  const std::uint32_t errors_before = h.daemon->stats().protocol_errors;

  send(static_cast<MsgType>(22), {1, 2, 3, 4});
  auto refusal = next();
  ASSERT_TRUE(refusal.has_value());
  ASSERT_EQ(refusal->type, MsgType::kError);
  auto err = WireError::decode(*refusal);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->to_status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(err->in_reply_to, 22u);
  EXPECT_EQ(h.daemon->stats().protocol_errors, errors_before + 1);
  EXPECT_EQ(h.daemon->client_count(), 1u);

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  send(MsgType::kSubscribe, spec.encode());
  auto reply = next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kSubscribeAck);
  auto ack = SubscribeAck::decode(*reply);
  ASSERT_TRUE(ack.has_value());

  h.advance_and_tick();
  auto streamed = next();
  ASSERT_TRUE(streamed.has_value());
  ASSERT_EQ(streamed->type, MsgType::kSample);
  auto sample = WireSample::decode(*streamed);
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->subscription_id, ack->subscription_id);
  EXPECT_EQ(sample->seq, 1u);
  ASSERT_EQ(sample->values.size(), 1u);
  EXPECT_GT(sample->values[0], 0);
  EXPECT_EQ(h.daemon->stats().protocol_errors, errors_before + 1);
}

TEST(ServiceDaemon, UnknownEventFailsAtomicallyAndSessionSurvives) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("atomic");
  auto session = client.open_session(TargetKind::kThread, h.tid);
  ASSERT_TRUE(session.has_value());

  auto bad = client.add_events(*session,
                               {"PAPI_TOT_INS", "NOT_AN_EVENT_ANYWHERE"});
  ASSERT_FALSE(bad.has_value());
  // All-or-nothing: the good event was rolled back with the bad one.
  auto good = client.add_events(*session, {"PAPI_TOT_INS"});
  ASSERT_TRUE(good.has_value()) << good.status().message();
  ASSERT_TRUE(client.start(*session).is_ok());
  h.kernel->run_for(std::chrono::milliseconds(10));
  auto reading = client.read(*session);
  ASSERT_TRUE(reading.has_value());
  EXPECT_EQ(reading->values.size(), 1u);
  EXPECT_TRUE(client.close().is_ok());
}

TEST(ServiceDaemon, CorruptStreamDropsTheClient) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client ok_client = h.connect("survivor");
  auto conn = h.transport->connect();
  const std::uint8_t garbage[4] = {0, 0, 0, 0};  // impossible length prefix
  ASSERT_TRUE(conn->send(garbage, sizeof(garbage)).has_value());
  h.daemon->poll();
  EXPECT_EQ(h.daemon->client_count(), 1u);  // corrupt client reaped
  EXPECT_GE(h.daemon->stats().protocol_errors, 1u);
  // The healthy client is unaffected.
  auto stats = ok_client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->active_clients, 1u);
}

// --- coalescing ------------------------------------------------------------

TEST(ServiceCoalescing, SameSpecCoalescesAcrossSpellings) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Client c = h.connect("c");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  auto sub_a = a.subscribe(spec);
  ASSERT_TRUE(sub_a.has_value()) << sub_a.status().message();

  // Same spec, different case: must land on the same shared EventSet.
  Subscribe lower = spec;
  lower.events = {"papi_tot_ins", "papi_tot_cyc"};
  auto sub_b = b.subscribe(lower);
  ASSERT_TRUE(sub_b.has_value());
  EXPECT_EQ(sub_b->shared_key_id, sub_a->shared_key_id);
  EXPECT_NE(sub_b->subscription_id, sub_a->subscription_id);

  // Different event order = different value-slot order = distinct key
  // (on a different thread — see ConflictOnSameThread below for why).
  Subscribe reordered = spec;
  reordered.target = h.tids[1];
  reordered.events = {"PAPI_TOT_CYC", "PAPI_TOT_INS"};
  auto sub_c = c.subscribe(reordered);
  ASSERT_TRUE(sub_c.has_value()) << sub_c.status().message();
  EXPECT_NE(sub_c->shared_key_id, sub_a->shared_key_id);

  EXPECT_EQ(h.daemon->distinct_subscription_count(), 2u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 3u);
}

TEST(ServiceCoalescing, SameThreadConflictsCoalesceOnlyOnIdenticalSpecs) {
  // PAPI allows one running EventSet per component per thread — two
  // independent processes measuring the same thread is exactly what
  // raw PAPI cannot do. Through the daemon an *identical* spec joins
  // the existing shared set instead of conflicting; a *different* spec
  // on the same thread still surfaces the honest PAPI_ECNFLCT.
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(a.subscribe(spec).has_value());

  auto joined = b.subscribe(spec);  // identical spec: rides along
  ASSERT_TRUE(joined.has_value()) << joined.status().message();

  Subscribe different = spec;
  different.events = {"PAPI_TOT_CYC"};
  auto conflicted = b.subscribe(different);  // same thread, new set
  ASSERT_FALSE(conflicted.has_value());
  EXPECT_EQ(conflicted.status().code(), StatusCode::kConflict);
  // The failed subscribe leaked nothing daemon-side.
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 2u);
}

TEST(ServiceCoalescing, BackendReadsScaleWithDistinctSubscriptionsNotClients) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  std::vector<Client> riders;
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  constexpr std::size_t kRiders = 8;
  for (std::size_t i = 0; i < kRiders; ++i) {
    riders.push_back(h.connect("rider" + std::to_string(i)));
    auto sub = riders.back().subscribe(spec);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->shared_key_id, 1u);  // everyone coalesces onto key 1
  }
  Client loner = h.connect("loner");
  Subscribe other = spec;
  other.target = h.tids[1];
  other.events = {"PAPI_TOT_CYC"};
  ASSERT_TRUE(loner.subscribe(other).has_value());

  const std::uint64_t reads_before = h.daemon->stats().backend_reads;
  const std::uint64_t delivered_before = h.daemon->stats().samples_delivered;
  constexpr std::uint64_t kTicks = 5;
  for (std::uint64_t t = 0; t < kTicks; ++t) h.advance_and_tick();

  // THE coalescing invariant: 2 distinct subscriptions -> 2 reads/tick,
  // while 9 subscribers get 9 samples/tick.
  EXPECT_EQ(h.daemon->stats().backend_reads - reads_before, kTicks * 2);
  EXPECT_EQ(h.daemon->stats().samples_delivered - delivered_before,
            kTicks * (kRiders + 1));

  // Every rider saw every tick, with identical values per tick.
  std::vector<std::vector<WireSample>> streams;
  for (Client& rider : riders) streams.push_back(rider.take_samples());
  for (const auto& stream : streams) {
    ASSERT_EQ(stream.size(), kTicks);
    for (std::size_t i = 0; i < kTicks; ++i) {
      EXPECT_EQ(stream[i].values, streams[0][i].values);
      EXPECT_EQ(stream[i].tick, streams[0][i].tick);
    }
  }
}

TEST(ServiceCoalescing, LastUnsubscribeTearsDownTheSharedEventSet) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  auto sub_a = a.subscribe(spec);
  auto sub_b = b.subscribe(spec);
  ASSERT_TRUE(sub_a.has_value());
  ASSERT_TRUE(sub_b.has_value());
  ASSERT_EQ(h.daemon->distinct_subscription_count(), 1u);
  const std::size_t fds_shared = h.backend->open_fd_count();
  EXPECT_GT(fds_shared, 0u);

  ASSERT_TRUE(a.unsubscribe(sub_a->subscription_id).is_ok());
  // One rider remains: the shared set must survive.
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);
  EXPECT_EQ(h.backend->open_fd_count(), fds_shared);

  ASSERT_TRUE(b.unsubscribe(sub_b->subscription_id).is_ok());
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);

  // Re-subscribing builds a fresh shared set under a fresh key.
  auto again = a.subscribe(spec);
  ASSERT_TRUE(again.has_value());
  EXPECT_NE(again->shared_key_id, sub_a->shared_key_id);
}

TEST(ServiceCoalescing, PeriodAndQualifiedStreaming) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client slow = h.connect("slow");
  Client fine = h.connect("fine");

  Subscribe every2;
  every2.target_kind = TargetKind::kThread;
  every2.target = h.tid;
  every2.events = {"PAPI_TOT_INS"};
  every2.period_ticks = 2;
  ASSERT_TRUE(slow.subscribe(every2).has_value());

  Subscribe qualified = every2;
  qualified.target = h.tids[1];
  qualified.period_ticks = 1;
  qualified.qualified = 1;
  auto q = fine.subscribe(qualified);
  ASSERT_TRUE(q.has_value()) << q.status().message();
  ASSERT_EQ(q->part_names.size(), 1u);

  for (int t = 0; t < 6; ++t) h.advance_and_tick();

  const auto slow_samples = slow.take_samples();
  ASSERT_EQ(slow_samples.size(), 3u);  // ticks 2, 4, 6
  for (const WireSample& s : slow_samples) EXPECT_EQ(s.tick % 2, 0u);

  const auto fine_samples = fine.take_samples();
  ASSERT_EQ(fine_samples.size(), 6u);
  for (const WireSample& s : fine_samples) {
    ASSERT_EQ(s.values.size(), 1u);
    ASSERT_EQ(s.parts.size(), 1u);
    // Qualified: the per-PMU constituents sum to the derived total, and
    // the schema labels each with its core type (hybrid machine -> P
    // and E).
    ASSERT_EQ(s.parts[0].size(), q->part_names[0].size());
    long long sum = 0;
    for (const long long value : s.parts[0]) sum += value;
    EXPECT_EQ(sum, s.values[0]);
    EXPECT_GE(s.parts[0].size(), 2u);
  }
}

TEST(ServiceCoalescing, QualifiedStreamOnTriHybridCarriesThreeParts) {
  // End-to-end on the three-PMU hybrid: a qualified subscription's
  // samples must carry one labelled constituent per core PMU — P, E,
  // and LP-E — whose signed sum reproduces the derived total.
  Harness h;
  h.machine = cpumodel::meteor_lake_like();
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("tri");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  spec.period_ticks = 1;
  spec.qualified = 1;
  auto sub = client.subscribe(spec);
  ASSERT_TRUE(sub.has_value()) << sub.status().message();
  // The schema, sent once: three parts, each labelled with a distinct
  // core type.
  ASSERT_EQ(sub->part_names.size(), 1u);
  ASSERT_EQ(sub->part_names[0].size(), 3u)
      << "three core PMUs -> three qualified parts";
  std::set<std::string> labels;
  for (const std::string& label : sub->part_names[0]) {
    const auto open = label.find('[');
    ASSERT_NE(open, std::string::npos) << label;
    labels.insert(label.substr(open));
  }
  EXPECT_EQ(labels.size(), 3u) << "each part has a distinct core type";

  for (int t = 0; t < 4; ++t) h.advance_and_tick();

  const auto samples = client.take_samples();
  ASSERT_GE(samples.size(), 1u);
  for (const WireSample& s : samples) {
    ASSERT_EQ(s.parts.size(), 1u);
    ASSERT_EQ(s.parts[0].size(), 3u);
    long long sum = 0;
    for (const long long value : s.parts[0]) sum += value;
    EXPECT_EQ(sum, s.values[0]);
  }
}

TEST(ServiceCoalescing, CoalescedRidersShareOnePartNameSchema) {
  // The schema is computed once per shared subscription: coalesced
  // riders get identical part names, named native_name[core_type], and
  // a plain subscription gets one empty list per slot.
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe qualified;
  qualified.target_kind = TargetKind::kThread;
  qualified.target = h.tid;
  qualified.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  qualified.qualified = 1;
  auto ack_a = a.subscribe(qualified);
  auto ack_b = b.subscribe(qualified);
  ASSERT_TRUE(ack_a.has_value()) << ack_a.status().message();
  ASSERT_TRUE(ack_b.has_value()) << ack_b.status().message();
  EXPECT_EQ(ack_a->shared_key_id, ack_b->shared_key_id);
  EXPECT_EQ(ack_a->part_names, ack_b->part_names);
  ASSERT_EQ(ack_a->part_names.size(), 2u);
  const std::vector<std::string> ins_parts = {
      "adl_glc::INST_RETIRED:ANY[intel_core]",
      "adl_grt::INST_RETIRED:ANY[intel_atom]"};
  EXPECT_EQ(ack_a->part_names[0], ins_parts);

  Subscribe plain = qualified;
  plain.target = h.tids[1];
  plain.qualified = 0;
  auto ack_plain = a.subscribe(plain);
  ASSERT_TRUE(ack_plain.has_value()) << ack_plain.status().message();
  EXPECT_EQ(ack_plain->part_names,
            (std::vector<std::vector<std::string>>{{}, {}}));
}

TEST(ServiceClient, SamplesThatDoNotFitTheSchemaAreDropped) {
  // The client checks every Sample's wire bytes against its
  // SubscribeAck before decoding: the right slot count and part counts
  // pass, and so does a failed read (no slots). A subscription it does
  // not hold, a truncated payload, or a slot count or one slot's part
  // count off by one is dropped without taking a stash slot, so
  // take_samples() returns exactly the kept samples, in order. The
  // daemon side here is a hand-driven loopback endpoint.
  LoopbackTransport transport;
  Client client(transport.connect());
  auto server = transport.listener()->accept();
  ASSERT_TRUE(server.has_value());
  const auto send = [&](MsgType type,
                        const std::vector<std::uint8_t>& payload) {
    const auto frame = encode_frame(type, payload);
    ASSERT_TRUE((*server)->send(frame.data(), frame.size()).has_value());
  };
  send(MsgType::kHelloAck, HelloAck{}.encode());
  ASSERT_TRUE(client.hello("schema").is_ok());
  SubscribeAck ack;
  ack.subscription_id = 7;
  ack.part_names = {{"A[p]", "A[e]"}, {}};
  send(MsgType::kSubscribeAck, ack.encode());
  ASSERT_TRUE(client.subscribe(Subscribe{}).has_value());

  WireSample fits;
  fits.subscription_id = 7;
  fits.values = {10, 20};
  fits.parts = {{6, 4}, {}};
  WireSample unknown_sub = fits;
  unknown_sub.subscription_id = 8;
  WireSample wrong_slots = fits;
  wrong_slots.values = {10};
  wrong_slots.parts = {{6, 4}};
  WireSample failed_read;
  failed_read.subscription_id = 7;
  failed_read.counters_ok = 0;
  std::vector<std::vector<std::uint8_t>> bad = {unknown_sub.encode(),
                                                wrong_slots.encode()};
  for (const SampleParts& parts :
       {SampleParts{{10}, {}}, SampleParts{{6, 4, 1}, {}},
        SampleParts{{6, 4}, {1}}}) {
    WireSample wrong_parts = fits;
    wrong_parts.parts = parts;
    bad.push_back(wrong_parts.encode());
  }
  // Cut inside the id, the fixed fields, the part counts, the part
  // values and the trailing seq.
  const std::vector<std::uint8_t> whole = fits.encode();
  for (const std::size_t size : {2u, 30u, 62u, 75u, 90u}) {
    ASSERT_LT(size, whole.size());
    bad.emplace_back(whole.data(), whole.data() + size);
  }

  std::vector<std::vector<std::uint8_t>> kept;
  std::uint64_t seq = 0;
  for (const std::vector<std::uint8_t>& payload : bad) {
    WireSample good = ++seq % 3 == 0 ? failed_read : fits;
    good.seq = seq;
    kept.push_back(good.encode());
    send(MsgType::kSample, kept.back());
    send(MsgType::kSample, payload);
  }
  const auto samples = client.take_samples();
  ASSERT_EQ(samples.size(), kept.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].seq, i + 1);
    EXPECT_EQ(samples[i].encode(), kept[i]);
  }
}

TEST(ServiceClient, TakeSamplesIntoKeepsCapacityAcrossCalls) {
  // With a steady stream shape, a reused buffer stops allocating: after
  // the warm-up swaps, every call hands back storage that already has
  // room for the tick's samples and their per-slot vectors.
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("reuse");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  spec.qualified = 1;
  ASSERT_TRUE(client.subscribe(spec).has_value());
  spec.target = h.tids[1];
  spec.qualified = 0;
  ASSERT_TRUE(client.subscribe(spec).has_value());

  std::vector<WireSample> batch;
  std::set<const WireSample*> buffers;
  std::set<const long long*> part_buffers;
  for (int t = 0; t < 8; ++t) {
    h.advance_and_tick();
    client.take_samples_into(batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].values.size(), 2u);
    EXPECT_EQ(batch[0].parts.size(), 2u);
    EXPECT_TRUE(batch[1].parts.empty());
    if (t >= 2) {  // two buffers alternate between caller and stash
      buffers.insert(batch.data());
      part_buffers.insert(batch[0].parts[0].data());
    }
  }
  EXPECT_EQ(buffers.size(), 2u);
  EXPECT_EQ(part_buffers.size(), 2u);
}

TEST(ServiceProto, LiveSampleFramesAreFixedWidthAndCarryNoNames) {
  // End to end: every Sample frame a qualified rider receives is
  // exactly the fixed-width size, and the part names travel only in the
  // SubscribeAck.
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("bytes");
  client.set_capture_bytes(true);
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  spec.qualified = 1;
  auto ack = client.subscribe(spec);
  ASSERT_TRUE(ack.has_value());
  for (int t = 0; t < 3; ++t) h.advance_and_tick();
  ASSERT_EQ(client.take_samples().size(), 3u);

  const auto contains = [](const std::vector<std::uint8_t>& bytes,
                           const std::string& text) {
    return std::search(bytes.begin(), bytes.end(), text.begin(), text.end()) !=
           bytes.end();
  };
  FrameReader reader;
  reader.feed(client.captured_bytes());
  int samples = 0;
  for (auto frame = reader.next(); frame.has_value(); frame = reader.next()) {
    const std::vector<std::uint8_t> bytes =
        encode_frame(frame->type, frame->payload);
    for (const auto& slot : ack->part_names) {
      for (const std::string& name : slot) {
        EXPECT_EQ(contains(bytes, name), frame->type == MsgType::kSubscribeAck)
            << to_string(frame->type) << " / " << name;
      }
    }
    if (frame->type != MsgType::kSample) continue;
    ++samples;
    // Two slots of two parts each.
    EXPECT_EQ(bytes.size(), 5u + 49u + 13u * 2 + 8u * 4);
  }
  EXPECT_EQ(samples, 3);
}

// --- robustness ------------------------------------------------------------

TEST(ServiceRobustness, SlowClientIsDroppedOthersKeepStreaming) {
  Harness h;
  DaemonConfig config;
  config.max_client_queue_frames = 4;
  ASSERT_TRUE(h.init(config).is_ok());
  Client snappy = h.connect("snappy");  // connection index 0
  Client sluggish = h.connect("sluggish");  // connection index 1

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(snappy.subscribe(spec).has_value());
  ASSERT_TRUE(sluggish.subscribe(spec).has_value());
  ASSERT_EQ(h.daemon->client_count(), 2u);

  // Wedge the slow client: daemon writes toward it now report
  // would-block, so its queue grows by one frame per tick.
  h.transport->set_client_paused(1, true);
  for (int t = 0; t < 8; ++t) {
    h.advance_and_tick();
    (void)snappy.take_samples();  // the healthy client keeps draining
  }

  EXPECT_EQ(h.daemon->stats().clients_dropped_slow, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);  // snappy's
  EXPECT_EQ(h.daemon->total_subscriber_count(), 1u);

  // The dropped side observes a dead connection.
  h.transport->set_client_paused(1, false);
  EXPECT_FALSE(sluggish.pump_once());

  // And the healthy stream never stalled.
  h.advance_and_tick();
  EXPECT_FALSE(snappy.take_samples().empty());
}

TEST(ServiceRobustness, IdleClientsWithoutSubscriptionsTimeOut) {
  Harness h;
  DaemonConfig config;
  config.idle_timeout_ticks = 3;
  ASSERT_TRUE(h.init(config).is_ok());
  Client idle = h.connect("idle");
  Client busy = h.connect("busy");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(busy.subscribe(spec).has_value());

  for (int t = 0; t < 5; ++t) h.advance_and_tick();

  EXPECT_EQ(h.daemon->stats().clients_closed_idle, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  // The idle client got a Goodbye explaining the drop.
  (void)idle.pump_once();
  EXPECT_NE(idle.goodbye_reason().find("idle"), std::string::npos)
      << idle.goodbye_reason();
  // Subscribed clients are exempt however quiet their request side is.
  EXPECT_EQ(h.daemon->total_subscriber_count(), 1u);
}

TEST(ServiceRobustness, GracefulShutdownSaysGoodbyeAndLeaksNothing) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  ASSERT_TRUE(a.subscribe(spec).has_value());
  auto session = b.open_session(TargetKind::kThread, h.tids[1]);
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(b.add_events(*session, {"PAPI_BR_INS"}).has_value());
  ASSERT_TRUE(b.start(*session).is_ok());
  EXPECT_GT(h.backend->open_fd_count(), 0u);

  h.daemon->shutdown();

  (void)a.pump_once();
  (void)b.pump_once();
  EXPECT_EQ(a.goodbye_reason(), "daemon shutting down");
  EXPECT_EQ(b.goodbye_reason(), "daemon shutting down");
  EXPECT_EQ(h.daemon->client_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);  // the leak oracle
  // Idempotent.
  h.daemon->shutdown();
}

TEST(ServiceRobustness, ChunkedTransportDeliveryStillWorks) {
  // Force 3-byte delivery chunks: every frame crosses receive() calls,
  // exercising reassembly on both sides of the wire.
  Harness h;
  LoopbackTransport::Config tconfig;
  tconfig.max_chunk_bytes = 3;
  ASSERT_TRUE(h.init({}, tconfig).is_ok());
  Client client = h.connect("chunked");
  auto session = client.open_session(TargetKind::kThread, h.tid);
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(client.add_events(*session, {"PAPI_TOT_INS"}).has_value());
  ASSERT_TRUE(client.start(*session).is_ok());
  h.kernel->run_for(std::chrono::milliseconds(20));
  auto reading = client.read(*session);
  ASSERT_TRUE(reading.has_value());
  EXPECT_GT(reading->values[0], 0);
  EXPECT_TRUE(client.close().is_ok());
}

// --- session edges (PR 9: self-healing fabric) ------------------------------

TEST(ServiceRobustness, GoodbyeArrivingMidRpcFailsTheRpcCleanly) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("midrpc");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(client.subscribe(spec).has_value());

  // Arm the pump: the next time the client touches the transport, the
  // daemon shuts down instead of serving — the RPC's reply slot is
  // filled by a Goodbye.
  bool armed = true;
  h.transport->set_pump([&] {
    if (armed) {
      armed = false;
      h.daemon->shutdown();
      return;
    }
    h.daemon->poll();
  });
  auto st = client.stats();
  ASSERT_FALSE(st.has_value());
  EXPECT_EQ(st.status().code(), StatusCode::kNotRunning);
  EXPECT_NE(st.status().message().find("goodbye"), std::string::npos)
      << st.status().message();
  EXPECT_EQ(client.goodbye_reason(), "daemon shutting down");
  EXPECT_EQ(h.backend->open_fd_count(), 0u);
}

TEST(ServiceRobustness, SlowClientDropReleasesItsAggregateRider) {
  // The dropped client is the second rider of a shared qualified key
  // and the only rider of a direct one: the drop must free the key it
  // owns and leave the shared one to the survivor.
  Harness h;
  DaemonConfig config;
  config.max_client_queue_frames = 4;
  ASSERT_TRUE(h.init(config).is_ok());
  Client keeper = h.connect("keeper");  // connection index 0
  Client doomed = h.connect("doomed");  // connection index 1

  Subscribe shared;
  shared.target_kind = TargetKind::kThread;
  shared.target = h.tid;
  shared.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  shared.qualified = 1;
  auto keeper_sub = keeper.subscribe(shared);
  ASSERT_TRUE(keeper_sub.has_value()) << keeper_sub.status().message();
  auto doomed_sub = doomed.subscribe(shared);
  ASSERT_TRUE(doomed_sub.has_value());
  EXPECT_EQ(doomed_sub->shared_key_id, keeper_sub->shared_key_id);
  Subscribe direct;
  direct.target_kind = TargetKind::kThread;
  direct.target = h.tids[1];
  direct.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(doomed.subscribe(direct).has_value());
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 2u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 3u);

  h.transport->set_client_paused(1, true);
  for (int t = 0; t < 8; ++t) {
    h.advance_and_tick();
    (void)keeper.pump_once();
  }
  EXPECT_EQ(h.daemon->stats().clients_dropped_slow, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  // Everything the dropped client held is released: its direct
  // subscription's EventSet torn down, its shared ride detached — only
  // the keeper's rider remains on the coalesced key.
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 1u);

  // The surviving rider keeps streaming.
  (void)keeper.take_samples();
  h.advance_and_tick();
  (void)keeper.pump_once();
  const std::vector<WireSample> samples = keeper.take_samples();
  ASSERT_FALSE(samples.empty());
  for (const WireSample& sample : samples) {
    EXPECT_EQ(sample.subscription_id, keeper_sub->subscription_id);
    EXPECT_EQ(sample.parts.size(), shared.events.size());
  }
  EXPECT_TRUE(keeper.goodbye_reason().empty());
}

TEST(ServiceRobustness, LivenessPingsDropAHalfOpenClientButSpareTheResponsive) {
  Harness h;
  DaemonConfig config;
  config.ping_interval_ticks = 2;
  config.ping_max_missed = 2;
  ASSERT_TRUE(h.init(config).is_ok());
  Client responsive = h.connect("responsive");
  Client silent = h.connect("silent");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(responsive.subscribe(spec).has_value());
  // The half-open peer holds a subscription — liveness must drop it
  // anyway, or a dead connection pins an EventSet forever.
  ASSERT_TRUE(silent.subscribe(spec).has_value());

  for (int t = 0; t < 14; ++t) {
    h.advance_and_tick();
    // Explicit poll: the daemon must drain the Pong answers (the pump
    // hook only fires when the client's pipe is empty, and the sample
    // stream keeps it full).
    h.daemon->poll();
    // The responsive client pumps every tick, which also answers Pings.
    (void)responsive.pump_once();
  }
  EXPECT_EQ(h.daemon->stats().clients_dropped_liveness, 1u);
  EXPECT_GE(h.daemon->stats().pings_missed, 2u);
  EXPECT_EQ(h.daemon->client_count(), 1u);

  // The buffered Goodbye names the cause.
  while (silent.pump_once()) {
  }
  EXPECT_NE(silent.goodbye_reason().find("liveness"), std::string::npos)
      << silent.goodbye_reason();

  // The responsive client never got dropped and still streams.
  EXPECT_TRUE(responsive.goodbye_reason().empty());
  (void)responsive.take_samples();
  h.advance_and_tick();
  h.daemon->poll();
  (void)responsive.pump_once();
  EXPECT_FALSE(responsive.take_samples().empty());
}

TEST(ServiceRobustness, AdmissionRefusesClientsBeyondMaxClients) {
  Harness h;
  DaemonConfig config;
  config.max_clients = 1;
  ASSERT_TRUE(h.init(config).is_ok());
  Client first = h.connect("first");

  Client second(h.transport->connect());
  Status st = second.hello("second");
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_EQ(h.daemon->stats().overload_rejections, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  while (second.pump_once()) {
  }
  EXPECT_NE(second.goodbye_reason().find("overloaded"), std::string::npos)
      << second.goodbye_reason();

  // The admitted client is unaffected, and its departure frees the slot.
  ASSERT_TRUE(first.stats().has_value());
  EXPECT_TRUE(first.close().is_ok());
  h.daemon->poll();
  Client third = h.connect("third");
  EXPECT_TRUE(third.stats().has_value());
}

TEST(ServiceRobustness, AdmissionRefusesSubscriptionsBeyondMaxSubscriptions) {
  Harness h;
  DaemonConfig config;
  config.max_subscriptions = 1;
  ASSERT_TRUE(h.init(config).is_ok());
  Client client = h.connect("capped");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  auto first = client.subscribe(spec);
  ASSERT_TRUE(first.has_value()) << first.status().message();

  Subscribe over = spec;
  over.target = h.tids[1];
  auto refused = client.subscribe(over);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(h.daemon->stats().overload_rejections, 1u);

  // Unsubscribing frees capacity.
  ASSERT_TRUE(client.unsubscribe(first->subscription_id).is_ok());
  EXPECT_TRUE(client.subscribe(over).has_value());
}

TEST(ServiceRobustness, ShutdownFlushIsBoundedForAWedgedClient) {
  Harness h;
  DaemonConfig config;
  config.shutdown_max_flush_ops = 2;
  ASSERT_TRUE(h.init(config).is_ok());
  Client fine = h.connect("fine");      // connection index 0
  Client wedged = h.connect("wedged");  // connection index 1
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(wedged.subscribe(spec).has_value());

  // Let frames pile up behind a peer that stops accepting bytes.
  h.transport->set_client_paused(1, true);
  for (int t = 0; t < 4; ++t) h.advance_and_tick();

  // Bounded: shutdown() must return even though the wedged pipe will
  // never drain, and must still leak nothing.
  h.daemon->shutdown();
  EXPECT_EQ(h.daemon->client_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);

  // The healthy client still got its farewell.
  while (fine.pump_once()) {
  }
  EXPECT_EQ(fine.goodbye_reason(), "daemon shutting down");
}

// --- determinism -----------------------------------------------------------

/// Three clients over one plain and one qualified shared subscription
/// for five ticks; returns every client's captured byte stream.
std::vector<std::vector<std::uint8_t>> run_stream_scenario() {
  Harness h;
  EXPECT_TRUE(h.init().is_ok());

  std::vector<Client> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(h.connect("det" + std::to_string(i)));
    clients.back().set_capture_bytes(true);
  }
  Subscribe shared;
  shared.target_kind = TargetKind::kThread;
  shared.target = h.tid;
  shared.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  Subscribe qualified = shared;
  qualified.target = h.tids[1];
  qualified.qualified = 1;
  EXPECT_TRUE(clients[0].subscribe(shared).has_value());
  EXPECT_TRUE(clients[1].subscribe(shared).has_value());
  EXPECT_TRUE(clients[1].subscribe(qualified).has_value());
  EXPECT_TRUE(clients[2].subscribe(qualified).has_value());

  for (int t = 0; t < 5; ++t) {
    h.advance_and_tick();
    for (Client& c : clients) (void)c.pump_once();
  }
  std::vector<std::vector<std::uint8_t>> streams;
  for (Client& c : clients) streams.push_back(c.captured_bytes());
  return streams;
}

/// run_stream_scenario's streams as the daemon produced them when its
/// fan-out still ran on an encode pool across session shards: 1 or 4
/// encode threads, and 1, 4 or 16 shards, all gave these bytes. The
/// serial fan-out must reproduce them exactly.
constexpr testing_support::StreamDigest kRecordedStreams[] = {
    {425, 0x84967a1501a732c0ull},
    {1188, 0xba5e7e5c4230252aull},
    {763, 0xece9c55de686b5d7ull},
};

void expect_recorded_streams() {
  const auto streams = run_stream_scenario();
  ASSERT_EQ(streams.size(), std::size(kRecordedStreams));
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(testing_support::digest_of(streams[i]), kRecordedStreams[i])
        << "client " << i;
  }
}

TEST(ServiceDeterminism, ByteIdenticalStreamsAcrossEncodeThreadCounts) {
  // The bytes a 4-thread encode pool produced.
  expect_recorded_streams();
}

TEST(ServiceDeterminism, ByteIdenticalStreamsAcrossShardCounts) {
  // The bytes 4 shards, and 16 shards with 4 encode threads, produced.
  expect_recorded_streams();
}

// --- chaos -----------------------------------------------------------------

/// One seeded soak of the daemon behind the fault injector: randomized
/// client traffic under the "mixed" profile. Invariants: no crash, a
/// clean shutdown, zero leaked fds, and a bit-identical outcome trace
/// for identical seeds.
std::string run_chaos_soak(std::uint64_t seed) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend sim(&kernel);
  auto profile = FaultProfile::named("mixed");
  EXPECT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&sim, *profile, seed);
  PhaseSpec phase;
  std::vector<Tid> tids;
  for (int cpu = 0; cpu < 3; ++cpu) {
    tids.push_back(kernel.spawn(
        std::make_shared<FixedWorkProgram>(phase, 4'000'000'000ull),
        CpuSet::of({cpu})));
  }

  std::ostringstream trace;
  {
    LoopbackTransport transport;
    DaemonConfig config;
    config.max_client_queue_frames = 16;
    config.idle_timeout_ticks = 32;
    Daemon daemon(&kernel, &injector, config);
    const Status init = daemon.init();
    trace << "init=" << (init.is_ok() ? "ok" : to_string(init.code())) << ";";
    if (init.is_ok()) {
      daemon.add_listener(transport.listener());
      transport.set_pump([&daemon] { daemon.poll(); });

      std::mt19937_64 rng(seed * 77 + 1);
      std::vector<std::unique_ptr<Client>> clients;
      std::vector<std::vector<std::uint32_t>> subs;  // per client
      const char* events[] = {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"};
      const auto record = [&trace](std::string_view op, const Status& s) {
        trace << op << "=" << (s.is_ok() ? "ok" : to_string(s.code())) << ";";
      };
      for (int step = 0; step < 400; ++step) {
        const std::uint64_t dice = rng() % 100;
        if (clients.empty() || (dice < 10 && clients.size() < 12)) {
          auto c = std::make_unique<Client>(transport.connect());
          record("hello", c->hello("chaos" + std::to_string(step)));
          clients.push_back(std::move(c));
          subs.emplace_back();
        } else if (dice < 35) {
          const std::size_t i = rng() % clients.size();
          Subscribe spec;
          spec.target_kind = TargetKind::kThread;
          spec.target = tids[rng() % tids.size()];
          spec.events = {events[rng() % 3]};
          spec.period_ticks = 1 + static_cast<std::uint32_t>(rng() % 3);
          spec.qualified = rng() % 2 ? 1 : 0;
          if (auto sub = clients[i]->subscribe(spec)) {
            subs[i].push_back(sub->subscription_id);
            trace << "sub=ok/" << sub->shared_key_id << ";";
          } else {
            record("sub", sub.status());
          }
        } else if (dice < 45) {
          const std::size_t i = rng() % clients.size();
          if (!subs[i].empty()) {
            const std::size_t j = rng() % subs[i].size();
            record("unsub", clients[i]->unsubscribe(subs[i][j]));
            subs[i].erase(subs[i].begin() + static_cast<std::ptrdiff_t>(j));
          }
        } else if (dice < 60) {
          const std::size_t i = rng() % clients.size();
          auto session = clients[i]->open_session(
              TargetKind::kThread, tids[rng() % tids.size()]);
          if (session.has_value()) {
            auto added = clients[i]->add_events(*session, {events[rng() % 3]});
            record("add", added.status());
            if (added.has_value()) {
              record("start", clients[i]->start(*session));
              auto reading = clients[i]->read(*session);
              record("read", reading.status());
            }
          } else {
            record("open", session.status());
          }
        } else if (dice < 70) {
          const std::size_t i = rng() % clients.size();
          record("close", clients[i]->close());
          clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
          subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          kernel.run_for(std::chrono::milliseconds(1 + rng() % 5));
          daemon.tick();
        }
        // Clients the daemon dropped (goodbye or error teardown) are
        // retired from the roster.
        for (std::size_t i = clients.size(); i-- > 0;) {
          if (!clients[i]->connected() ||
              !clients[i]->goodbye_reason().empty()) {
            trace << "retire;";
            clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
            subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
      }
      trace << "ticks=" << daemon.stats().ticks
            << ";dropped=" << daemon.stats().clients_dropped_slow
            << ";idle=" << daemon.stats().clients_closed_idle
            << ";reads=" << daemon.stats().backend_reads << ";";
      daemon.shutdown();
    }
  }
  EXPECT_EQ(injector.open_fd_count(), 0u)
      << "seed " << seed
      << " leaked: " << testing::PrintToString(injector.leaked_fds());
  EXPECT_EQ(sim.open_fd_count(), 0u);
  trace << "faults=" << injector.stats().total_injected() << ";";
  return trace.str();
}

TEST(ServiceChaos, MixedFaultSoakLeaksNothingOnAnySeed) {
  for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string trace = run_chaos_soak(seed);
    EXPECT_FALSE(trace.empty());
  }
}

TEST(ServiceChaos, SameSeedSameSoakTrace) {
  EXPECT_EQ(run_chaos_soak(7), run_chaos_soak(7));
  EXPECT_EQ(run_chaos_soak(99), run_chaos_soak(99));
}

// --- unix-domain sockets (linux-host shard) --------------------------------

TEST(ServiceLinuxHost, UnixSocketSmoke) {
  const std::string path =
      "/tmp/hetpapid_test_" + std::to_string(::getpid()) + ".sock";
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  Daemon daemon(&kernel, &backend, DaemonConfig{});
  ASSERT_TRUE(daemon.init().is_ok());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 4'000'000'000ull),
      CpuSet::of({0}));
  auto listener = unix_listen(path);
  ASSERT_TRUE(listener.has_value()) << listener.status().message();
  daemon.add_listener(listener->get());

  // The daemon, the kernel and the workload all live on this service
  // thread; the test thread is a real external client on the socket.
  std::atomic<bool> stop{false};
  std::thread service([&] {
    while (!stop.load()) {
      daemon.poll();
      kernel.run_for(std::chrono::milliseconds(1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    daemon.shutdown();
  });

  {
    auto conn = unix_connect(path);
    ASSERT_TRUE(conn.has_value()) << conn.status().message();
    Client client(std::move(*conn));
    ASSERT_TRUE(client.hello("socket-smoke").is_ok());
    auto session = client.open_session(TargetKind::kThread, tid);
    ASSERT_TRUE(session.has_value()) << session.status().message();
    auto ack = client.add_events(*session, {"papi_tot_ins"});
    ASSERT_TRUE(ack.has_value()) << ack.status().message();
    EXPECT_EQ(ack->canonical_names,
              std::vector<std::string>{"PAPI_TOT_INS"});
    ASSERT_TRUE(client.start(*session).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto first = client.read(*session);
    ASSERT_TRUE(first.has_value()) << first.status().message();
    ASSERT_EQ(first->values.size(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto second = client.read(*session);
    ASSERT_TRUE(second.has_value());
    EXPECT_GT(second->values[0], first->values[0]);
    EXPECT_TRUE(client.close().is_ok());
  }

  stop.store(true);
  service.join();
  EXPECT_EQ(backend.open_fd_count(), 0u);
}

}  // namespace
}  // namespace hetpapi
