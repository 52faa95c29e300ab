// hetpapid wire protocol: length-prefixed binary frames, one version.
//
// Every message on the wire is one frame:
//
//   u32 LE payload length  |  u8 message type  |  payload bytes
//
// The length covers the type byte plus the payload, so a reader can
// resynchronize on frame boundaries without understanding any message.
// Payload fields are fixed-width little-endian scalars and
// u32-length-prefixed strings/arrays — no padding, no host-order leaks,
// so the same byte stream is valid across the loopback and unix-socket
// transports and across builds (the determinism tests compare raw
// bytes). There is exactly one protocol version: a Hello offering any
// other is refused with a kNotSupported Error and the connection
// closes.
//
// A subscription's shape is sent once: SubscribeAck carries the part
// names of every slot, and each streamed Sample is then fixed-width —
// values, degraded bytes, per-slot part counts and part values in
// schema order, with no strings (see WireSample for the byte layout).
//
// Message catalogue (see DESIGN.md §9 for the full table):
//   client -> daemon: Hello, OpenSession, AddEvents, Start, Read,
//                     Subscribe, Unsubscribe, GetStats, Close, Ping
//   daemon -> client: HelloAck, OpenSessionAck, AddEventsAck, StartAck,
//                     ReadReply, SubscribeAck, UnsubscribeAck, Sample
//                     (streamed), StatsReply, CloseAck, Error, Goodbye,
//                     Ping/Pong (liveness, either direction)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "base/small_vector.hpp"
#include "base/status.hpp"

namespace hetpapi::service {

/// The one protocol version the daemon speaks. Bumped on any wire
/// change; there is no negotiation and no down-level shape.
inline constexpr std::uint32_t kProtocolVersion = 6;

/// Upper bound on one frame's payload (type byte included); a length
/// prefix beyond this is a protocol error, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kOpenSessionAck = 4,
  kAddEvents = 5,
  kAddEventsAck = 6,
  kStart = 7,
  kStartAck = 8,
  kRead = 9,
  kReadReply = 10,
  kSubscribe = 11,
  kSubscribeAck = 12,
  kUnsubscribe = 13,
  kUnsubscribeAck = 14,
  kSample = 15,
  kGetStats = 16,
  kStatsReply = 17,
  kClose = 18,
  kCloseAck = 19,
  kError = 20,
  kGoodbye = 21,
  // 22-24 are retired (the verbs of a removed daemon-tree mode) and stay
  // unused, so a daemon answers them as unknown types.
  // Liveness (either direction; the peer echoes the token).
  kPing = 25,
  kPong = 26,
};

/// Stable, test-visible name for a message type ("?" when unknown).
std::string_view to_string(MsgType type) noexcept;

/// What an EventSet binds to, on the wire.
enum class TargetKind : std::uint8_t {
  kDefault = 0,  // the backend's default target
  kThread = 1,   // target = tid
  kCpu = 2,      // target = logical cpu
};

// --- payload serialization ------------------------------------------------

/// Appends fixed-width LE scalars and length-prefixed strings to a byte
/// buffer. All encode() functions below are built from this.
class Writer {
 public:
  /// Most payloads fit the first block: one allocation, not a doubling
  /// series.
  Writer() { bytes_.reserve(64); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    // Reserve before the length prefix: GCC 12's -Wstringop-overflow
    // misfires on the insert when the push_backs above get inlined and
    // the analyzer loses track of the grown capacity.
    bytes_.reserve(bytes_.size() + 4 + s.size());
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void str_list(const std::vector<std::string>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const std::string& s : list) str(s);
  }
  void i64_list(const std::vector<long long>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const long long v : list) i64(v);
  }
  void u8_list(const std::vector<std::uint8_t>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const std::uint8_t v : list) u8(v);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// The mirror of Writer: consumes a payload, turning truncation or
/// over-long lengths into kInvalidArgument instead of UB. After a
/// failed read the reader is poisoned — further reads keep failing.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  Expected<std::uint8_t> u8();
  Expected<std::uint32_t> u32();
  Expected<std::uint64_t> u64();
  Expected<std::int64_t> i64();
  Expected<std::string> str();
  Expected<std::vector<std::string>> str_list();
  Expected<std::vector<long long>> i64_list();
  Expected<std::vector<std::uint8_t>> u8_list();

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_ && !failed_; }
  /// False once any read failed.
  bool ok() const { return !failed_; }

 private:
  bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- framing ---------------------------------------------------------------

/// One decoded frame: the message type plus its raw payload.
struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;

  Reader reader() const { return Reader(payload); }
};

/// Serialize a frame: length prefix + type byte + payload.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);

/// Stamp one rider's copy of a streamed Sample template frame (`size`
/// bytes, header included): the subscription id is first in the
/// payload and the sequence number last.
void stamp_stream_frame(std::uint8_t* frame, std::size_t size,
                        std::uint32_t subscription_id, std::uint64_t seq);

/// A frame inside FrameReader's buffer, valid until the reader's next
/// input(), feed() or next*() call; empty (false) when there is none.
/// Sixteen bytes, so it is returned in registers.
struct FrameView {
  const std::uint8_t* payload = nullptr;
  std::uint32_t size = 0;
  MsgType type{};

  explicit operator bool() const { return payload != nullptr; }
  Frame frame() const { return {type, {payload, payload + size}}; }
};

/// Incremental frame reassembly over an arbitrary byte stream: receive
/// or feed() whatever the transport delivered (any chunking, including
/// mid-prefix splits), pop complete frames with next_view() or next().
/// A malformed length prefix poisons the stream permanently — the
/// connection must be dropped.
class FrameReader {
 public:
  /// The buffer for a transport to receive onto, after dropping the
  /// bytes already handed out (lazily: all of them, or past 4 KiB).
  std::vector<std::uint8_t>& input();
  void feed(const std::uint8_t* data, std::size_t size) {
    std::vector<std::uint8_t>& in = input();
    in.insert(in.end(), data, data + size);
  }
  void feed(const std::vector<std::uint8_t>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// The next complete frame, or an empty view when none is buffered
  /// or the stream is corrupt (oversized or empty length prefix).
  FrameView next_view();
  /// next_view() copied out: kNotFound when no complete frame is
  /// buffered, kInvalidArgument when the stream is corrupt.
  Expected<Frame> next();

  bool corrupt() const { return corrupt_; }
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already handed out
  bool corrupt_ = false;
};

// --- messages --------------------------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string client_name;

  std::vector<std::uint8_t> encode() const;
  static Expected<Hello> decode(const Frame& frame);
};

struct HelloAck {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t client_id = 0;
  std::string server_name;
  /// The daemon's session epoch. A reconnecting client compares
  /// epochs — same epoch means the same daemon process, so tick-based
  /// gap accounting across the reconnect is exact; a changed epoch
  /// means the daemon restarted and the gap is unknowable.
  std::uint64_t epoch = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<HelloAck> decode(const Frame& frame);
};

struct OpenSession {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<OpenSession> decode(const Frame& frame);
};

struct OpenSessionAck {
  std::uint32_t session_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<OpenSessionAck> decode(const Frame& frame);
};

struct AddEvents {
  std::uint32_t session_id = 0;
  std::vector<std::string> events;

  std::vector<std::uint8_t> encode() const;
  static Expected<AddEvents> decode(const Frame& frame);
};

struct AddEventsAck {
  /// Canonical (coalescing-key) names, one per added event.
  std::vector<std::string> canonical_names;

  std::vector<std::uint8_t> encode() const;
  static Expected<AddEventsAck> decode(const Frame& frame);
};

struct Start {
  std::uint32_t session_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Start> decode(const Frame& frame);
};

struct Read {
  std::uint32_t session_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Read> decode(const Frame& frame);
};

struct ReadReply {
  std::vector<long long> values;          // one per added event
  std::vector<std::uint8_t> degraded;     // 1 = partial sum (see Reading)

  std::vector<std::uint8_t> encode() const;
  static Expected<ReadReply> decode(const Frame& frame);
};

struct Subscribe {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;
  std::vector<std::string> events;
  /// Deliver one Sample every this many daemon ticks (>= 1).
  std::uint32_t period_ticks = 1;
  /// Stream per-PMU constituent values alongside the totals.
  std::uint8_t qualified = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Subscribe> decode(const Frame& frame);
};

struct SubscribeAck {
  std::uint32_t subscription_id = 0;
  /// Identity of the server-side shared subscription this rider joined;
  /// equal ids == one coalesced EventSet (the coalescing oracle).
  std::uint32_t shared_key_id = 0;
  /// The stream's schema, sent once: one list per slot naming its
  /// per-PMU parts ("native_name[core_type]", or the bare native name
  /// for a PMU with no core type), empty for plain slots. Every Sample
  /// of the subscription carries exactly these part counts, values in
  /// this order.
  std::vector<std::vector<std::string>> part_names;

  std::vector<std::uint8_t> encode() const;
  static Expected<SubscribeAck> decode(const Frame& frame);
};

struct Unsubscribe {
  std::uint32_t subscription_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Unsubscribe> decode(const Frame& frame);
};

/// Value slots and per-slot parts a decoded Sample keeps inside the
/// object: this workload's shape (two events, two core types).
inline constexpr std::size_t kSampleInlineSlots = 2;
inline constexpr std::size_t kSampleInlineParts = 4;

/// A Sample's per-slot part values as one flat table: every slot's
/// parts back to back in one buffer, plus where each slot ends.
/// `parts[i]` is slot i's values in schema order. Holds
/// kSampleInlineSlots slots of kSampleInlineParts parts in all without
/// touching the heap; a larger table spills and keeps its blocks
/// across clear().
class SampleParts {
 public:
  SampleParts() = default;
  /// A literal table, e.g. {{60, 40}, {}}.
  SampleParts(std::initializer_list<std::initializer_list<long long>> slots) {
    for (const auto& slot : slots) {
      std::copy(slot.begin(), slot.end(), add_slot(slot.size()).begin());
    }
  }

  /// Slots in the table: 0 for a plain stream, one per value slot for
  /// a qualified one.
  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  std::span<const long long> operator[](std::size_t slot) const {
    const std::uint32_t begin = slot == 0 ? 0 : ends_[slot - 1];
    return {values_.data() + begin, ends_[slot] - begin};
  }

  void clear() {
    values_.clear();
    ends_.clear();
  }
  /// Append a slot of `count` zeroed parts and return them for filling.
  /// The span is valid until the next add_slot.
  std::span<long long> add_slot(std::size_t count) {
    const std::size_t begin = values_.size();
    values_.resize(begin + count);
    ends_.push_back(static_cast<std::uint32_t>(values_.size()));
    return {values_.data() + begin, count};
  }

  friend bool operator==(const SampleParts&, const SampleParts&) = default;

 private:
  SmallVector<long long, kSampleInlineParts> values_;
  SmallVector<std::uint32_t, kSampleInlineSlots> ends_;
};

/// The streamed measurement record — the wire rendition of a
/// telemetry::Sample restricted to what the daemon serves: counter
/// values (plus the qualified per-PMU breakdown on request) and the
/// package telemetry the daemon's sampler attaches when enabled.
///
/// Fixed-width on the wire, with N = values.size() slots and P parts
/// in total (49 + 13N + 8P payload bytes, no strings):
///
///   u32 subscription_id | u64 tick | f64 t_seconds | u32 N |
///   N x i64 values | N x u8 degraded | u8 counters_ok |
///   f64 package_temp_c | f64 package_power_w |
///   N x u32 part count | P x i64 part values (schema order) | u64 seq
///
/// subscription_id leads and seq trails so the daemon's fan-out can
/// patch both in place in one template frame per read.
///
/// In memory a sample of up to kSampleInlineSlots slots and
/// kSampleInlineParts parts owns no heap block, so decoding one, or
/// moving one out of the client's stash, allocates nothing.
struct WireSample {
  std::uint32_t subscription_id = 0;
  std::uint64_t tick = 0;
  double t_seconds = 0.0;
  SmallVector<long long, kSampleInlineSlots> values;
  /// One per value slot, 1 = partial sum; decode leaves it empty when
  /// no slot is degraded (a missing entry encodes as 0). Eight inline
  /// bytes cost no more room than two.
  SmallVector<std::uint8_t, 8> degraded;
  std::uint8_t counters_ok = 1;
  /// NaN when the daemon does not attach telemetry.
  double package_temp_c = 0.0;
  double package_power_w = 0.0;
  /// Per-slot constituent values in the order of the subscription's
  /// SubscribeAck::part_names; empty unless the subscription asked for
  /// qualified reads.
  SampleParts parts;
  /// Per-subscription delivery sequence number, starting at 1 and
  /// incremented per delivered sample.
  std::uint64_t seq = 0;

  std::vector<std::uint8_t> encode() const;
  /// Replace `frame` with the complete frame (header included), reusing
  /// its capacity.
  void encode_frame_into(std::vector<std::uint8_t>& frame) const;
  static Expected<WireSample> decode(const Frame& frame);
  /// decode() into `out` in one pass, reusing whatever heap blocks its
  /// buffers have spilled to. One length check covers the whole
  /// payload; `out` is unspecified on failure.
  static Status decode_into(const std::uint8_t* payload, std::size_t size,
                            WireSample& out);
};

struct GetStats {
  std::vector<std::uint8_t> encode() const;
  static Expected<GetStats> decode(const Frame& frame);
};

/// Daemon-side accounting, queryable over the wire so load generators
/// can compute the coalescing ratio without a side channel.
struct StatsReply {
  std::uint64_t ticks = 0;
  std::uint64_t backend_reads = 0;       // one per shared subscription per due tick
  std::uint64_t samples_delivered = 0;   // one per subscriber per due tick
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint32_t active_clients = 0;
  std::uint32_t active_sessions = 0;
  std::uint32_t distinct_subscriptions = 0;
  std::uint32_t total_subscribers = 0;
  std::uint32_t clients_dropped_slow = 0;
  std::uint32_t clients_closed_idle = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<StatsReply> decode(const Frame& frame);
};

struct Close {
  std::vector<std::uint8_t> encode() const;
  static Expected<Close> decode(const Frame& frame);
};

struct CloseAck {
  std::vector<std::uint8_t> encode() const;
  static Expected<CloseAck> decode(const Frame& frame);
};

/// RPC failure: the StatusCode (numeric, stable) plus the daemon's
/// message and which request type it answers.
struct WireError {
  std::int32_t code = 0;
  std::uint8_t in_reply_to = 0;  // MsgType of the failed request
  std::string message;

  Status to_status() const {
    return Status(static_cast<StatusCode>(code), message);
  }

  std::vector<std::uint8_t> encode() const;
  static Expected<WireError> decode(const Frame& frame);
};

/// Server-initiated farewell (drain, idle timeout, slow-client drop).
struct Goodbye {
  std::string reason;

  std::vector<std::uint8_t> encode() const;
  static Expected<Goodbye> decode(const Frame& frame);
};

/// Liveness probe. Either side may ping; the peer echoes the token
/// in a Pong. The daemon drops a client that leaves N pings unanswered
/// (the half-dead peer with live subscriptions the idle timeout never
/// catches).
struct Ping {
  std::uint64_t token = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Ping> decode(const Frame& frame);
};

struct Pong {
  std::uint64_t token = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Pong> decode(const Frame& frame);
};

}  // namespace hetpapi::service
