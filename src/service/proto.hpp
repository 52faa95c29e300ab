// hetpapid wire protocol: length-prefixed binary frames, one version.
//
// Every message on the wire is one frame:
//
//   u32 LE payload length  |  u8 message type  |  payload bytes
//
// The length covers the type byte plus the payload, so a reader can
// resynchronize on frame boundaries without understanding any message.
// Payload fields are fixed-width little-endian scalars and
// u32-count-prefixed strings and lists — no padding, no host-order
// leaks, so the same byte stream is valid across the loopback and
// unix-socket transports and across builds (the determinism tests
// compare raw bytes). There is exactly one protocol version: a Hello
// offering any other is refused with a kNotSupported Error and the
// connection closes.
//
// Every message but Sample names its type in `kType` and lists its
// fields once, in wire order, in `fields(a)`. Writer and Reader are the
// two archives that walk that list, one encoding and one decoding, so
// the directions cannot drift apart (field kinds at Writer).
//
// A subscription's shape is sent once: SubscribeAck carries the part
// names of every slot, and each streamed Sample is then fixed-width —
// values, degraded bytes, per-slot part counts and part values in
// schema order, with no strings (see WireSample for the byte layout).
// Sample keeps a hand-written codec because the daemon's fan-out
// patches its first and last field in place.
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
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Fixed-width little-endian stores and loads: plain copies on a
/// little-endian host, assembled byte by byte elsewhere.
template <std::integral T>
void store_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(
          static_cast<std::make_unsigned_t<T>>(v) >> (8 * i));
    }
  }
}

template <std::integral T>
T load_le(const std::uint8_t* p) {
  std::make_unsigned_t<T> v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::make_unsigned_t<T>>(p[i]) << (8 * i);
    }
  }
  return static_cast<T>(v);
}

/// The encoding archive: `w(field, ...)` appends each field by its
/// kind.
///
///   integer        its own width, little-endian (u8, u32, i32, u64, i64)
///   TargetKind     one byte
///   std::string    u32 byte count, then the bytes
///   std::vector<T> u32 element count, then each element by its kind
class Writer {
 public:
  /// Most payloads fit the first block: one allocation, not a doubling
  /// series.
  Writer() { bytes_.reserve(64); }

  template <typename... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <std::integral T>
  void put(T v) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    store_le(bytes_.data() + at, v);
  }
  void put(TargetKind kind) { put(static_cast<std::uint8_t>(kind)); }
  void put(std::string_view s) {
    put(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  template <typename T>
  void put(const std::vector<T>& list) {
    put(static_cast<std::uint32_t>(list.size()));
    for (const T& v : list) put(v);
  }

  std::vector<std::uint8_t> bytes_;
};

/// The decoding archive: `r(field, ...)` fills each field by its kind
/// (see Writer). A field that does not fit in what remains — or a
/// TargetKind out of range — poisons the reader: later fields read
/// nothing, and finish() reports the failure. A peer-supplied count
/// never sizes a buffer: a string's bytes must all be present before
/// they are copied, and a list reserves no more elements than the
/// remaining bytes could hold.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename... T>
  void operator()(T&... fields) {
    (get(fields), ...);
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// False once any read failed.
  bool ok() const { return error_ == nullptr; }
  /// OK when every field decoded and no byte is left over; otherwise
  /// kInvalidArgument naming `what` and the first failure.
  Status finish(std::string_view what) const;

 private:
  /// The next `n` bytes, consumed; null (and the reader poisoned) when
  /// fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (error_ != nullptr || remaining() < n) {
      fail("truncated");
      return nullptr;
    }
    pos_ += n;
    return bytes_.data() + pos_ - n;
  }
  void fail(const char* why) {
    if (error_ == nullptr) error_ = why;
  }

  template <std::integral T>
  void get(T& v) {
    if (const std::uint8_t* p = take(sizeof(T))) v = load_le<T>(p);
  }
  void get(TargetKind& kind);
  void get(std::string& s);
  template <typename T>
  void get(std::vector<T>& list) {
    std::uint32_t count = 0;
    get(count);
    // The least a T can take on the wire: its width, or a u32 count.
    constexpr std::size_t kMinBytes =
        std::is_integral_v<T> || std::is_enum_v<T> ? sizeof(T) : 4;
    list.clear();
    list.reserve(std::min<std::size_t>(count, remaining() / kMinBytes));
    for (std::uint32_t i = 0; i < count && ok(); ++i) get(list.emplace_back());
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  const char* error_ = nullptr;  // the first failure; null while ok
};

// --- framing ---------------------------------------------------------------

/// One decoded frame: the message type plus its raw payload.
struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;
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
  std::span<const std::uint8_t> bytes() const { return {payload, size}; }
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

/// Write a message's field list. fields() is one template for both
/// archives, so it is not const; the Writer only reads.
template <typename M>
void write_fields(Writer& w, const M& m) {
  const_cast<M&>(m).fields(w);
}

/// A message's payload: its field list, in order.
template <typename M>
std::vector<std::uint8_t> encode_payload(const M& m) {
  Writer w;
  write_fields(w, m);
  return w.take();
}

/// A message's complete frame, tagged with its kType, built in one
/// buffer.
template <typename M>
std::vector<std::uint8_t> encode_frame(const M& m) {
  Writer w;
  w(std::uint32_t{0}, static_cast<std::uint8_t>(M::kType));
  write_fields(w, m);
  std::vector<std::uint8_t> frame = w.take();
  store_le(frame.data(), static_cast<std::uint32_t>(frame.size() - 4));
  return frame;
}

/// Decode a message from its payload: every field of its list, and
/// nothing after the last.
template <typename M>
Expected<M> decode_payload(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  M m;
  m.fields(r);
  HETPAPI_RETURN_IF_ERROR(r.finish(to_string(M::kType)));
  return m;
}

// --- messages --------------------------------------------------------------

/// What every message but Sample declares beside its field list: its
/// type tag, and encode()/decode() over that list.
#define HETPAPI_WIRE_MESSAGE(M, type)                \
  static constexpr MsgType kType = type;             \
  std::vector<std::uint8_t> encode() const {         \
    return encode_payload(*this);                    \
  }                                                  \
  static Expected<M> decode(const Frame& frame) {    \
    return decode_payload<M>(frame.payload);         \
  }

/// A message with no fields.
template <MsgType T>
struct EmptyMessage {
  template <typename A>
  void fields(A&) {}
  HETPAPI_WIRE_MESSAGE(EmptyMessage, T)
};

using StartAck = EmptyMessage<MsgType::kStartAck>;
using UnsubscribeAck = EmptyMessage<MsgType::kUnsubscribeAck>;
using GetStats = EmptyMessage<MsgType::kGetStats>;
using Close = EmptyMessage<MsgType::kClose>;
using CloseAck = EmptyMessage<MsgType::kCloseAck>;

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string client_name;

  template <typename A>
  void fields(A& a) { a(version, client_name); }
  HETPAPI_WIRE_MESSAGE(Hello, MsgType::kHello)
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

  template <typename A>
  void fields(A& a) { a(version, client_id, server_name, epoch); }
  HETPAPI_WIRE_MESSAGE(HelloAck, MsgType::kHelloAck)
};

struct OpenSession {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;

  template <typename A>
  void fields(A& a) { a(target_kind, target); }
  HETPAPI_WIRE_MESSAGE(OpenSession, MsgType::kOpenSession)
};

struct OpenSessionAck {
  std::uint32_t session_id = 0;

  template <typename A>
  void fields(A& a) { a(session_id); }
  HETPAPI_WIRE_MESSAGE(OpenSessionAck, MsgType::kOpenSessionAck)
};

struct AddEvents {
  std::uint32_t session_id = 0;
  std::vector<std::string> events;

  template <typename A>
  void fields(A& a) { a(session_id, events); }
  HETPAPI_WIRE_MESSAGE(AddEvents, MsgType::kAddEvents)
};

struct AddEventsAck {
  /// Canonical (coalescing-key) names, one per added event.
  std::vector<std::string> canonical_names;

  template <typename A>
  void fields(A& a) { a(canonical_names); }
  HETPAPI_WIRE_MESSAGE(AddEventsAck, MsgType::kAddEventsAck)
};

struct Start {
  std::uint32_t session_id = 0;

  template <typename A>
  void fields(A& a) { a(session_id); }
  HETPAPI_WIRE_MESSAGE(Start, MsgType::kStart)
};

struct Read {
  std::uint32_t session_id = 0;

  template <typename A>
  void fields(A& a) { a(session_id); }
  HETPAPI_WIRE_MESSAGE(Read, MsgType::kRead)
};

struct ReadReply {
  std::vector<long long> values;          // one per added event
  std::vector<std::uint8_t> degraded;     // 1 = partial sum (see Reading)

  template <typename A>
  void fields(A& a) { a(values, degraded); }
  HETPAPI_WIRE_MESSAGE(ReadReply, MsgType::kReadReply)
};

struct Subscribe {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;
  std::vector<std::string> events;
  /// Deliver one Sample every this many daemon ticks (>= 1).
  std::uint32_t period_ticks = 1;
  /// Stream per-PMU constituent values alongside the totals.
  std::uint8_t qualified = 0;

  template <typename A>
  void fields(A& a) { a(target_kind, target, events, period_ticks, qualified); }
  HETPAPI_WIRE_MESSAGE(Subscribe, MsgType::kSubscribe)
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

  template <typename A>
  void fields(A& a) { a(subscription_id, shared_key_id, part_names); }
  HETPAPI_WIRE_MESSAGE(SubscribeAck, MsgType::kSubscribeAck)
};

struct Unsubscribe {
  std::uint32_t subscription_id = 0;

  template <typename A>
  void fields(A& a) { a(subscription_id); }
  HETPAPI_WIRE_MESSAGE(Unsubscribe, MsgType::kUnsubscribe)
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

  template <typename A>
  void fields(A& a) {
    a(ticks, backend_reads, samples_delivered, frames_received, frames_sent,
      active_clients, active_sessions, distinct_subscriptions,
      total_subscribers, clients_dropped_slow, clients_closed_idle);
  }
  HETPAPI_WIRE_MESSAGE(StatsReply, MsgType::kStatsReply)
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

  template <typename A>
  void fields(A& a) { a(code, in_reply_to, message); }
  HETPAPI_WIRE_MESSAGE(WireError, MsgType::kError)
};

/// Server-initiated farewell (drain, idle timeout, slow-client drop).
struct Goodbye {
  std::string reason;

  template <typename A>
  void fields(A& a) { a(reason); }
  HETPAPI_WIRE_MESSAGE(Goodbye, MsgType::kGoodbye)
};

/// Liveness probe. Either side may ping; the peer echoes the token
/// in a Pong. The daemon drops a client that leaves N pings unanswered
/// (the half-dead peer with live subscriptions the idle timeout never
/// catches).
struct Ping {
  std::uint64_t token = 0;

  template <typename A>
  void fields(A& a) { a(token); }
  HETPAPI_WIRE_MESSAGE(Ping, MsgType::kPing)
};

struct Pong {
  std::uint64_t token = 0;

  template <typename A>
  void fields(A& a) { a(token); }
  HETPAPI_WIRE_MESSAGE(Pong, MsgType::kPong)
};

#undef HETPAPI_WIRE_MESSAGE

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
  /// Replace the table with `slots` slots whose part counts are the
  /// little-endian u32s at `counts` (a Sample's wire run, summing to
  /// `total`) and return all `total` values, flat, for filling.
  std::span<long long> reshape(const std::uint8_t* counts, std::size_t slots,
                               std::size_t total) {
    ends_.resize_for_overwrite(slots);
    std::uint32_t end = 0;
    for (std::size_t i = 0; i < slots; ++i) {
      ends_[i] = end += load_le<std::uint32_t>(counts + 4 * i);
    }
    values_.resize_for_overwrite(total);
    return {values_.data(), total};
  }

  friend bool operator==(const SampleParts&, const SampleParts&) = default;

 private:
  SmallVector<long long, kSampleInlineParts> values_;
  SmallVector<std::uint32_t, kSampleInlineSlots> ends_;
};

/// The streamed measurement record — the wire rendition of a
/// telemetry::Sample restricted to what the daemon serves: counter
/// values, plus the qualified per-PMU breakdown on request.
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
  /// User-provided, so a value-initialized sample (the client stash's
  /// emplace_back()) is not zero-filled before its member initializers.
  WireSample() noexcept {}
  std::uint32_t subscription_id = 0;
  std::uint64_t tick = 0;
  double t_seconds = 0.0;
  SmallVector<long long, kSampleInlineSlots> values;
  /// One per value slot, 1 = partial sum; decode leaves it empty when
  /// no slot is degraded (a missing entry encodes as 0). Eight inline
  /// bytes cost no more room than two.
  SmallVector<std::uint8_t, 8> degraded;
  std::uint8_t counters_ok = 1;
  /// Package telemetry: room on the wire, always NaN from the daemon,
  /// which attaches none.
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
  /// True when `payload` is a whole Sample whose slots carry exactly
  /// `part_counts` parts (its subscription's schema) or a failed read
  /// (counters_ok = 0, no slots); reads no byte past `size`.
  static bool fits_schema(const std::uint8_t* payload, std::size_t size,
                          std::span<const std::uint32_t> part_counts);
};

}  // namespace hetpapi::service
