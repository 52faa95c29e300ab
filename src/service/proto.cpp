#include "service/proto.hpp"

#include <algorithm>
#include <bit>

namespace hetpapi::service {

namespace {

// Fixed-width little-endian stores and loads: plain copies on a
// little-endian host, assembled byte by byte elsewhere.
template <typename T>
void store_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
  }
  return v;
}

/// Bytes of the length prefix plus the type byte ahead of every payload.
constexpr std::size_t kFrameHeaderBytes = 5;

void write_frame_header(std::uint8_t* out, MsgType type,
                        std::size_t payload_size) {
  store_le(out, static_cast<std::uint32_t>(payload_size + 1));
  out[4] = static_cast<std::uint8_t>(type);
}

Status truncated() {
  return make_error(StatusCode::kInvalidArgument, "truncated payload");
}

}  // namespace

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kOpenSession: return "OpenSession";
    case MsgType::kOpenSessionAck: return "OpenSessionAck";
    case MsgType::kAddEvents: return "AddEvents";
    case MsgType::kAddEventsAck: return "AddEventsAck";
    case MsgType::kStart: return "Start";
    case MsgType::kStartAck: return "StartAck";
    case MsgType::kRead: return "Read";
    case MsgType::kReadReply: return "ReadReply";
    case MsgType::kSubscribe: return "Subscribe";
    case MsgType::kSubscribeAck: return "SubscribeAck";
    case MsgType::kUnsubscribe: return "Unsubscribe";
    case MsgType::kUnsubscribeAck: return "UnsubscribeAck";
    case MsgType::kSample: return "Sample";
    case MsgType::kGetStats: return "GetStats";
    case MsgType::kStatsReply: return "StatsReply";
    case MsgType::kClose: return "Close";
    case MsgType::kCloseAck: return "CloseAck";
    case MsgType::kError: return "Error";
    case MsgType::kGoodbye: return "Goodbye";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
  }
  return "?";
}

// --- Reader ----------------------------------------------------------------

bool Reader::take(std::size_t n) {
  if (failed_ || size_ - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

Expected<std::uint8_t> Reader::u8() {
  if (!take(1)) return truncated();
  return data_[pos_++];
}

Expected<std::uint32_t> Reader::u32() {
  if (!take(4)) return truncated();
  pos_ += 4;
  return load_le<std::uint32_t>(data_ + pos_ - 4);
}

Expected<std::uint64_t> Reader::u64() {
  if (!take(8)) return truncated();
  pos_ += 8;
  return load_le<std::uint64_t>(data_ + pos_ - 8);
}

Expected<std::int64_t> Reader::i64() {
  if (!take(8)) return truncated();
  pos_ += 8;
  return static_cast<std::int64_t>(load_le<std::uint64_t>(data_ + pos_ - 8));
}

// Length-prefixed fields check the whole length against what remains
// before allocating: a corrupt count fails, it never sizes a buffer.
Expected<std::string> Reader::str() {
  const std::uint32_t len = u32().value_or(0);
  if (!take(len)) return truncated();
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

Expected<std::vector<std::string>> Reader::str_list() {
  const std::uint32_t count = u32().value_or(0);
  std::vector<std::string> out;
  out.reserve(std::min<std::size_t>(count, remaining() / 4));  // >= 4 each
  for (std::uint32_t i = 0; i < count && ok(); ++i) {
    out.push_back(str().value_or(""));
  }
  if (!ok()) return truncated();
  return out;
}

Expected<std::vector<long long>> Reader::i64_list() {
  const std::uint32_t count = u32().value_or(0);
  if (!take(8 * static_cast<std::size_t>(count))) return truncated();
  std::vector<long long> out(count);
  for (long long& v : out) {
    v = static_cast<long long>(load_le<std::uint64_t>(data_ + pos_));
    pos_ += 8;
  }
  return out;
}

Expected<std::vector<std::uint8_t>> Reader::u8_list() {
  const std::uint32_t count = u32().value_or(0);
  if (!take(count)) return truncated();
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + count);
  pos_ += count;
  return out;
}

// --- framing ---------------------------------------------------------------

void stamp_stream_frame(std::uint8_t* frame, std::size_t size,
                        std::uint32_t subscription_id, std::uint64_t seq) {
  store_le<std::uint32_t>(frame + kFrameHeaderBytes, subscription_id);
  store_le<std::uint64_t>(frame + size - 8, seq);
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  write_frame_header(out.data(), type, payload.size());
  std::copy(payload.begin(), payload.end(), out.begin() + kFrameHeaderBytes);
  return out;
}

std::vector<std::uint8_t>& FrameReader::input() {
  // Compact lazily so a long-lived connection doesn't grow forever.
  if (consumed_ > 0 && (consumed_ >= buffer_.size() || consumed_ > 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return buffer_;
}

FrameView FrameReader::next_view() {
  const std::size_t available = buffer_.size() - consumed_;
  if (corrupt_ || available < 4) return {};
  const std::uint8_t* at = buffer_.data() + consumed_;
  const std::uint32_t length = load_le<std::uint32_t>(at);
  if (length == 0 || length > kMaxFrameBytes) {
    corrupt_ = true;
    return {};
  }
  if (available < 4 + static_cast<std::size_t>(length)) return {};
  consumed_ += 4 + length;
  return {at + 5, length - 1u, static_cast<MsgType>(at[4])};
}

Expected<Frame> FrameReader::next() {
  if (const FrameView view = next_view()) return view.frame();
  // "No complete frame yet" ends every drain, so it carries no message
  // to allocate.
  if (!corrupt_) return Status(StatusCode::kNotFound);
  return make_error(StatusCode::kInvalidArgument, "corrupt frame stream");
}

// --- messages --------------------------------------------------------------
//
// Decoders read every field unchecked: a failed read poisons the Reader
// (later reads fail too and yield zeros), so one check at the end —
// finish() — covers truncation and trailing bytes alike. Loops over a
// peer-supplied count stop as soon as the reader is poisoned.

namespace {

Status finish(const Reader& reader, std::string_view what) {
  if (!reader.ok()) {
    return make_error(StatusCode::kInvalidArgument,
                      std::string(what) + ": truncated");
  }
  // Trailing bytes after the last field mean a framing bug or an
  // incompatible sender.
  if (reader.remaining() != 0) {
    return make_error(StatusCode::kInvalidArgument,
                      std::string(what) + ": trailing bytes");
  }
  return Status::ok();
}

Status read_target(Reader& r, TargetKind& kind, std::int64_t& target) {
  const std::uint8_t raw = r.u8().value_or(0);
  if (raw > static_cast<std::uint8_t>(TargetKind::kCpu)) {
    return make_error(StatusCode::kInvalidArgument, "bad target kind");
  }
  kind = static_cast<TargetKind>(raw);
  target = r.i64().value_or(0);
  return Status::ok();
}

}  // namespace

std::vector<std::uint8_t> Hello::encode() const {
  Writer w;
  w.u32(version);
  w.str(client_name);
  return w.take();
}

Expected<Hello> Hello::decode(const Frame& frame) {
  Reader r = frame.reader();
  Hello m;
  m.version = r.u32().value_or(0);
  m.client_name = r.str().value_or("");
  HETPAPI_RETURN_IF_ERROR(finish(r, "Hello"));
  return m;
}

std::vector<std::uint8_t> HelloAck::encode() const {
  Writer w;
  w.u32(version);
  w.u32(client_id);
  w.str(server_name);
  w.u64(epoch);
  return w.take();
}

Expected<HelloAck> HelloAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  HelloAck m;
  m.version = r.u32().value_or(0);
  m.client_id = r.u32().value_or(0);
  m.server_name = r.str().value_or("");
  m.epoch = r.u64().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "HelloAck"));
  return m;
}

std::vector<std::uint8_t> OpenSession::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(target_kind));
  w.i64(target);
  return w.take();
}

Expected<OpenSession> OpenSession::decode(const Frame& frame) {
  Reader r = frame.reader();
  OpenSession m;
  HETPAPI_RETURN_IF_ERROR(read_target(r, m.target_kind, m.target));
  HETPAPI_RETURN_IF_ERROR(finish(r, "OpenSession"));
  return m;
}

std::vector<std::uint8_t> OpenSessionAck::encode() const {
  Writer w;
  w.u32(session_id);
  return w.take();
}

Expected<OpenSessionAck> OpenSessionAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  OpenSessionAck m;
  m.session_id = r.u32().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "OpenSessionAck"));
  return m;
}

std::vector<std::uint8_t> AddEvents::encode() const {
  Writer w;
  w.u32(session_id);
  w.str_list(events);
  return w.take();
}

Expected<AddEvents> AddEvents::decode(const Frame& frame) {
  Reader r = frame.reader();
  AddEvents m;
  m.session_id = r.u32().value_or(0);
  m.events = r.str_list().value_or({});
  HETPAPI_RETURN_IF_ERROR(finish(r, "AddEvents"));
  return m;
}

std::vector<std::uint8_t> AddEventsAck::encode() const {
  Writer w;
  w.str_list(canonical_names);
  return w.take();
}

Expected<AddEventsAck> AddEventsAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  AddEventsAck m;
  m.canonical_names = r.str_list().value_or({});
  HETPAPI_RETURN_IF_ERROR(finish(r, "AddEventsAck"));
  return m;
}

std::vector<std::uint8_t> Start::encode() const {
  Writer w;
  w.u32(session_id);
  return w.take();
}

Expected<Start> Start::decode(const Frame& frame) {
  Reader r = frame.reader();
  Start m;
  m.session_id = r.u32().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "Start"));
  return m;
}

std::vector<std::uint8_t> Read::encode() const {
  Writer w;
  w.u32(session_id);
  return w.take();
}

Expected<Read> Read::decode(const Frame& frame) {
  Reader r = frame.reader();
  Read m;
  m.session_id = r.u32().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "Read"));
  return m;
}

std::vector<std::uint8_t> ReadReply::encode() const {
  Writer w;
  w.i64_list(values);
  w.u8_list(degraded);
  return w.take();
}

Expected<ReadReply> ReadReply::decode(const Frame& frame) {
  Reader r = frame.reader();
  ReadReply m;
  m.values = r.i64_list().value_or({});
  m.degraded = r.u8_list().value_or({});
  HETPAPI_RETURN_IF_ERROR(finish(r, "ReadReply"));
  return m;
}

std::vector<std::uint8_t> Subscribe::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(target_kind));
  w.i64(target);
  w.str_list(events);
  w.u32(period_ticks);
  w.u8(qualified);
  return w.take();
}

Expected<Subscribe> Subscribe::decode(const Frame& frame) {
  Reader r = frame.reader();
  Subscribe m;
  HETPAPI_RETURN_IF_ERROR(read_target(r, m.target_kind, m.target));
  m.events = r.str_list().value_or({});
  m.period_ticks = r.u32().value_or(0);
  m.qualified = r.u8().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "Subscribe"));
  return m;
}

std::vector<std::uint8_t> SubscribeAck::encode() const {
  Writer w;
  w.u32(subscription_id);
  w.u32(shared_key_id);
  w.u32(static_cast<std::uint32_t>(part_names.size()));
  for (const std::vector<std::string>& slot : part_names) w.str_list(slot);
  return w.take();
}

Expected<SubscribeAck> SubscribeAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  SubscribeAck m;
  m.subscription_id = r.u32().value_or(0);
  m.shared_key_id = r.u32().value_or(0);
  const std::uint32_t slots = r.u32().value_or(0);
  m.part_names.reserve(std::min<std::size_t>(slots, r.remaining() / 4));
  for (std::uint32_t i = 0; i < slots && r.ok(); ++i) {
    m.part_names.push_back(r.str_list().value_or({}));
  }
  HETPAPI_RETURN_IF_ERROR(finish(r, "SubscribeAck"));
  return m;
}

std::vector<std::uint8_t> Unsubscribe::encode() const {
  Writer w;
  w.u32(subscription_id);
  return w.take();
}

Expected<Unsubscribe> Unsubscribe::decode(const Frame& frame) {
  Reader r = frame.reader();
  Unsubscribe m;
  m.subscription_id = r.u32().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "Unsubscribe"));
  return m;
}

namespace {

using U32 = std::uint32_t;
using U64 = std::uint64_t;

/// Sample payload bytes that do not depend on the shape: every field
/// but the values, degraded bytes, part counts and part values.
constexpr std::size_t kFixedBytes = 49;
/// Sample payload bytes per value slot: i64 value, u8 degraded, u32
/// part count.
constexpr std::size_t kSlotBytes = 13;

/// 49 + 13N + 8P.
std::size_t payload_size(const WireSample& m) {
  std::size_t part_count = 0;
  for (std::size_t i = 0; i < m.values.size() && i < m.parts.size(); ++i) {
    part_count += m.parts[i].size();
  }
  return kFixedBytes + kSlotBytes * m.values.size() + 8 * part_count;
}

/// The fixed-width Sample layout, written at `p` (payload_size() bytes).
void write_sample_payload(const WireSample& m, std::uint8_t* p) {
  const std::size_t n = m.values.size();
  store_le<U32>(p, m.subscription_id);
  store_le<U64>(p + 4, m.tick);
  store_le(p + 12, std::bit_cast<U64>(m.t_seconds));
  store_le<U32>(p + 20, static_cast<U32>(n));
  p += 24;
  for (const long long v : m.values) {
    store_le(p, static_cast<U64>(v));
    p += 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    *p++ = i < m.degraded.size() ? m.degraded[i] : 0;
  }
  *p++ = m.counters_ok;
  store_le(p, std::bit_cast<U64>(m.package_temp_c));
  store_le(p + 8, std::bit_cast<U64>(m.package_power_w));
  p += 16;
  for (std::size_t i = 0; i < n; ++i) {
    store_le(p, i < m.parts.size() ? static_cast<U32>(m.parts[i].size()) : 0u);
    p += 4;
  }
  for (std::size_t i = 0; i < n && i < m.parts.size(); ++i) {
    for (const long long v : m.parts[i]) {
      store_le(p, static_cast<U64>(v));
      p += 8;
    }
  }
  store_le<U64>(p, m.seq);  // LAST: patched at frame end by the fan-out
}

}  // namespace

std::vector<std::uint8_t> WireSample::encode() const {
  std::vector<std::uint8_t> out(payload_size(*this));
  write_sample_payload(*this, out.data());
  return out;
}

void WireSample::encode_frame_into(std::vector<std::uint8_t>& frame) const {
  const std::size_t size = payload_size(*this);
  frame.resize(kFrameHeaderBytes + size);
  write_frame_header(frame.data(), MsgType::kSample, size);
  write_sample_payload(*this, frame.data() + kFrameHeaderBytes);
}

Expected<WireSample> WireSample::decode(const Frame& frame) {
  // Decoded in place, inside the Expected that is returned.
  Expected<WireSample> out{WireSample{}};
  HETPAPI_RETURN_IF_ERROR(
      decode_into(frame.payload.data(), frame.payload.size(), *out));
  return out;
}

Status WireSample::decode_into(const std::uint8_t* p, std::size_t size,
                               WireSample& m) {
  const U32 n = size < kFixedBytes ? 0 : load_le<U32>(p + 20);
  if (size < kFixedBytes || n > (size - kFixedBytes) / kSlotBytes) {
    return make_error(StatusCode::kInvalidArgument, "Sample: truncated");
  }
  // Every byte up to the part values is fixed by N; the part counts
  // then fix the rest, so one comparison checks the whole length.
  const std::uint8_t* counts = p + 41 + 9 * static_cast<std::size_t>(n);
  U64 part_total = 0;
  for (U32 i = 0; i < n; ++i) part_total += load_le<U32>(counts + 4 * i);
  if (size != kFixedBytes + kSlotBytes * n + 8 * part_total) {
    return make_error(StatusCode::kInvalidArgument,
                      "Sample: length does not match its slot and part counts");
  }
  m.subscription_id = load_le<U32>(p);
  m.tick = load_le<U64>(p + 4);
  m.t_seconds = std::bit_cast<double>(load_le<U64>(p + 12));
  m.values.resize(n);
  const std::uint8_t* at = p + 24;
  for (long long& v : m.values) {
    v = static_cast<long long>(load_le<U64>(at));
    at += 8;
  }
  // Empty unless some slot is degraded: the common case allocates none.
  if (std::any_of(at, at + n, [](std::uint8_t b) { return b != 0; })) {
    m.degraded.assign(at, at + n);
  } else {
    m.degraded.clear();
  }
  at += n;
  m.counters_ok = *at++;
  m.package_temp_c = std::bit_cast<double>(load_le<U64>(at));
  m.package_power_w = std::bit_cast<double>(load_le<U64>(at + 8));
  at = counts + 4 * static_cast<std::size_t>(n);
  // A plain stream carries no part at all and decodes to no slots.
  m.parts.clear();
  for (U32 i = 0; i < n && part_total != 0; ++i) {
    for (long long& v : m.parts.add_slot(load_le<U32>(counts + 4 * i))) {
      v = static_cast<long long>(load_le<U64>(at));
      at += 8;
    }
  }
  m.seq = load_le<U64>(at);
  return Status::ok();
}

std::vector<std::uint8_t> GetStats::encode() const { return {}; }

Expected<GetStats> GetStats::decode(const Frame& frame) {
  HETPAPI_RETURN_IF_ERROR(finish(frame.reader(), "GetStats"));
  return GetStats{};
}

std::vector<std::uint8_t> StatsReply::encode() const {
  Writer w;
  w.u64(ticks);
  w.u64(backend_reads);
  w.u64(samples_delivered);
  w.u64(frames_received);
  w.u64(frames_sent);
  w.u32(active_clients);
  w.u32(active_sessions);
  w.u32(distinct_subscriptions);
  w.u32(total_subscribers);
  w.u32(clients_dropped_slow);
  w.u32(clients_closed_idle);
  return w.take();
}

Expected<StatsReply> StatsReply::decode(const Frame& frame) {
  Reader r = frame.reader();
  StatsReply m;
  m.ticks = r.u64().value_or(0);
  m.backend_reads = r.u64().value_or(0);
  m.samples_delivered = r.u64().value_or(0);
  m.frames_received = r.u64().value_or(0);
  m.frames_sent = r.u64().value_or(0);
  m.active_clients = r.u32().value_or(0);
  m.active_sessions = r.u32().value_or(0);
  m.distinct_subscriptions = r.u32().value_or(0);
  m.total_subscribers = r.u32().value_or(0);
  m.clients_dropped_slow = r.u32().value_or(0);
  m.clients_closed_idle = r.u32().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "StatsReply"));
  return m;
}

std::vector<std::uint8_t> Close::encode() const { return {}; }

Expected<Close> Close::decode(const Frame& frame) {
  HETPAPI_RETURN_IF_ERROR(finish(frame.reader(), "Close"));
  return Close{};
}

std::vector<std::uint8_t> CloseAck::encode() const { return {}; }

Expected<CloseAck> CloseAck::decode(const Frame& frame) {
  HETPAPI_RETURN_IF_ERROR(finish(frame.reader(), "CloseAck"));
  return CloseAck{};
}

std::vector<std::uint8_t> WireError::encode() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(code));
  w.u8(in_reply_to);
  w.str(message);
  return w.take();
}

Expected<WireError> WireError::decode(const Frame& frame) {
  Reader r = frame.reader();
  WireError m;
  m.code = static_cast<std::int32_t>(r.u32().value_or(0));
  m.in_reply_to = r.u8().value_or(0);
  m.message = r.str().value_or("");
  HETPAPI_RETURN_IF_ERROR(finish(r, "Error"));
  return m;
}

std::vector<std::uint8_t> Goodbye::encode() const {
  Writer w;
  w.str(reason);
  return w.take();
}

Expected<Goodbye> Goodbye::decode(const Frame& frame) {
  Reader r = frame.reader();
  Goodbye m;
  m.reason = r.str().value_or("");
  HETPAPI_RETURN_IF_ERROR(finish(r, "Goodbye"));
  return m;
}

std::vector<std::uint8_t> Ping::encode() const {
  Writer w;
  w.u64(token);
  return w.take();
}

Expected<Ping> Ping::decode(const Frame& frame) {
  Reader r = frame.reader();
  Ping m;
  m.token = r.u64().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "Ping"));
  return m;
}

std::vector<std::uint8_t> Pong::encode() const {
  Writer w;
  w.u64(token);
  return w.take();
}

Expected<Pong> Pong::decode(const Frame& frame) {
  Reader r = frame.reader();
  Pong m;
  m.token = r.u64().value_or(0);
  HETPAPI_RETURN_IF_ERROR(finish(r, "Pong"));
  return m;
}

}  // namespace hetpapi::service
