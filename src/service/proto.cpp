#include "service/proto.hpp"

#include <algorithm>
#include <bit>

namespace hetpapi::service {

namespace {

/// Bytes of the length prefix plus the type byte ahead of every payload.
constexpr std::size_t kFrameHeaderBytes = 5;

void write_frame_header(std::uint8_t* out, MsgType type,
                        std::size_t payload_size) {
  store_le(out, static_cast<std::uint32_t>(payload_size + 1));
  out[4] = static_cast<std::uint8_t>(type);
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

void Reader::get(TargetKind& kind) {
  std::uint8_t raw = 0;
  get(raw);
  if (raw > static_cast<std::uint8_t>(TargetKind::kCpu)) {
    fail("bad target kind");
    return;
  }
  kind = static_cast<TargetKind>(raw);
}

void Reader::get(std::string& s) {
  std::uint32_t size = 0;
  get(size);
  if (const std::uint8_t* p = take(size)) {
    s.assign(reinterpret_cast<const char*>(p), size);
  }
}

Status Reader::finish(std::string_view what) const {
  if (error_ != nullptr) {
    return make_error(StatusCode::kInvalidArgument,
                      std::string(what) + ": " + error_);
  }
  // Trailing bytes after the last field mean a framing bug or an
  // incompatible sender.
  if (remaining() != 0) {
    return make_error(StatusCode::kInvalidArgument,
                      std::string(what) + ": trailing bytes");
  }
  return Status::ok();
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

// --- Sample ----------------------------------------------------------------
//
// Hand-written rather than a field list: the layout is fixed-width so
// the fan-out can patch one template frame per rider in place, and one
// length check covers the whole decode.

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
  m.values.resize_for_overwrite(n);
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
  // A plain stream carries no part at all and decodes to no slots; a
  // qualified one is reshaped once, from the wire's part counts.
  m.parts.clear();
  if (part_total != 0) {
    for (long long& v : m.parts.reshape(counts, n, part_total)) {
      v = static_cast<long long>(load_le<U64>(at));
      at += 8;
    }
  }
  m.seq = load_le<U64>(at);
  return Status::ok();
}

bool WireSample::fits_schema(const std::uint8_t* p, std::size_t size,
                             std::span<const std::uint32_t> part_counts) {
  if (size < kFixedBytes) return false;
  const U32 n = load_le<U32>(p + 20);
  // A failed read carries no slots, whatever the schema says.
  if (n == 0) return size == kFixedBytes && p[24] == 0;
  if (n != part_counts.size() || size < kFixedBytes + kSlotBytes * n) {
    return false;
  }
  const std::uint8_t* counts = p + 41 + 9 * static_cast<std::size_t>(n);
  std::size_t part_total = 0;
  for (U32 i = 0; i < n; ++i) {
    if (load_le<U32>(counts + 4 * i) != part_counts[i]) return false;
    part_total += part_counts[i];
  }
  return size == kFixedBytes + kSlotBytes * n + 8 * part_total;
}

}  // namespace hetpapi::service
