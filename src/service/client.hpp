// Client side of the counter service: synchronous RPC over any
// Connection, with streamed Samples collected out-of-band.
//
// The client is transport-agnostic: over a unix socket receive() blocks
// until the daemon answers; over the loopback transport receive() pumps
// the daemon, so the same synchronous code works single-threaded in
// tests and benches. Sample frames that arrive while an RPC waits for
// its reply are stashed and handed out via take_samples() — a stream
// never desynchronizes the request/reply protocol. Each Sample is
// checked against the schema its SubscribeAck carried (slot and part
// counts); one that does not fit, or that names a subscription this
// client does not hold, is dropped.
//
// Self-healing (opt in via enable_reconnect): when the transport dies
// the client re-dials through a caller-supplied connection factory
// under bounded exponential backoff with deterministic jitter,
// re-handshakes, and re-subscribes its recorded subscription set. The
// session epoch plus the per-subscription sequence/tick tail lets
// the resumed client account for the outage exactly: same epoch ->
// the precise number of missed samples; changed epoch (daemon
// restarted) -> an explicit unknown gap. An RPC interrupted by a
// reconnect fails with kInterrupted rather than silently re-running —
// the caller decides whether to retry a non-idempotent request.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"

namespace hetpapi::service {

/// Dials a replacement connection after a transport failure.
using ConnectionFactory =
    std::function<Expected<std::unique_ptr<Connection>>()>;

/// Reconnect policy. All delays are computed deterministically from the
/// seed; the optional sleep hook receives each computed delay (tests
/// capture it, tools pass a real sleep, the loopback default is none —
/// the next dial happens immediately).
struct ReconnectConfig {
  /// Dial attempts per outage before the failure is surfaced.
  int max_attempts = 8;
  std::uint64_t initial_backoff_ms = 10;
  std::uint64_t max_backoff_ms = 1000;
  /// Jitter: each delay is scaled by a factor drawn uniformly from
  /// [1 - jitter_frac, 1 + jitter_frac] off the seeded stream.
  double jitter_frac = 0.2;
  std::uint64_t seed = 1;
  /// Handshake/RPC deadline: consecutive empty receive passes an RPC
  /// tolerates before failing with kInterrupted (a dead-silent daemon
  /// must not hang the client forever). 0 = unlimited.
  int rpc_deadline_pumps = 4096;
  std::function<void(std::uint64_t)> sleep_ms;
};

/// What the reconnect machinery did and measured, surfaced to callers.
struct ResumeStats {
  std::uint64_t reconnects = 0;           // successful resumes
  std::uint64_t attempts = 0;             // dials tried, failures included
  std::uint64_t epoch_changes = 0;        // daemon restarted across a resume
  std::uint64_t resubscribe_failures = 0; // subs the daemon refused on resume
  std::uint64_t resubscribe_retries = 0;  // refused subs asked for again
  std::uint64_t gaps = 0;                 // subscriptions that saw a gap
  std::uint64_t unknown_gaps = 0;         // gap unquantifiable (epoch change)
  std::uint64_t samples_missed = 0;       // exact missed count (same epoch)
};

class Client {
 public:
  explicit Client(std::unique_ptr<Connection> conn)
      : conn_(std::move(conn)) {}

  /// Handshake; must be the first call.
  Status hello(const std::string& client_name);

  /// One private session == one daemon-side EventSet.
  Expected<std::uint32_t> open_session(TargetKind kind, std::int64_t target);
  Expected<AddEventsAck> add_events(std::uint32_t session_id,
                                    const std::vector<std::string>& events);
  Status start(std::uint32_t session_id);
  Expected<ReadReply> read(std::uint32_t session_id);

  /// Join (or create) a shared subscription; the ack's shared_key_id
  /// tells you whether you coalesced onto an existing one, and its
  /// part_names name the parts of every Sample the stream delivers.
  Expected<SubscribeAck> subscribe(const Subscribe& spec);
  Status unsubscribe(std::uint32_t subscription_id);

  Expected<StatsReply> stats();

  /// Polite teardown: Close, wait for CloseAck, close the connection.
  Status close();

  /// Sweep the transport once for pending bytes, then hand out every
  /// Sample frame collected so far (including ones stashed while an RPC
  /// waited for its reply). Over the unix transport the sweep blocks
  /// until at least one byte arrives, so call it when a sample is due.
  /// The stash itself is handed over, and the client reserves a fresh
  /// one of the same size: one allocation, no sample copied or moved.
  /// Between the daemon's template frame and the caller's sample lie
  /// the fan-out's copy into the rider's send queue, the transport's
  /// copy into the pipe (or socket), the receive into the frame
  /// reader's buffer (a loopback swaps a whole pipe in instead) and the
  /// decode from there into the stash slot.
  std::vector<WireSample> take_samples();
  /// take_samples() into a caller-owned buffer: `out` is replaced by the
  /// stashed samples and its previous storage becomes the stash, so a
  /// loop that reuses one buffer stops allocating once the stream's
  /// shape is steady.
  void take_samples_into(std::vector<WireSample>& out);

  /// Pull bytes off the transport once and stash any completed frames
  /// (samples into the sample queue). Returns true only when bytes
  /// actually arrived — false on an idle transport or a dead
  /// connection — so callers can drain with `while (pump_once())`.
  bool pump_once();

  /// Non-empty once the daemon said Goodbye (drain, idle, slow-drop).
  const std::string& goodbye_reason() const { return goodbye_reason_; }
  bool connected() const { return conn_ != nullptr && conn_->is_open(); }

  /// Arm auto-reconnect: on a terminal transport error the client dials
  /// `factory` under the config's backoff policy, re-handshakes, and
  /// re-subscribes every recorded subscription. Call before hello().
  void enable_reconnect(ConnectionFactory factory,
                        ReconnectConfig config = {});
  /// Reconnect/gap accounting (all zeros when reconnect is off).
  const ResumeStats& resume_stats() const { return resume_stats_; }
  /// The daemon's session epoch from HelloAck.
  std::uint64_t epoch() const { return epoch_; }
  /// Current subscription id of the recorded subscription originally
  /// acked with `original_sub_id` (it changes on resume); 0 when the
  /// subscription is gone or unknown.
  std::uint32_t current_subscription_id(std::uint32_t original_sub_id) const;

  /// Raw received-byte log for the determinism tests (every byte the
  /// daemon sent us, in order), captured before frame reassembly.
  void set_capture_bytes(bool capture) { capture_bytes_ = capture; }
  const std::vector<std::uint8_t>& captured_bytes() const {
    return captured_bytes_;
  }

 private:
  /// One entry of the recorded subscription set the reconnect machinery
  /// replays on resume.
  struct RecordedSub {
    std::uint32_t original_sub_id = 0;  // first ack, stable caller handle
    Subscribe spec;
    std::uint32_t sub_id = 0;  // current id; 0 = dead (resume refused)
    /// Refused on resume, and asked for again while connected.
    bool retry = false;
    std::uint32_t period_ticks = 1;
    bool saw_sample = false;
    std::uint64_t last_tick = 0;
    std::uint64_t last_seq = 0;
    /// Set after a resume until the first post-resume sample lands and
    /// the gap is accounted; gap_unknown marks an epoch change.
    bool check_gap = false;
    bool gap_unknown = false;
  };

  static constexpr std::size_t kNotRecorded = static_cast<std::size_t>(-1);

  /// What the client knows about one subscription it currently holds,
  /// keyed by its current id.
  struct LiveSub {
    /// Parts per slot from the SubscribeAck schema (inline to 8 slots).
    SmallVector<std::uint32_t, 8> part_counts;
    /// Index into recorded_subs_, or kNotRecorded.
    std::size_t recorded = kNotRecorded;
  };

  /// One RPC: send `request` under its kType and decode the Reply (a
  /// daemon Error becomes the returned status).
  template <typename Reply, typename Request>
  Expected<Reply> call(const Request& request);
  /// Send `frame` fully, then wait for a frame of type `expect` (or
  /// kError, which becomes the returned status). The view lasts until
  /// the next receive.
  Expected<FrameView> rpc(MsgType expect,
                          const std::vector<std::uint8_t>& frame);
  Status send_all(const std::vector<std::uint8_t>& bytes);
  /// Receive once into the reader; false = nothing arrived.
  Expected<bool> receive_some();
  /// Check-decode-and-stash shared by pump_once and the rpc wait loop.
  void stash_frame(const FrameView& frame);
  /// Gap/sequence accounting for one delivered sample.
  void note_sample(const LiveSub& live, std::uint64_t tick, std::uint64_t seq);
  /// Append to the recorded set, indexed by the sub's current id.
  void record(RecordedSub sub, std::uint32_t sub_id,
              std::uint32_t period_ticks);
  /// Point every live subscription at its recorded_subs_ entry.
  void reindex_recorded();
  /// The reconnect state machine; returns ok when a resume succeeded.
  Status try_reconnect(const Status& cause);
  /// Ask again for the first recorded subscription the daemon refused
  /// on resume (one Subscribe per call).
  void retry_refused();
  /// rpc-only subscribe path that does NOT touch the recorded set (the
  /// public one records; the resume replay must not re-record).
  Expected<SubscribeAck> do_subscribe(const Subscribe& spec);

  std::unique_ptr<Connection> conn_;
  FrameReader reader_;
  /// The first stashed_ entries are live; the ones past them are spare
  /// storage whose buffers the next decodes reuse.
  std::vector<WireSample> samples_;
  std::size_t stashed_ = 0;
  std::unordered_map<std::uint32_t, LiveSub> live_subs_;
  std::string goodbye_reason_;
  bool capture_bytes_ = false;
  std::vector<std::uint8_t> captured_bytes_;

  // Reconnect state.
  ConnectionFactory factory_;
  ReconnectConfig reconnect_config_;
  bool reconnect_enabled_ = false;
  bool reconnecting_ = false;   // guards against nested resume attempts
  std::uint64_t generation_ = 0;  // bumped per adopted connection
  Rng backoff_rng_{1};
  std::string client_name_;
  std::uint64_t epoch_ = 0;
  ResumeStats resume_stats_;
  std::vector<RecordedSub> recorded_subs_;
};

}  // namespace hetpapi::service
