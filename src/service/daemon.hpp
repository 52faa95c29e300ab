// hetpapid: the counter-service daemon.
//
// One Daemon owns one papi::Library (and through it the backend — sim,
// Linux, or a FaultInjectingBackend decorating either) and serves many
// concurrent client sessions over any Transport. Its two entry points
// are deliberately split so a test or an embedding tool can drive them
// deterministically:
//
//   poll() — accept pending connections, drain client bytes, dispatch
//            complete frames, flush send queues. Never blocks.
//   tick() — one sampling tick: read every *distinct* shared
//            subscription once and fan the sample out to all of its
//            subscribers. Also runs idle-timeout, liveness and
//            backpressure enforcement.
//
// Shared-subscription coalescing is the scaling mechanism: sessions
// subscribing to the same (target, ordered canonical event list,
// period, qualified) key share one reference-counted server-side
// EventSet, so per-tick backend read calls scale with the number of
// distinct subscriptions, not with the number of clients. The
// canonicalization goes through Library::canonical_event_name, so
// "papi_tot_ins" and "PAPI_TOT_INS" land on the same key.
//
// The fan-out runs on the thread that calls tick(), and the daemon
// starts no threads: sample encoding produces ONE fixed-width template
// frame per distinct due subscription, and the loop right after it
// appends the template to each rider's outbound byte buffer and patches
// the subscription id (the first payload field) and the sequence number
// (the last) in place. That costs no per-rider allocation and no
// lookup, since a rider points at its client. Riders are served in the
// global (key_id, subscribe order), which is the order of every
// client's byte stream. Handing these appends to worker threads cost
// more than the appends themselves (DESIGN §12).
//
// Robustness reuses PR 4's machinery: per-client send queues are capped
// (a slow client is dropped, never allowed to wedge the daemon), idle
// clients without subscriptions time out, shutdown() drains gracefully,
// and running the whole daemon behind a FaultInjectingBackend turns a
// chaos soak into a deterministic test with the live-fd ledger as the
// leak oracle.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "papi/library.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi::service {

struct DaemonConfig {
  std::string name = "hetpapid";
  /// Frames a client may have queued before it is dropped as slow.
  std::size_t max_client_queue_frames = 256;
  /// Ticks without traffic after which a subscription-less client is
  /// disconnected (0 = never).
  std::uint64_t idle_timeout_ticks = 0;
  /// Inert: the fan-out runs on the ticking thread and nothing reads
  /// these two fields. They stay only because existing benchmark
  /// drivers still set them; ROADMAP item 1(a), then item 5, removes them.
  std::size_t encode_threads = 1;
  std::size_t shards = 1;
  /// Session epoch advertised in every HelloAck. A reconnecting
  /// client compares epochs to tell "same daemon process" (tick-based
  /// gap accounting is exact) from "daemon restarted" (gap unknowable).
  /// Caller-provided rather than derived from wall clock or a global
  /// counter so runs stay byte-deterministic.
  std::uint64_t epoch = 1;
  /// Liveness: ping every helloed client whose last traffic is this
  /// many ticks old (0 = pings disabled). A client that misses
  /// `ping_max_missed` consecutive ping deadlines is dropped even if it
  /// still holds subscriptions — a half-open peer must not hold
  /// resources forever.
  std::uint64_t ping_interval_ticks = 0;
  std::uint32_t ping_max_missed = 3;
  /// Admission control (0 = unlimited): connections beyond max_clients
  /// are refused at accept with kOverloaded; subscriptions beyond
  /// max_subscriptions per client are refused with kOverloaded.
  std::size_t max_clients = 0;
  std::size_t max_subscriptions = 0;
  /// Upper bound on send() calls per client during the shutdown drain
  /// flush (0 = unlimited). A peer that accepts one byte at a time must
  /// not be able to wedge shutdown().
  std::size_t shutdown_max_flush_ops = 4096;
  /// Forwarded to papi::Library::init.
  papi::LibraryConfig library{};
};

/// Daemon-side accounting; the wire StatsReply is built from this.
struct DaemonStats {
  std::uint64_t ticks = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t samples_delivered = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint32_t clients_dropped_slow = 0;
  std::uint32_t clients_closed_idle = 0;
  std::uint32_t protocol_errors = 0;
  // Liveness and admission accounting.
  std::uint64_t pings_missed = 0;          // liveness deadlines blown
  std::uint64_t clients_dropped_liveness = 0;
  std::uint64_t overload_rejections = 0;   // admission-control refusals
};

class Daemon {
 public:
  /// `kernel` may be null when the backend is not sim-based (t_seconds
  /// then counts ticks); `backend` must outlive the daemon.
  Daemon(simkernel::SimKernel* kernel, papi::Backend* backend,
         DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Build the library over the backend. Must be called (and succeed)
  /// before the first poll().
  Status init();

  /// Register a transport listener (non-owning; multiple allowed).
  void add_listener(Listener* listener);

  void poll();
  void tick();

  /// Graceful drain: Goodbye to every client, bounded flush, close all
  /// connections, release every EventSet. After this the backend's fd
  /// ledger must be empty. Idempotent.
  void shutdown();

  const DaemonStats& stats() const { return stats_; }
  std::size_t client_count() const { return clients_.size(); }
  std::size_t session_count() const;
  std::size_t distinct_subscription_count() const { return shared_subs_.size(); }
  std::size_t total_subscriber_count() const;

  papi::Library* library() { return library_.get(); }

 private:
  struct ClientState;

  /// One subscriber of a shared (coalesced) subscription, in subscribe
  /// order. teardown_client() removes a client's riders before the
  /// client goes away, so `client` never dangles.
  struct Rider {
    ClientState* client = nullptr;
    std::uint32_t subscription_id = 0;
    /// Delivery sequence for THIS rider, bumped on every delivery
    /// (first delivered sample carries seq 1). A resubscribe after
    /// reconnect is a new rider, so the client's expectation of a fresh
    /// sequence holds by construction.
    std::uint64_t seq = 0;
  };

  struct SharedSubscription {
    std::uint32_t key_id = 0;
    std::string key;
    int eventset = -1;
    std::uint32_t period_ticks = 1;
    bool qualified = false;
    /// The SubscribeAck every rider of the set gets, its schema
    /// computed once when the set is built; on_subscribe stamps each
    /// rider's subscription id into it.
    SubscribeAck ack;
    /// The refcount is subscribers.size().
    std::vector<Rider> subscribers;
    // Per-tick scratch, reused so a steady tick does not allocate: the
    // qualified or plain reading, the sample it becomes, and its
    // template frame.
    std::vector<papi::QualifiedReading> reading;
    papi::Reading checked;
    WireSample sample;
    std::vector<std::uint8_t> frame;
  };

  /// A client's outbound stream: frames appended back to back and
  /// flushed from `sent` on. The frame ends ride beside the bytes so
  /// max_client_queue_frames still counts whole frames not yet sent.
  struct OutBuffer {
    std::vector<std::uint8_t> bytes;
    std::size_t sent = 0;
    std::vector<std::size_t> frame_ends;  // offsets into bytes
    std::size_t ends_sent = 0;            // frame_ends fully flushed

    std::size_t frames() const { return frame_ends.size() - ends_sent; }
    std::size_t pending() const { return bytes.size() - sent; }
    /// Append one frame and return where it starts.
    std::size_t append(const std::uint8_t* frame, std::size_t size);
    /// Account `n` more bytes as sent, compacting lazily.
    void consume(std::size_t n);
  };

  struct ClientState {
    std::uint32_t id = 0;
    std::unique_ptr<Connection> conn;
    FrameReader reader;
    bool hello_done = false;
    /// Flush-then-close: set after Close/Goodbye.
    bool closing = false;
    std::uint64_t last_activity_tick = 0;
    // Liveness (when ping_interval_ticks > 0): traffic in
    // either direction counts as proof of life; otherwise a Ping goes
    // out and the peer has one interval per deadline to answer.
    std::uint64_t ping_sent_tick = 0;
    bool ping_outstanding = false;
    std::uint32_t pings_missed = 0;
    OutBuffer out;
    std::map<std::uint32_t, int> sessions;  // session id -> EventSet
    /// subscription_id -> shared key_id.
    std::map<std::uint32_t, std::uint32_t> subscriptions;
  };

  void accept_pending();
  void drain_client(ClientState& client);
  void dispatch(ClientState& client, const FrameView& frame);
  /// Decode a request and hand it to `handler`, answering a malformed
  /// one with an Error instead.
  template <typename M>
  void serve(ClientState& client, const FrameView& frame,
             void (Daemon::*handler)(ClientState&, const M&));
  /// Flush the send queue; `max_ops` bounds the number of send() calls
  /// (0 = until done or would-block) so a byte-at-a-time peer cannot
  /// wedge the caller.
  void flush_client(ClientState& client, std::size_t max_ops = 0);
  void enforce_queue_cap(ClientState& client);
  void reap_closed();
  /// Ping clients that have been silent too long; drop the ones that
  /// blew ping_max_missed deadlines.
  void enforce_liveness();

  /// Best-effort direct send of one message that bypasses the queue
  /// (refusals and drops, right before the connection closes).
  template <typename M>
  void send_now(Connection& conn, const M& msg);
  /// Queue one message, framed under its kType.
  template <typename M>
  void enqueue(ClientState& client, const M& msg);
  void enqueue_error(ClientState& client, MsgType in_reply_to, const Status& s);
  /// Validate a new subscription's spec and the client's quota.
  Status admit(const ClientState& client, std::uint32_t period_ticks,
               const std::vector<std::string>& events);

  // Request handlers (client already authenticated unless noted).
  void on_hello(ClientState& client, const Hello& msg);
  void on_open_session(ClientState& client, const OpenSession& msg);
  void on_add_events(ClientState& client, const AddEvents& msg);
  void on_start(ClientState& client, const Start& msg);
  void on_read(ClientState& client, const Read& msg);
  void on_subscribe(ClientState& client, const Subscribe& msg);
  void on_unsubscribe(ClientState& client, const Unsubscribe& msg);
  void on_get_stats(ClientState& client, const GetStats& msg);
  void on_close(ClientState& client, const Close& msg);
  void on_ping(ClientState& client, const Ping& msg);
  void on_pong(ClientState& client, const Pong& msg);

  /// Build (or join) the shared subscription for a canonicalized spec.
  Expected<SharedSubscription*> join_subscription(
      ClientState& client, std::uint32_t subscription_id,
      const Subscribe& spec);
  /// Drop one subscriber; tears the EventSet down on the last one.
  void leave_subscription(const ClientState& client, std::uint32_t sub_id,
                          std::uint32_t key_id);
  /// Release everything a departing client holds.
  void teardown_client(ClientState& client);

  /// One coalescing key: target kind/id, period, qualified flag, then
  /// the ordered canonical event names (through
  /// Library::canonical_event_name, so spellings coalesce).
  /// Order-sensitive by design — the streamed value vector must match
  /// each subscriber's requested slot order, so differently-ordered
  /// lists are distinct subscriptions.
  Expected<std::string> coalescing_key(
      TargetKind kind, std::int64_t target, std::uint32_t period_ticks,
      bool qualified, const std::vector<std::string>& events) const;
  /// Bind a fresh EventSet to a wire target and event list.
  Expected<int> build_eventset(TargetKind kind, std::int64_t target,
                               const std::vector<std::string>& events);

  /// The per-slot part names of a started qualified set, as its
  /// samples carry them.
  std::vector<std::vector<std::string>> part_names_of(int eventset) const;
  /// Read one due subscription into its sample scratch.
  void read_into_sample(SharedSubscription& sub);
  void serve_subscriptions();
  /// The fan-out tail: append one subscription's template Sample frame
  /// to each rider's buffer in subscribe order and stamp the rider's id
  /// and sequence into its copy.
  void deliver(std::vector<Rider>& riders,
               const std::vector<std::uint8_t>& frame);

  simkernel::SimKernel* kernel_;
  papi::Backend* backend_;
  DaemonConfig config_;
  std::unique_ptr<papi::Library> library_;

  std::vector<Listener*> listeners_;
  /// Insertion-ordered so poll()/tick() visit clients deterministically.
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::map<std::uint32_t, SharedSubscription> shared_subs_;  // by key_id
  std::map<std::string, std::uint32_t> key_ids_;             // key -> key_id

  DaemonStats stats_;
  std::uint32_t next_client_id_ = 1;
  std::uint32_t next_session_id_ = 1;
  std::uint32_t next_subscription_id_ = 1;
  std::uint32_t next_key_id_ = 1;
  bool shut_down_ = false;
};

}  // namespace hetpapi::service
