#include "service/client.hpp"

#include <algorithm>
#include <utility>

namespace hetpapi::service {
namespace {

Status connection_gone() {
  return Status(StatusCode::kNotRunning, "connection closed");
}

Status reconnected_midway() {
  return Status(StatusCode::kInterrupted,
                "connection re-established mid-request; retry");
}

/// A status that means the wire died (retry the whole attempt), as
/// opposed to a daemon-side refusal of one request.
bool is_transport_death(const Status& s) {
  return s.code() == StatusCode::kNotRunning ||
         s.code() == StatusCode::kInterrupted;
}

/// A resubscribe refusal that may pass on a later try (a conflict, an
/// overload, a backend fault), as opposed to one that says the spec
/// itself cannot be served.
bool worth_retrying(const Status& s) {
  return s.code() != StatusCode::kInvalidArgument &&
         s.code() != StatusCode::kNotFound &&
         s.code() != StatusCode::kNotSupported;
}

}  // namespace

void Client::enable_reconnect(ConnectionFactory factory,
                              ReconnectConfig config) {
  factory_ = std::move(factory);
  reconnect_config_ = std::move(config);
  reconnect_enabled_ = static_cast<bool>(factory_);
  backoff_rng_ = Rng(reconnect_config_.seed);
}

std::uint32_t Client::current_subscription_id(
    std::uint32_t original_sub_id) const {
  for (const RecordedSub& sub : recorded_subs_) {
    if (sub.original_sub_id == original_sub_id) return sub.sub_id;
  }
  return 0;
}

Status Client::send_all(const std::vector<std::uint8_t>& bytes) {
  if (!connected()) {
    // Nothing of this request is on the wire yet: a successful resume
    // lets the send proceed on the fresh connection.
    if (Status healed = try_reconnect(connection_gone()); !healed.is_ok())
      return healed;
    if (!connected()) return connection_gone();
  }
  const std::uint64_t gen = generation_;
  std::size_t sent = 0;
  int idle_passes = 0;
  const int idle_limit =
      reconnect_enabled_ ? reconnect_config_.rpc_deadline_pumps : 0;
  while (sent < bytes.size()) {
    auto n = conn_->send(bytes.data() + sent, bytes.size() - sent);
    if (!n) {
      conn_->close();
      Status healed = try_reconnect(n.status());
      if (!healed.is_ok()) return healed;
      // Resumed, but a prefix of this frame may be lost with the old
      // connection — the caller must resend from the top.
      return reconnected_midway();
    }
    if (*n == 0) {
      // Would-block: give the peer a chance to drain (on the loopback
      // transport receive() pumps the daemon; on a socket the kernel
      // buffer empties on its own) and retry.
      auto progressed = receive_some();
      if (!progressed) return progressed.status();
      if (generation_ != gen) return reconnected_midway();
      if (!*progressed && idle_limit > 0 && ++idle_passes >= idle_limit) {
        return Status(StatusCode::kInterrupted,
                      "send made no progress within the deadline");
      }
      if (*progressed) idle_passes = 0;
      continue;
    }
    idle_passes = 0;
    sent += *n;
  }
  return Status::ok();
}

Expected<bool> Client::receive_some() {
  if (!connected()) return connection_gone();
  std::vector<std::uint8_t>& in = reader_.input();
  const auto fresh = static_cast<std::ptrdiff_t>(in.size());
  auto n = conn_->receive(in);
  if (!n) {
    // A receive error is terminal (would-block is reported as 0 bytes,
    // not an error): drop the connection so connected() tells the truth
    // and pollers stop treating this peer as live — then, if armed, try
    // to heal. A successful resume reports "no bytes this pass"; the
    // resubscribed stream flows on the next sweep.
    conn_->close();
    Status healed = try_reconnect(n.status());
    if (!healed.is_ok()) return healed;
    return false;
  }
  if (*n == 0) return false;
  if (capture_bytes_)
    captured_bytes_.insert(captured_bytes_.end(), in.begin() + fresh, in.end());
  return true;
}

void Client::note_sample(const LiveSub& live, std::uint64_t tick,
                         std::uint64_t seq) {
  if (!reconnect_enabled_ || live.recorded == kNotRecorded) return;
  RecordedSub& sub = recorded_subs_[live.recorded];
  if (sub.check_gap) {
    if (sub.gap_unknown) {
      ++resume_stats_.unknown_gaps;
    } else if (sub.saw_sample && tick > sub.last_tick && sub.period_ticks > 0) {
      // Deliveries land on tick % period == 0 of the daemon's global
      // tick counter, which survived the outage (same epoch), so the
      // missed count is exact: due ticks strictly between the last
      // pre-outage delivery and this one.
      const std::uint64_t due_steps = (tick - sub.last_tick) / sub.period_ticks;
      if (due_steps > 1) {
        ++resume_stats_.gaps;
        resume_stats_.samples_missed += due_steps - 1;
      }
    }
    sub.check_gap = false;
    sub.gap_unknown = false;
  } else if (seq != 0 && sub.last_seq != 0 && seq != sub.last_seq + 1) {
    // In-connection sequence break: the daemon skipped us without a
    // reconnect. Should not happen; account it rather than hide it.
    ++resume_stats_.gaps;
    if (seq > sub.last_seq) {
      resume_stats_.samples_missed += seq - sub.last_seq - 1;
    }
  }
  sub.saw_sample = true;
  sub.last_tick = tick;
  sub.last_seq = seq;
}

void Client::record(RecordedSub sub, std::uint32_t sub_id,
                    std::uint32_t period_ticks) {
  sub.original_sub_id = sub.sub_id = sub_id;
  sub.period_ticks = std::max(period_ticks, 1u);
  live_subs_[sub_id].recorded = recorded_subs_.size();
  recorded_subs_.push_back(std::move(sub));
}

void Client::reindex_recorded() {
  for (auto& [sub_id, live] : live_subs_) live.recorded = kNotRecorded;
  for (std::size_t i = 0; i < recorded_subs_.size(); ++i) {
    const auto it = live_subs_.find(recorded_subs_[i].sub_id);
    if (it != live_subs_.end()) it->second.recorded = i;
  }
}

void Client::stash_frame(const FrameView& view) {
  if (view.type == MsgType::kSample) {
    // The subscription id leads the payload: a sample of a subscription
    // this client does not hold, or one that does not fit its schema,
    // is dropped on its wire bytes and takes no stash slot.
    if (view.size < 4) return;
    const auto it = live_subs_.find(load_le<std::uint32_t>(view.payload));
    if (it == live_subs_.end() ||
        !WireSample::fits_schema(view.payload, view.size,
                                 it->second.part_counts)) {
      return;
    }
    // Decode straight into the next stash slot, reusing its buffers.
    if (stashed_ == samples_.size()) samples_.emplace_back();
    WireSample& s = samples_[stashed_];
    if (!WireSample::decode_into(view.payload, view.size, s).is_ok()) return;
    note_sample(it->second, s.tick, s.seq);
    ++stashed_;
    return;
  }
  if (view.type == MsgType::kGoodbye) {
    if (auto g = decode_payload<Goodbye>(view.bytes())) {
      goodbye_reason_ = g->reason;
    }
  } else if (view.type == MsgType::kPing) {
    // Decoded before the echo, whose send may receive into the reader's
    // buffer and so end the view. Best effort: an echo that fails to
    // send surfaces as a transport error on the next real operation.
    if (auto ping = decode_payload<Ping>(view.bytes())) {
      (void)send_all(encode_frame(Pong{ping->token}));
    }
  }
}

void Client::retry_refused() {
  for (RecordedSub& sub : recorded_subs_) {
    if (sub.sub_id != 0 || !sub.retry) continue;
    if (!connected()) return;
    ++resume_stats_.resubscribe_retries;
    auto ack = do_subscribe(sub.spec);
    if (ack) {
      sub.sub_id = ack->subscription_id;
      sub.retry = false;
      reindex_recorded();
    } else if (!is_transport_death(ack.status())) {
      sub.retry = worth_retrying(ack.status());
    }
    // One Subscribe per pass: a daemon that keeps refusing costs one
    // round trip per sweep. A dead wire is the reconnect's to heal.
    return;
  }
}

bool Client::pump_once() {
  retry_refused();
  // Frames already reassembled but not yet handed out (e.g. a Goodbye
  // that rode in the same receive as an Error reply) are drained even
  // when the transport is dead — a buffered farewell must not be lost.
  bool progressed = false;
  while (const FrameView view = reader_.next_view()) {
    stash_frame(view);
    progressed = true;
  }
  auto got = receive_some();
  if (!got || !*got) return progressed;
  // Drain any complete frames into the stash so samples never pile up
  // unobserved inside the reader. Other frame types arriving outside an
  // rpc() are stale replies (e.g. a CloseAck racing a drop) —
  // stash_frame drops them.
  while (const FrameView view = reader_.next_view()) stash_frame(view);
  return true;
}

Expected<FrameView> Client::rpc(MsgType expect,
                                const std::vector<std::uint8_t>& frame_bytes) {
  if (Status s = send_all(frame_bytes); !s.is_ok()) return s;
  // The request is fully on the wire for THIS connection; if a resume
  // swaps the connection while we wait, the reply died with it.
  const std::uint64_t gen = generation_;
  int idle_passes = 0;
  const int idle_limit =
      reconnect_enabled_ ? reconnect_config_.rpc_deadline_pumps : 0;
  while (true) {
    // Pop buffered frames first — bytes from a previous receive may
    // already hold the reply.
    if (const FrameView view = reader_.next_view()) {
      idle_passes = 0;
      if (view.type == MsgType::kSample || view.type == MsgType::kPing) {
        stash_frame(view);
        continue;
      }
      if (view.type == expect) return view;
      if (view.type == MsgType::kError) {
        auto err = decode_payload<WireError>(view.bytes());
        if (!err) return err.status();
        return err->to_status();
      }
      if (view.type == MsgType::kGoodbye) {
        auto bye = decode_payload<Goodbye>(view.bytes());
        goodbye_reason_ = bye ? bye->reason : "goodbye";
        return Status(StatusCode::kNotRunning,
                      "daemon said goodbye: " + goodbye_reason_);
      }
      // Unexpected interleaved reply — protocol confusion.
      return Status(StatusCode::kBug,
                    "unexpected frame " + std::string(to_string(view.type)) +
                        " while waiting for " + std::string(to_string(expect)));
    }
    if (reader_.corrupt()) {
      return make_error(StatusCode::kInvalidArgument, "corrupt frame stream");
    }
    auto got = receive_some();
    if (!got) return got.status();
    if (generation_ != gen) return reconnected_midway();
    // got == false just means no bytes this pass; on the loopback
    // transport the pump already ran inside receive(), so loop again —
    // bounded by the rpc deadline when reconnect is armed, so a
    // dead-silent daemon cannot hang the handshake forever.
    if (!*got && idle_limit > 0 && ++idle_passes >= idle_limit) {
      return Status(StatusCode::kInterrupted,
                    "no reply within the rpc deadline");
    }
    if (*got) idle_passes = 0;
  }
}

template <typename Reply, typename Request>
Expected<Reply> Client::call(const Request& request) {
  auto reply = rpc(Reply::kType, encode_frame(request));
  if (!reply) return reply.status();
  return decode_payload<Reply>(reply->bytes());
}

Status Client::hello(const std::string& client_name) {
  client_name_ = client_name;
  auto ack = call<HelloAck>(Hello{kProtocolVersion, client_name});
  if (!ack) return ack.status();
  if (ack->version != kProtocolVersion)
    return Status(StatusCode::kNotSupported,
                  "server speaks protocol v" + std::to_string(ack->version));
  epoch_ = ack->epoch;
  return Status::ok();
}

Status Client::try_reconnect(const Status& cause) {
  if (!reconnect_enabled_ || reconnecting_) return cause;
  reconnecting_ = true;
  Status last = cause;
  std::uint64_t delay_ms = reconnect_config_.initial_backoff_ms;
  for (int attempt = 1; attempt <= reconnect_config_.max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic jitter: the factor is drawn from the seeded
      // stream whether or not a sleep hook is installed, so the
      // attempt trace is identical across environments.
      const double jf = reconnect_config_.jitter_frac;
      const double factor = 1.0 - jf + 2.0 * jf * backoff_rng_.uniform();
      const auto jittered = static_cast<std::uint64_t>(
          static_cast<double>(delay_ms) * factor);
      if (reconnect_config_.sleep_ms) reconnect_config_.sleep_ms(jittered);
      delay_ms = std::min(delay_ms * 2, reconnect_config_.max_backoff_ms);
    }
    ++resume_stats_.attempts;
    auto dialed = factory_();
    if (!dialed) {
      last = dialed.status();
      continue;
    }
    conn_ = std::move(*dialed);
    reader_ = FrameReader();  // old half-frames died with the old wire
    goodbye_reason_.clear();
    ++generation_;
    const std::uint64_t prev_epoch = epoch_;
    if (Status h = hello(client_name_); !h.is_ok()) {
      last = h;
      if (conn_) conn_->close();
      continue;
    }
    const bool epoch_changed = prev_epoch != 0 && epoch_ != prev_epoch;
    if (epoch_changed) ++resume_stats_.epoch_changes;
    // Tick-based gap math needs proof it's the same daemon process; a
    // daemon advertising epoch 0 can't give it, so its gaps are unknown.
    const bool gap_quantifiable = !epoch_changed && prev_epoch != 0;
    bool wire_died = false;
    // Every old subscription id died with the old connection; the
    // replay below registers the new ones.
    live_subs_.clear();
    for (RecordedSub& sub : recorded_subs_) {
      // The gap is accounted at the first sample on the new id, whether
      // this resubscribe or a later retry gets it.
      sub.last_seq = 0;
      sub.check_gap = sub.saw_sample;
      sub.gap_unknown = sub.check_gap && !gap_quantifiable;
      auto ack = do_subscribe(sub.spec);
      if (ack) {
        sub.sub_id = ack->subscription_id;
        sub.retry = false;
        continue;
      }
      if (is_transport_death(ack.status())) {
        last = ack.status();
        wire_died = true;
        break;
      }
      // The daemon refused this one, but the session resumed: the
      // subscription stays recorded and pump_once asks again, unless
      // the refusal says the spec itself cannot be served.
      sub.sub_id = 0;
      sub.retry = worth_retrying(ack.status());
      ++resume_stats_.resubscribe_failures;
    }
    if (wire_died) {
      if (conn_) conn_->close();
      continue;
    }
    reindex_recorded();
    ++resume_stats_.reconnects;
    reconnecting_ = false;
    return Status::ok();
  }
  reconnecting_ = false;
  return Status(last.code(),
                "reconnect exhausted after " +
                    std::to_string(reconnect_config_.max_attempts) +
                    " attempts: " + last.to_string());
}

Expected<std::uint32_t> Client::open_session(TargetKind kind,
                                             std::int64_t target) {
  auto ack = call<OpenSessionAck>(OpenSession{kind, target});
  if (!ack) return ack.status();
  return ack->session_id;
}

Expected<AddEventsAck> Client::add_events(
    std::uint32_t session_id, const std::vector<std::string>& events) {
  return call<AddEventsAck>(AddEvents{session_id, events});
}

Status Client::start(std::uint32_t session_id) {
  return call<StartAck>(Start{session_id}).status();
}

Expected<ReadReply> Client::read(std::uint32_t session_id) {
  return call<ReadReply>(Read{session_id});
}

Expected<SubscribeAck> Client::do_subscribe(const Subscribe& spec) {
  auto ack = call<SubscribeAck>(spec);
  if (!ack) return ack;
  LiveSub& live = live_subs_[ack->subscription_id];
  live.part_counts.clear();
  for (const std::vector<std::string>& names : ack->part_names) {
    live.part_counts.push_back(static_cast<std::uint32_t>(names.size()));
  }
  return ack;
}

Expected<SubscribeAck> Client::subscribe(const Subscribe& spec) {
  auto ack = do_subscribe(spec);
  if (ack && reconnect_enabled_) {
    RecordedSub sub;
    sub.spec = spec;
    record(std::move(sub), ack->subscription_id, spec.period_ticks);
  }
  return ack;
}

Status Client::unsubscribe(std::uint32_t subscription_id) {
  if (Status s = call<UnsubscribeAck>(Unsubscribe{subscription_id}).status();
      !s.is_ok()) {
    return s;
  }
  live_subs_.erase(subscription_id);
  std::erase_if(recorded_subs_, [&](const RecordedSub& sub) {
    return sub.sub_id == subscription_id;
  });
  reindex_recorded();
  return Status::ok();
}

Expected<StatsReply> Client::stats() { return call<StatsReply>(GetStats{}); }

Status Client::close() {
  // Intentional teardown: a connection we close on purpose must not be
  // healed behind the caller's back.
  reconnect_enabled_ = false;
  if (!connected()) return Status::ok();
  const Status acked = call<CloseAck>(Close{}).status();
  conn_->close();
  return acked;
}

std::vector<WireSample> Client::take_samples() {
  if (connected() || reconnect_enabled_) pump_once();
  if (stashed_ == 0) return {};
  // Hand the stash over and reserve a new one of the same size for the
  // next decodes: the call's one allocation.
  samples_.resize(stashed_);
  std::vector<WireSample> out = std::exchange(samples_, {});
  samples_.reserve(stashed_);
  stashed_ = 0;
  return out;
}

void Client::take_samples_into(std::vector<WireSample>& out) {
  // Sweep the transport once so freshly flushed samples are included.
  if (connected() || reconnect_enabled_) pump_once();
  samples_.resize(stashed_);
  out.swap(samples_);
  stashed_ = 0;
}

}  // namespace hetpapi::service
