#include "service/daemon.hpp"

#include <cmath>
#include <span>

#include "base/strings.hpp"

namespace hetpapi::service {

// --- outbound buffer -------------------------------------------------------

std::size_t Daemon::OutBuffer::append(const std::uint8_t* frame,
                                      std::size_t size) {
  const std::size_t at = bytes.size();
  bytes.insert(bytes.end(), frame, frame + size);
  frame_ends.push_back(at + size);
  return at;
}

void Daemon::OutBuffer::consume(std::size_t n) {
  sent += n;
  while (ends_sent < frame_ends.size() && frame_ends[ends_sent] <= sent) {
    ++ends_sent;
  }
  // Compact lazily, the way FrameReader does: a drained buffer rewinds
  // (keeping its capacity), and a slow peer's unsent tail shifts down
  // once 4 KiB have gone, so the buffer never holds what was sent.
  if (sent == bytes.size() || sent > 4096) {
    const auto flushed_frames = static_cast<std::ptrdiff_t>(ends_sent);
    bytes.erase(bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(sent));
    frame_ends.erase(frame_ends.begin(), frame_ends.begin() + flushed_frames);
    for (std::size_t& end : frame_ends) end -= sent;
    sent = 0;
    ends_sent = 0;
  }
}

Daemon::Daemon(simkernel::SimKernel* kernel, papi::Backend* backend,
               DaemonConfig config)
    : kernel_(kernel), backend_(backend), config_(std::move(config)) {}

Daemon::~Daemon() { shutdown(); }

Status Daemon::init() {
  auto lib = papi::Library::init(backend_, config_.library);
  if (!lib) return lib.status();
  library_ = std::move(*lib);
  return Status::ok();
}

void Daemon::add_listener(Listener* listener) {
  listeners_.push_back(listener);
}

Expected<std::string> Daemon::coalescing_key(
    TargetKind kind, std::int64_t target, std::uint32_t period_ticks,
    bool qualified, const std::vector<std::string>& events) const {
  std::string key = str_format("k%d|t%lld|p%u|q%d|", static_cast<int>(kind),
                               static_cast<long long>(target), period_ticks,
                               qualified ? 1 : 0);
  for (const std::string& event : events) {
    auto name = library_->canonical_event_name(event);
    if (!name) return name.status();
    key += *name;
    key += '\x1f';
  }
  return key;
}

std::size_t Daemon::session_count() const {
  std::size_t n = 0;
  for (const auto& client : clients_) n += client->sessions.size();
  return n;
}

std::size_t Daemon::total_subscriber_count() const {
  std::size_t n = 0;
  for (const auto& [key_id, sub] : shared_subs_) n += sub.subscribers.size();
  return n;
}

// --- wire plumbing ---------------------------------------------------------

template <typename M>
void Daemon::send_now(Connection& conn, const M& msg) {
  const std::vector<std::uint8_t> frame = encode_frame(msg);
  (void)conn.send(frame.data(), frame.size());
  ++stats_.frames_sent;
}

template <typename M>
void Daemon::enqueue(ClientState& client, const M& msg) {
  const std::vector<std::uint8_t> frame = encode_frame(msg);
  client.out.append(frame.data(), frame.size());
  ++stats_.frames_sent;
}

void Daemon::enqueue_error(ClientState& client, MsgType in_reply_to,
                           const Status& s) {
  enqueue(client, WireError{static_cast<std::int32_t>(s.code()),
                            static_cast<std::uint8_t>(in_reply_to),
                            s.message()});
}

void Daemon::accept_pending() {
  for (Listener* listener : listeners_) {
    for (;;) {
      auto conn = listener->accept();
      if (!conn) break;
      if (config_.max_clients > 0 && clients_.size() >= config_.max_clients) {
        // Admission control: refuse at the door. The peer gets an
        // explicit kOverloaded plus a Goodbye (best effort — it may be
        // gone already) and no ClientState is ever created, so a
        // connection storm cannot grow daemon memory.
        ++stats_.overload_rejections;
        send_now(**conn,
                 WireError{static_cast<std::int32_t>(StatusCode::kOverloaded),
                           static_cast<std::uint8_t>(MsgType::kHello),
                           "daemon at max_clients"});
        send_now(**conn, Goodbye{"refused: overloaded"});
        (*conn)->close();
        continue;
      }
      auto client = std::make_unique<ClientState>();
      client->id = next_client_id_++;
      client->conn = std::move(*conn);
      client->last_activity_tick = stats_.ticks;
      clients_.push_back(std::move(client));
    }
  }
}

void Daemon::flush_client(ClientState& client, std::size_t max_ops) {
  if (!client.conn->is_open()) {
    client.out = OutBuffer{};
    return;
  }
  std::size_t ops = 0;
  while (client.out.pending() > 0) {
    if (max_ops > 0 && ops >= max_ops) return;  // deadline; caller moves on
    auto sent = client.conn->send(client.out.bytes.data() + client.out.sent,
                                  client.out.pending());
    if (!sent) {  // peer gone
      teardown_client(client);
      client.conn->close();
      return;
    }
    if (*sent == 0) return;  // would block; retry next poll/tick
    ++ops;
    client.out.consume(*sent);
  }
  if (client.closing) client.conn->close();
}

void Daemon::enforce_queue_cap(ClientState& client) {
  if (client.closing ||
      client.out.frames() <= config_.max_client_queue_frames) {
    return;
  }
  // Slow-client drop: releasing its subscriptions keeps one wedged
  // consumer from growing daemon memory without bound or stalling the
  // shared tick. One best-effort Goodbye, then the connection dies.
  ++stats_.clients_dropped_slow;
  teardown_client(client);
  client.out = OutBuffer{};
  send_now(*client.conn, Goodbye{"dropped: send queue overflow (slow client)"});
  client.conn->close();
}

void Daemon::reap_closed() {
  std::erase_if(clients_, [&](const std::unique_ptr<ClientState>& client) {
    if (client->conn->is_open()) return false;
    teardown_client(*client);
    return true;
  });
}

void Daemon::drain_client(ClientState& client) {
  bool received = false;
  for (;;) {
    auto n = client.conn->receive(client.reader.input());
    if (!n) {  // peer closed or transport error
      teardown_client(client);
      client.conn->close();
      return;
    }
    if (*n == 0) break;
    received = true;
  }
  if (received) {
    client.last_activity_tick = stats_.ticks;
    // Inbound traffic is proof of life: cancel any outstanding ping.
    client.ping_outstanding = false;
    client.pings_missed = 0;
  }
  // A refused handshake or a Close ends the conversation: nothing after
  // it is served.
  while (client.conn->is_open() && !client.closing) {
    const FrameView frame = client.reader.next_view();
    if (!frame) {
      if (client.reader.corrupt()) {
        ++stats_.protocol_errors;
        teardown_client(client);
        client.conn->close();
      }
      return;
    }
    dispatch(client, frame);
  }
}

template <typename M>
void Daemon::serve(ClientState& client, const FrameView& frame,
                   void (Daemon::*handler)(ClientState&, const M&)) {
  auto msg = decode_payload<M>(frame.bytes());
  if (!msg) {
    ++stats_.protocol_errors;
    enqueue_error(client, M::kType, msg.status());
    // A malformed handshake ends the conversation.
    if (M::kType == MsgType::kHello) client.closing = true;
    return;
  }
  (this->*handler)(client, *msg);
}

void Daemon::dispatch(ClientState& client, const FrameView& frame) {
  ++stats_.frames_received;
  if (!client.hello_done && frame.type != MsgType::kHello) {
    ++stats_.protocol_errors;
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kPermission,
                             "handshake required before " +
                                 std::string(to_string(frame.type))));
    client.closing = true;
    return;
  }
  switch (frame.type) {
    case MsgType::kHello:
      return serve(client, frame, &Daemon::on_hello);
    case MsgType::kOpenSession:
      return serve(client, frame, &Daemon::on_open_session);
    case MsgType::kAddEvents:
      return serve(client, frame, &Daemon::on_add_events);
    case MsgType::kStart:
      return serve(client, frame, &Daemon::on_start);
    case MsgType::kRead:
      return serve(client, frame, &Daemon::on_read);
    case MsgType::kSubscribe:
      return serve(client, frame, &Daemon::on_subscribe);
    case MsgType::kUnsubscribe:
      return serve(client, frame, &Daemon::on_unsubscribe);
    case MsgType::kGetStats:
      return serve(client, frame, &Daemon::on_get_stats);
    case MsgType::kClose:
      return serve(client, frame, &Daemon::on_close);
    case MsgType::kPing:
      return serve(client, frame, &Daemon::on_ping);
    case MsgType::kPong:
      return serve(client, frame, &Daemon::on_pong);
    default:
      ++stats_.protocol_errors;
      enqueue_error(client, frame.type,
                    make_error(StatusCode::kNotSupported,
                               "unexpected message type"));
      return;
  }
}

// --- handlers --------------------------------------------------------------

Status Daemon::admit(const ClientState& client, std::uint32_t period_ticks,
                     const std::vector<std::string>& events) {
  if (period_ticks == 0 || events.empty()) {
    return make_error(StatusCode::kInvalidArgument,
                      "subscription needs events and period >= 1");
  }
  if (config_.max_subscriptions > 0 &&
      client.subscriptions.size() >= config_.max_subscriptions) {
    ++stats_.overload_rejections;
    return make_error(StatusCode::kOverloaded, "client at max_subscriptions");
  }
  return Status::ok();
}

void Daemon::on_hello(ClientState& client, const Hello& msg) {
  if (msg.version != kProtocolVersion) {
    ++stats_.protocol_errors;
    enqueue_error(client, Hello::kType,
                  make_error(StatusCode::kNotSupported,
                             str_format("protocol version %u not supported; "
                                        "this daemon speaks only version %u",
                                        msg.version, kProtocolVersion)));
    client.closing = true;
    return;
  }
  client.hello_done = true;
  enqueue(client, HelloAck{kProtocolVersion, client.id, config_.name,
                           config_.epoch});
}

Expected<int> Daemon::build_eventset(TargetKind kind, std::int64_t target,
                                     const std::vector<std::string>& events) {
  auto set = library_->create_eventset();
  if (!set) return set.status();
  const auto fail = [&](const Status& s) -> Expected<int> {
    (void)library_->destroy_eventset(*set);
    return s;
  };
  switch (kind) {
    case TargetKind::kDefault: break;
    case TargetKind::kThread: {
      const Status s =
          library_->attach(*set, static_cast<simkernel::Tid>(target));
      if (!s.is_ok()) return fail(s);
      break;
    }
    case TargetKind::kCpu: {
      const Status s = library_->attach_cpu(*set, static_cast<int>(target));
      if (!s.is_ok()) return fail(s);
      break;
    }
  }
  for (const std::string& event : events) {
    const Status added = library_->add_event(*set, event);
    if (!added.is_ok()) return fail(added);
  }
  return *set;
}

void Daemon::on_open_session(ClientState& client, const OpenSession& msg) {
  auto set = build_eventset(msg.target_kind, msg.target, {});
  if (!set) {
    enqueue_error(client, OpenSession::kType, set.status());
    return;
  }
  const std::uint32_t session_id = next_session_id_++;
  client.sessions.emplace(session_id, *set);
  enqueue(client, OpenSessionAck{session_id});
}

void Daemon::on_add_events(ClientState& client, const AddEvents& msg) {
  const auto it = client.sessions.find(msg.session_id);
  if (it == client.sessions.end()) {
    enqueue_error(client, AddEvents::kType,
                  make_error(StatusCode::kNoEventSet, "no such session"));
    return;
  }
  const int eventset = it->second;
  // Atomic add: either every event in the request lands or none does.
  AddEventsAck ack;
  std::size_t added = 0;
  Status failure = Status::ok();
  for (const std::string& event : msg.events) {
    auto canonical = library_->canonical_event_name(event);
    if (canonical) {
      const Status s = library_->add_event(eventset, event);
      if (s.is_ok()) {
        ack.canonical_names.push_back(std::move(*canonical));
        ++added;
        continue;
      }
      failure = s;
    } else {
      failure = canonical.status();
    }
    for (std::size_t i = added; i-- > 0;) {
      (void)library_->remove_event(eventset, msg.events[i]);
    }
    enqueue_error(client, AddEvents::kType, failure);
    return;
  }
  enqueue(client, ack);
}

void Daemon::on_start(ClientState& client, const Start& msg) {
  const auto it = client.sessions.find(msg.session_id);
  if (it == client.sessions.end()) {
    enqueue_error(client, Start::kType,
                  make_error(StatusCode::kNoEventSet, "no such session"));
    return;
  }
  const Status s = library_->start(it->second);
  if (!s.is_ok()) {
    enqueue_error(client, Start::kType, s);
    return;
  }
  enqueue(client, StartAck{});
}

void Daemon::on_read(ClientState& client, const Read& msg) {
  const auto it = client.sessions.find(msg.session_id);
  if (it == client.sessions.end()) {
    enqueue_error(client, Read::kType,
                  make_error(StatusCode::kNoEventSet, "no such session"));
    return;
  }
  auto reading = library_->read_checked(it->second);
  if (!reading) {
    enqueue_error(client, Read::kType, reading.status());
    return;
  }
  ++stats_.backend_reads;
  enqueue(client, ReadReply{std::move(reading->values),
                            std::move(reading->value_degraded)});
}

void Daemon::on_subscribe(ClientState& client, const Subscribe& msg) {
  if (const Status s = admit(client, msg.period_ticks, msg.events);
      !s.is_ok()) {
    enqueue_error(client, Subscribe::kType, s);
    return;
  }
  const std::uint32_t sub_id = next_subscription_id_++;
  auto sub = join_subscription(client, sub_id, msg);
  if (!sub) {
    enqueue_error(client, Subscribe::kType, sub.status());
    return;
  }
  client.subscriptions.emplace(sub_id, (*sub)->key_id);
  SubscribeAck& ack = (*sub)->ack;
  ack.subscription_id = sub_id;
  enqueue(client, ack);
}

std::vector<std::vector<std::string>> Daemon::part_names_of(
    int eventset) const {
  auto info = library_->eventset_info(eventset);
  if (!info) return {};
  std::vector<std::vector<std::string>> names(info->size());
  // The same labels a qualified read derives per part: the native name,
  // suffixed with the core type of its PMU (the canonical name's prefix
  // before "::") when that PMU has one.
  const auto label = [&](const std::string& native) {
    const std::string_view pmu =
        std::string_view(native).substr(0, native.find("::"));
    const std::string core = library_->core_type_for_pmu(pmu);
    return core.empty() ? native : native + "[" + core + "]";
  };
  for (std::size_t i = 0; i < info->size(); ++i) {
    const papi::EventInfo& event = (*info)[i];
    for (const std::string& native : event.native_names) {
      names[i].push_back(label(native));
    }
    for (const std::string& native : event.missing_names) {
      names[i].push_back(label(native));
    }
  }
  return names;
}

Expected<Daemon::SharedSubscription*> Daemon::join_subscription(
    ClientState& client, std::uint32_t subscription_id, const Subscribe& spec) {
  auto named = coalescing_key(spec.target_kind, spec.target, spec.period_ticks,
                              spec.qualified != 0, spec.events);
  if (!named) return named.status();
  const std::string& key = *named;
  if (const auto it = key_ids_.find(key); it != key_ids_.end()) {
    SharedSubscription& sub = shared_subs_[it->second];
    sub.subscribers.push_back({&client, subscription_id});
    return &sub;
  }
  auto set = build_eventset(spec.target_kind, spec.target, spec.events);
  if (!set) return set.status();
  if (const Status s = library_->start(*set); !s.is_ok()) {
    (void)library_->destroy_eventset(*set);
    return s;
  }
  SharedSubscription sub;
  sub.key_id = next_key_id_++;
  sub.key = key;
  sub.eventset = *set;
  sub.period_ticks = spec.period_ticks;
  sub.qualified = spec.qualified != 0;
  sub.ack.shared_key_id = sub.key_id;
  // Plain slots carry no parts: one empty list each.
  sub.ack.part_names = sub.qualified
                           ? part_names_of(*set)
                           : std::vector<std::vector<std::string>>(
                                 spec.events.size());
  sub.subscribers.push_back({&client, subscription_id});
  key_ids_.emplace(key, sub.key_id);
  const std::uint32_t key_id = sub.key_id;
  return &shared_subs_.emplace(key_id, std::move(sub)).first->second;
}

void Daemon::leave_subscription(const ClientState& client, std::uint32_t sub_id,
                                std::uint32_t key_id) {
  const auto it = shared_subs_.find(key_id);
  if (it == shared_subs_.end()) return;
  SharedSubscription& sub = it->second;
  std::erase_if(sub.subscribers, [&](const Rider& rider) {
    return rider.client == &client && rider.subscription_id == sub_id;
  });
  if (!sub.subscribers.empty()) return;
  // Last rider gone: tear the shared EventSet down. Force-destroy so a
  // backend fault during stop can never pin the set's fds.
  (void)library_->force_destroy_eventset(sub.eventset);
  key_ids_.erase(sub.key);
  shared_subs_.erase(it);
}

void Daemon::on_unsubscribe(ClientState& client, const Unsubscribe& msg) {
  if (const auto it = client.subscriptions.find(msg.subscription_id);
      it != client.subscriptions.end()) {
    leave_subscription(client, it->first, it->second);
    client.subscriptions.erase(it);
    enqueue(client, UnsubscribeAck{});
    return;
  }
  enqueue_error(client, Unsubscribe::kType,
                make_error(StatusCode::kNotFound, "no such subscription"));
}

void Daemon::on_get_stats(ClientState& client, const GetStats&) {
  StatsReply reply;
  reply.ticks = stats_.ticks;
  reply.backend_reads = stats_.backend_reads;
  reply.samples_delivered = stats_.samples_delivered;
  reply.frames_received = stats_.frames_received;
  reply.frames_sent = stats_.frames_sent;
  reply.active_clients = static_cast<std::uint32_t>(clients_.size());
  reply.active_sessions = static_cast<std::uint32_t>(session_count());
  reply.distinct_subscriptions =
      static_cast<std::uint32_t>(shared_subs_.size());
  reply.total_subscribers =
      static_cast<std::uint32_t>(total_subscriber_count());
  reply.clients_dropped_slow = stats_.clients_dropped_slow;
  reply.clients_closed_idle = stats_.clients_closed_idle;
  enqueue(client, reply);
}

void Daemon::on_close(ClientState& client, const Close&) {
  teardown_client(client);
  enqueue(client, CloseAck{});
  client.closing = true;
}

void Daemon::on_ping(ClientState& client, const Ping& ping) {
  enqueue(client, Pong{ping.token});  // the client's probe: echo it
}

// An answer to our own probe: drain_client already reset the miss
// counters on its arrival.
void Daemon::on_pong(ClientState&, const Pong&) {}

void Daemon::teardown_client(ClientState& client) {
  for (const auto& [sub_id, key_id] : client.subscriptions) {
    leave_subscription(client, sub_id, key_id);
  }
  client.subscriptions.clear();
  for (const auto& [session_id, eventset] : client.sessions) {
    (void)library_->force_destroy_eventset(eventset);
  }
  client.sessions.clear();
}

// --- the two drive shafts --------------------------------------------------

void Daemon::poll() {
  if (library_ == nullptr || shut_down_) return;
  accept_pending();
  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    drain_client(*client);
  }
  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    enforce_queue_cap(*client);
    flush_client(*client);
  }
  reap_closed();
}

void Daemon::deliver(std::vector<Rider>& riders,
                     const std::vector<std::uint8_t>& frame) {
  for (Rider& rider : riders) {
    OutBuffer& out = rider.client->out;
    const std::size_t at = out.append(frame.data(), frame.size());
    stamp_stream_frame(out.bytes.data() + at, frame.size(),
                       rider.subscription_id, ++rider.seq);
  }
  stats_.samples_delivered += riders.size();
  stats_.frames_sent += riders.size();
}

void Daemon::read_into_sample(SharedSubscription& sub) {
  WireSample& sample = sub.sample;
  sample.counters_ok = 1;
  if (sub.qualified) {
    if (!library_->read_qualified_into(sub.eventset, sub.reading).is_ok()) {
      sample.counters_ok = 0;
      sample.values.clear();
      sample.degraded.clear();
      sample.parts.clear();
      return;
    }
    const std::size_t n = sub.reading.size();
    sample.values.resize(n);
    sample.degraded.resize(n);
    sample.parts.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const papi::QualifiedReading& slot = sub.reading[i];
      sample.values[i] = slot.total;
      sample.degraded[i] = slot.degraded ? 1 : 0;
      const std::span<long long> parts = sample.parts.add_slot(slot.parts.size());
      for (std::size_t p = 0; p < parts.size(); ++p) {
        parts[p] = slot.parts[p].valid ? slot.parts[p].value : 0;
      }
    }
    return;
  }
  sample.parts.clear();
  if (!library_->read_checked_into(sub.eventset, sub.checked).is_ok()) {
    sample.counters_ok = 0;
    sample.values.clear();
    sample.degraded.clear();
    return;
  }
  sample.values.assign(sub.checked.values.begin(), sub.checked.values.end());
  sample.degraded.assign(sub.checked.value_degraded.begin(),
                         sub.checked.value_degraded.end());
}

void Daemon::serve_subscriptions() {
  const double t_seconds =
      kernel_ != nullptr ? kernel_->now().seconds()
                         : static_cast<double>(stats_.ticks);
  // The coalescing payoff: ONE backend read per distinct subscription,
  // regardless of how many clients ride it, and ONE template frame per
  // read (the fan-out stamps each rider's id and sequence into its
  // copy). Subscriptions are visited in key_id order and each one is
  // delivered before the next is read, so every client's frames come
  // out in the global (key_id, subscribe order).
  for (auto& [key_id, sub] : shared_subs_) {
    if (stats_.ticks % sub.period_ticks != 0) continue;
    ++stats_.backend_reads;
    read_into_sample(sub);
    WireSample& sample = sub.sample;
    sample.tick = stats_.ticks;
    sample.t_seconds = t_seconds;
    // The wire still has room for package telemetry, which the daemon
    // does not attach.
    sample.package_temp_c = std::nan("");
    sample.package_power_w = std::nan("");
    sample.encode_frame_into(sub.frame);
    deliver(sub.subscribers, sub.frame);
  }
}

void Daemon::enforce_liveness() {
  if (config_.ping_interval_ticks == 0) return;
  for (const auto& client : clients_) {
    if (!client->conn->is_open() || client->closing || !client->hello_done) {
      continue;
    }
    if (client->ping_outstanding) {
      if (stats_.ticks - client->ping_sent_tick <
          config_.ping_interval_ticks) {
        continue;  // still inside this deadline
      }
      ++client->pings_missed;
      ++stats_.pings_missed;
      if (client->pings_missed >= config_.ping_max_missed) {
        // Active subscriptions do NOT save a dead peer — that is the
        // point: a half-open connection must not pin EventSets.
        ++stats_.clients_dropped_liveness;
        teardown_client(*client);
        enqueue(*client, Goodbye{"dropped: liveness timeout"});
        client->closing = true;
        continue;
      }
      enqueue(*client, Ping{stats_.ticks});
      client->ping_sent_tick = stats_.ticks;
    } else if (stats_.ticks - client->last_activity_tick >=
               config_.ping_interval_ticks) {
      enqueue(*client, Ping{stats_.ticks});
      client->ping_sent_tick = stats_.ticks;
      client->ping_outstanding = true;
    }
  }
}

void Daemon::tick() {
  if (library_ == nullptr || shut_down_) return;
  ++stats_.ticks;
  serve_subscriptions();
  enforce_liveness();

  if (config_.idle_timeout_ticks > 0) {
    for (const auto& client : clients_) {
      if (!client->conn->is_open() || client->closing) continue;
      if (!client->subscriptions.empty()) continue;
      if (stats_.ticks - client->last_activity_tick <
          config_.idle_timeout_ticks) {
        continue;
      }
      ++stats_.clients_closed_idle;
      teardown_client(*client);
      enqueue(*client, Goodbye{"disconnected: idle timeout"});
      client->closing = true;
    }
  }

  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    enforce_queue_cap(*client);
    flush_client(*client);
  }
  reap_closed();
}

void Daemon::shutdown() {
  if (shut_down_ || library_ == nullptr) {
    shut_down_ = true;
    return;
  }
  // Graceful drain: every surviving client gets a Goodbye and one flush
  // attempt; then all measurement state is released so the backend's fd
  // ledger reads zero.
  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    enqueue(*client, Goodbye{"daemon shutting down"});
    client->closing = true;
    flush_client(*client, config_.shutdown_max_flush_ops);
    teardown_client(*client);
    client->conn->close();
  }
  clients_.clear();
  // Shared subscriptions whose owners vanished without teardown.
  for (auto& [key_id, sub] : shared_subs_) {
    (void)library_->force_destroy_eventset(sub.eventset);
  }
  shared_subs_.clear();
  key_ids_.clear();
  shut_down_ = true;
}

}  // namespace hetpapi::service
