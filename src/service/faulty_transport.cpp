#include "service/faulty_transport.hpp"

#include <utility>

namespace hetpapi::service {

namespace {

Status link_severed() {
  return Status(StatusCode::kNotRunning, "link severed (injected fault)");
}

}  // namespace

// --- profiles --------------------------------------------------------------

Expected<TransportFaultProfile> TransportFaultProfile::named(
    std::string_view name) {
  TransportFaultProfile p;
  p.name = std::string(name);
  if (name == "none") return p;
  if (name == "short-write") {
    p.short_write_prob = 0.35;
    p.zero_write_prob = 0.10;
    return p;
  }
  if (name == "eagain-burst") {
    p.recv_eagain_prob = 0.20;
    p.eagain_burst = 3;
    return p;
  }
  if (name == "mid-frame-disconnect") {
    p.disconnect_prob = 0.02;
    p.short_write_prob = 0.25;  // frames split, then the link dies mid-split
    return p;
  }
  if (name == "half-close") {
    p.half_close_prob = 0.02;
    return p;
  }
  if (name == "stall") {
    p.send_stall_prob = 0.05;
    p.recv_stall_prob = 0.05;
    p.stall_ops = 4;
    return p;
  }
  if (name == "accept-flaky") {
    p.accept_fail_prob = 0.5;
    return p;
  }
  if (name == "trickle") {
    // Every write is maximally short and receives hiccup: the hardest
    // legal wire for frame reassembly, with no permanent failures.
    p.short_write_prob = 1.0;
    p.recv_eagain_prob = 0.15;
    p.eagain_burst = 2;
    return p;
  }
  if (name == "mixed") {
    p.short_write_prob = 0.20;
    p.zero_write_prob = 0.05;
    p.recv_eagain_prob = 0.10;
    p.eagain_burst = 2;
    p.disconnect_prob = 0.005;
    p.half_close_prob = 0.003;
    p.send_stall_prob = 0.02;
    p.recv_stall_prob = 0.02;
    p.stall_ops = 3;
    p.accept_fail_prob = 0.25;
    return p;
  }
  return make_error(StatusCode::kInvalidArgument,
                    "unknown transport fault profile: " + std::string(name));
}

std::vector<std::string> TransportFaultProfile::profile_names() {
  return {"none",       "short-write", "eagain-burst",
          "mid-frame-disconnect",      "half-close",
          "stall",      "accept-flaky", "trickle", "mixed"};
}

// --- wrapped endpoint ------------------------------------------------------

Expected<std::size_t> FaultyTransport::FaultyConnection::send(
    const std::uint8_t* data, std::size_t size) {
  LinkCtl& ctl = *ctl_;
  if (!ctl.stats.open || ctl.severed) return link_severed();
  if (ctl.half_closed) {
    return Status(StatusCode::kNotRunning,
                  "send direction half-closed (injected fault)");
  }
  if (ctl.send_stall_remaining > 0) {
    --ctl.send_stall_remaining;
    ++ctl.stats.stall_ops_served;
    return std::size_t{0};
  }
  if (profile_.disconnect_prob > 0.0 &&
      ctl.rng.uniform() < profile_.disconnect_prob) {
    ctl.severed = true;
    ++ctl.stats.severs;
    inner_->close();
    return link_severed();
  }
  if (profile_.half_close_prob > 0.0 &&
      ctl.rng.uniform() < profile_.half_close_prob) {
    ctl.half_closed = true;
    ++ctl.stats.half_closes;
    return Status(StatusCode::kNotRunning,
                  "send direction half-closed (injected fault)");
  }
  if (profile_.send_stall_prob > 0.0 &&
      ctl.rng.uniform() < profile_.send_stall_prob) {
    ctl.send_stall_remaining = profile_.stall_ops;
    ++ctl.stats.stall_ops_served;
    return std::size_t{0};
  }
  if (profile_.zero_write_prob > 0.0 &&
      ctl.rng.uniform() < profile_.zero_write_prob) {
    ++ctl.stats.zero_writes;
    return std::size_t{0};
  }
  std::size_t forward = size;
  if (size > 1 && profile_.short_write_prob > 0.0 &&
      ctl.rng.uniform() < profile_.short_write_prob) {
    forward = 1 + static_cast<std::size_t>(ctl.rng.below(size - 1));
    ++ctl.stats.short_writes;
  }
  auto n = inner_->send(data, forward);
  if (!n) return n.status();
  ++ctl.stats.sends;
  ctl.stats.bytes_sent += *n;
  return n;
}

Expected<std::size_t> FaultyTransport::FaultyConnection::receive(
    std::vector<std::uint8_t>& out) {
  LinkCtl& ctl = *ctl_;
  if (!ctl.stats.open || ctl.severed) return link_severed();
  if (ctl.recv_stall_remaining > 0) {
    --ctl.recv_stall_remaining;
    ++ctl.stats.stall_ops_served;
    return std::size_t{0};
  }
  if (profile_.disconnect_prob > 0.0 &&
      ctl.rng.uniform() < profile_.disconnect_prob) {
    ctl.severed = true;
    ++ctl.stats.severs;
    inner_->close();
    return link_severed();
  }
  if (profile_.recv_stall_prob > 0.0 &&
      ctl.rng.uniform() < profile_.recv_stall_prob) {
    ctl.recv_stall_remaining = profile_.stall_ops;
    ++ctl.stats.stall_ops_served;
    return std::size_t{0};
  }
  if (profile_.recv_eagain_prob > 0.0 &&
      ctl.rng.uniform() < profile_.recv_eagain_prob) {
    ctl.recv_stall_remaining =
        profile_.eagain_burst > 1 ? profile_.eagain_burst - 1 : 0;
    ++ctl.stats.recv_eagains;
    return std::size_t{0};
  }
  auto n = inner_->receive(out);
  if (!n) return n.status();
  ++ctl.stats.receives;
  ctl.stats.bytes_received += *n;
  return n;
}

void FaultyTransport::FaultyConnection::close() {
  if (!ctl_->stats.open) return;
  ctl_->stats.open = false;
  ctl_->inner_raw = nullptr;
  inner_->close();
}

// --- wrapped listener ------------------------------------------------------

Expected<std::unique_ptr<Connection>> FaultyTransport::FaultyListener::accept() {
  if (!delayed_.empty()) {
    auto conn = std::move(delayed_.front());
    delayed_.pop_front();
    return transport_->wrap(std::move(conn));
  }
  auto conn = inner_->accept();
  if (!conn) return conn.status();
  if (transport_->profile_.accept_fail_prob > 0.0 &&
      transport_->accept_rng_.uniform() <
          transport_->profile_.accept_fail_prob) {
    // Defer, don't drop: the connection is handed out next poll with no
    // second roll, so a flaky accept path delays admission but never
    // loses a dial.
    delayed_.push_back(std::move(*conn));
    ++transport_->accept_deferrals_;
    return Status(StatusCode::kNotFound);  // as an empty accept reads
  }
  return transport_->wrap(std::move(*conn));
}

// --- transport -------------------------------------------------------------

std::shared_ptr<FaultyTransport::LinkCtl> FaultyTransport::new_link() {
  // Per-link stream keyed on (seed, index): a link's fault schedule
  // depends only on its own op sequence, not on sibling traffic.
  const std::uint64_t link_seed =
      seed_ + 0x9e3779b97f4a7c15ULL * (links_.size() + 1);
  auto ctl = std::make_shared<LinkCtl>(link_seed);
  links_.push_back(ctl);
  return ctl;
}

std::unique_ptr<Connection> FaultyTransport::wrap(
    std::unique_ptr<Connection> inner) {
  return std::make_unique<FaultyConnection>(profile_, new_link(),
                                            std::move(inner));
}

Listener* FaultyTransport::wrap_listener(Listener* inner) {
  if (!accept_rng_seeded_) {
    accept_rng_ = Rng(seed_ ^ 0xa5a5a5a5a5a5a5a5ULL);
    accept_rng_seeded_ = true;
  }
  listeners_.push_back(std::make_unique<FaultyListener>(this, inner));
  return listeners_.back().get();
}

void FaultyTransport::sever(std::size_t index) {
  if (index >= links_.size()) return;
  LinkCtl& ctl = *links_[index];
  if (ctl.severed) return;
  ctl.severed = true;
  ++ctl.stats.severs;
  if (ctl.inner_raw != nullptr) ctl.inner_raw->close();
}

void FaultyTransport::sever_all() {
  for (std::size_t i = 0; i < links_.size(); ++i) sever(i);
}

std::size_t FaultyTransport::open_connection_count() const {
  std::size_t open = 0;
  for (const auto& link : links_) {
    if (link->stats.open) ++open;
  }
  return open;
}

std::uint64_t FaultyTransport::total_injected() const {
  std::uint64_t total = accept_deferrals_;
  for (const auto& link : links_) total += link->stats.total_injected();
  return total;
}

}  // namespace hetpapi::service
