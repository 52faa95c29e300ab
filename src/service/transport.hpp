// Pluggable byte-stream transport under the hetpapid wire protocol.
//
// A Connection is an ordered, unframed byte pipe — framing lives in
// proto::FrameReader on top, so both transports exercise the same
// length-prefix reassembly logic. Two implementations:
//
//  * LoopbackTransport — in-process, threadless, deterministic. Bytes
//    move through paired byte buffers; the client side can pump the daemon
//    (via a registered hook) while waiting for a reply, so synchronous
//    RPC works single-threaded. Delivery can be chunked to a fixed size
//    to exercise partial-frame reassembly, and a peer can be paused to
//    simulate a slow client (send() then reports would-block, letting
//    the daemon's backpressure machinery build a queue).
//
//  * UnixSocketTransport — AF_UNIX SOCK_STREAM for real multi-process
//    use, with EINTR-safe accept/read/write loops and nonblocking
//    server-side endpoints (the daemon must never block on one client).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/status.hpp"

namespace hetpapi::service {

class Connection {
 public:
  virtual ~Connection() = default;

  /// Queue up to `size` bytes for the peer; returns how many were
  /// accepted (0 = would block — retry after the peer drains). Partial
  /// writes are normal; callers must resubmit the tail.
  virtual Expected<std::size_t> send(const std::uint8_t* data,
                                     std::size_t size) = 0;

  /// Append whatever bytes are available onto `out`; returns the count
  /// (0 = nothing pending right now). A closed peer is an error
  /// (kNotRunning) once the in-flight bytes are drained.
  virtual Expected<std::size_t> receive(std::vector<std::uint8_t>& out) = 0;

  virtual void close() = 0;
  virtual bool is_open() const = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// The next pending connection, or a message-less kNotFound when none
  /// is waiting (never blocks — the daemon polls every tick, so an empty
  /// accept must not allocate).
  virtual Expected<std::unique_ptr<Connection>> accept() = 0;
};

// --- loopback --------------------------------------------------------------

class LoopbackTransport {
 public:
  struct Config {
    /// Deliver at most this many bytes per receive() call (0 = all
    /// available, swapped into an empty buffer rather than copied) —
    /// forces the frame reader to reassemble split frames.
    std::size_t max_chunk_bytes = 0;
    /// Cap on bytes a peer may buffer before send() reports would-block
    /// (0 = unlimited). Models a socket send buffer.
    std::size_t pipe_capacity_bytes = 0;
  };

  LoopbackTransport() = default;
  explicit LoopbackTransport(Config config) : config_(config) {}

  /// Client side: open a connection whose peer shows up at the
  /// listener. Returns the client endpoint.
  std::unique_ptr<Connection> connect();

  /// Server side: hand to the daemon.
  Listener* listener() { return &listener_; }

  /// Invoked by a client endpoint when it waits for bytes that are not
  /// there yet — the daemon registers `[d]{ d->poll(); }` here so
  /// synchronous client RPC works without threads.
  void set_pump(std::function<void()> pump) { pump_ = std::move(pump); }

  /// Pause/resume delivery *into* the client endpoint of connection
  /// `index` (in connect() order): while paused the daemon's writes
  /// report would-block — the slow-client simulation.
  void set_client_paused(std::size_t index, bool paused);

 private:
  /// One direction of a connection: a byte buffer read from `offset`
  /// on (compacted lazily, like FrameReader's) plus lifecycle flags.
  struct Pipe {
    std::vector<std::uint8_t> bytes;
    std::size_t offset = 0;
    bool writer_closed = false;
    bool paused = false;

    std::size_t buffered() const { return bytes.size() - offset; }
  };
  struct Link {
    Pipe to_server;  // client writes, server reads
    Pipe to_client;  // server writes, client reads
  };

  class Endpoint final : public Connection {
   public:
    Endpoint(LoopbackTransport* transport, std::shared_ptr<Link> link,
             bool is_client)
        : transport_(transport), link_(std::move(link)), is_client_(is_client) {}
    ~Endpoint() override { close(); }

    Expected<std::size_t> send(const std::uint8_t* data,
                               std::size_t size) override;
    Expected<std::size_t> receive(std::vector<std::uint8_t>& out) override;
    void close() override;
    bool is_open() const override { return open_; }

   private:
    Pipe& outgoing() { return is_client_ ? link_->to_server : link_->to_client; }
    Pipe& incoming() { return is_client_ ? link_->to_client : link_->to_server; }

    LoopbackTransport* transport_;
    std::shared_ptr<Link> link_;
    bool is_client_;
    bool open_ = true;
  };

  class LoopbackListener final : public Listener {
   public:
    explicit LoopbackListener(LoopbackTransport* transport)
        : transport_(transport) {}
    Expected<std::unique_ptr<Connection>> accept() override;

   private:
    LoopbackTransport* transport_;
  };

  Config config_;
  std::function<void()> pump_;
  LoopbackListener listener_{this};
  std::deque<std::unique_ptr<Endpoint>> pending_accepts_;
  std::vector<std::shared_ptr<Link>> links_;  // in connect() order
};

// --- unix domain sockets ---------------------------------------------------

/// Client side: connect to a daemon at `path`. The returned connection
/// blocks in receive() until bytes arrive (EINTR-safe), which is what a
/// synchronous RPC client wants.
Expected<std::unique_ptr<Connection>> unix_connect(const std::string& path);

/// Server side: bind + listen on `path` (unlinking any stale socket
/// first). Accepted connections are nonblocking.
Expected<std::unique_ptr<Listener>> unix_listen(const std::string& path);

}  // namespace hetpapi::service
