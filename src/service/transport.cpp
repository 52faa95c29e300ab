#include "service/transport.hpp"

#include <algorithm>

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace hetpapi::service {

// --- loopback --------------------------------------------------------------

std::unique_ptr<Connection> LoopbackTransport::connect() {
  auto link = std::make_shared<Link>();
  links_.push_back(link);
  pending_accepts_.push_back(
      std::make_unique<Endpoint>(this, link, /*is_client=*/false));
  return std::make_unique<Endpoint>(this, std::move(link), /*is_client=*/true);
}

void LoopbackTransport::set_client_paused(std::size_t index, bool paused) {
  if (index < links_.size()) links_[index]->to_client.paused = paused;
}

Expected<std::unique_ptr<Connection>> LoopbackTransport::LoopbackListener::
    accept() {
  // "No connection waiting" ends every poll's accept loop, so it carries
  // no message to allocate.
  if (transport_->pending_accepts_.empty()) {
    return Status(StatusCode::kNotFound);
  }
  std::unique_ptr<Connection> conn =
      std::move(transport_->pending_accepts_.front());
  transport_->pending_accepts_.pop_front();
  return conn;
}

Expected<std::size_t> LoopbackTransport::Endpoint::send(
    const std::uint8_t* data, std::size_t size) {
  if (!open_) return make_error(StatusCode::kNotRunning, "connection closed");
  Pipe& pipe = outgoing();
  if (pipe.paused) return std::size_t{0};
  std::size_t accept_bytes = size;
  if (transport_->config_.pipe_capacity_bytes > 0) {
    const std::size_t room =
        pipe.buffered() >= transport_->config_.pipe_capacity_bytes
            ? 0
            : transport_->config_.pipe_capacity_bytes - pipe.buffered();
    accept_bytes = std::min(accept_bytes, room);
  }
  pipe.bytes.insert(pipe.bytes.end(), data, data + accept_bytes);
  return accept_bytes;
}

Expected<std::size_t> LoopbackTransport::Endpoint::receive(
    std::vector<std::uint8_t>& out) {
  if (!open_) return make_error(StatusCode::kNotRunning, "connection closed");
  Pipe& pipe = incoming();
  // The client side may legitimately wait on a reply the daemon has not
  // produced yet — pump the daemon once before reporting "nothing".
  if (pipe.buffered() == 0 && is_client_ && transport_->pump_) {
    transport_->pump_();
  }
  if (pipe.buffered() == 0) {
    if (pipe.writer_closed) {
      return make_error(StatusCode::kNotRunning, "peer closed");
    }
    return std::size_t{0};
  }
  std::size_t n = pipe.buffered();
  if (transport_->config_.max_chunk_bytes > 0) {
    n = std::min(n, transport_->config_.max_chunk_bytes);
  } else if (out.empty() && pipe.offset == 0) {
    // The whole pipe goes: swap it in; the pipe keeps out's block.
    out.swap(pipe.bytes);
    return n;
  }
  const auto first =
      pipe.bytes.begin() + static_cast<std::ptrdiff_t>(pipe.offset);
  out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
  pipe.offset += n;
  // Compact lazily, the way FrameReader does: once drained or past 4 KiB.
  if (pipe.offset == pipe.bytes.size() || pipe.offset > 4096) {
    pipe.bytes.erase(pipe.bytes.begin(),
                     first + static_cast<std::ptrdiff_t>(n));
    pipe.offset = 0;
  }
  return n;
}

void LoopbackTransport::Endpoint::close() {
  if (!open_) return;
  open_ = false;
  outgoing().writer_closed = true;
}

// --- unix domain sockets ---------------------------------------------------

namespace {

/// fd-backed connection; `blocking` distinguishes the client (blocking
/// reads: a synchronous RPC waits) from daemon-side endpoints
/// (nonblocking: poll() must never stall on one client).
class FdConnection final : public Connection {
 public:
  FdConnection(int fd, bool blocking) : fd_(fd), blocking_(blocking) {}
  ~FdConnection() override { close(); }

  Expected<std::size_t> send(const std::uint8_t* data,
                             std::size_t size) override {
    if (fd_ < 0) return make_error(StatusCode::kNotRunning, "closed");
    // EINTR-safe, partial-write-tolerant: hand back what the kernel
    // accepted and let the caller queue the rest.
    for (;;) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
      return make_error(StatusCode::kSystem,
                        std::string("send: ") + std::strerror(errno));
    }
  }

  Expected<std::size_t> receive(std::vector<std::uint8_t>& out) override {
    if (fd_ < 0) return make_error(StatusCode::kNotRunning, "closed");
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        out.insert(out.end(), buf, buf + n);
        return static_cast<std::size_t>(n);
      }
      if (n == 0) return make_error(StatusCode::kNotRunning, "peer closed");
      if (errno == EINTR) continue;
      if (!blocking_ && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return std::size_t{0};
      }
      if (blocking_ && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      return make_error(StatusCode::kSystem,
                        std::string("recv: ") + std::strerror(errno));
    }
  }

  void close() override {
    if (fd_ >= 0) {
      // close(2) is deliberately not retried on EINTR: the fd is gone
      // either way and a retry could close a recycled descriptor.
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool is_open() const override { return fd_ >= 0; }

 private:
  int fd_;
  bool blocking_;
};

class UnixListener final : public Listener {
 public:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~UnixListener() override {
    if (fd_ >= 0) ::close(fd_);
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  Expected<std::unique_ptr<Connection>> accept() override {
    for (;;) {
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client >= 0) {
        const int flags = ::fcntl(client, F_GETFL, 0);
        ::fcntl(client, F_SETFL, flags | O_NONBLOCK);
        return std::unique_ptr<Connection>(
            std::make_unique<FdConnection>(client, /*blocking=*/false));
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status(StatusCode::kNotFound);  // none waiting; no message
      }
      return make_error(StatusCode::kSystem,
                        std::string("accept: ") + std::strerror(errno));
    }
  }

 private:
  int fd_;
  std::string path_;
};

Expected<int> make_unix_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return make_error(StatusCode::kSystem,
                      std::string("socket: ") + std::strerror(errno));
  }
  return fd;
}

Status fill_addr(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return make_error(StatusCode::kInvalidArgument, "socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return Status::ok();
}

}  // namespace

Expected<std::unique_ptr<Connection>> unix_connect(const std::string& path) {
  auto fd = make_unix_socket();
  if (!fd) return fd.status();
  sockaddr_un addr;
  if (const Status s = fill_addr(path, addr); !s.is_ok()) {
    ::close(*fd);
    return s;
  }
  for (;;) {
    if (::connect(*fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    const Status s = make_error(StatusCode::kSystem,
                                std::string("connect: ") + std::strerror(errno));
    ::close(*fd);
    return s;
  }
  return std::unique_ptr<Connection>(
      std::make_unique<FdConnection>(*fd, /*blocking=*/true));
}

Expected<std::unique_ptr<Listener>> unix_listen(const std::string& path) {
  auto fd = make_unix_socket();
  if (!fd) return fd.status();
  sockaddr_un addr;
  if (const Status s = fill_addr(path, addr); !s.is_ok()) {
    ::close(*fd);
    return s;
  }
  ::unlink(path.c_str());
  if (::bind(*fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = make_error(StatusCode::kSystem,
                                std::string("bind: ") + std::strerror(errno));
    ::close(*fd);
    return s;
  }
  if (::listen(*fd, 64) != 0) {
    const Status s = make_error(StatusCode::kSystem,
                                std::string("listen: ") + std::strerror(errno));
    ::close(*fd);
    return s;
  }
  const int flags = ::fcntl(*fd, F_GETFL, 0);
  ::fcntl(*fd, F_SETFL, flags | O_NONBLOCK);
  return std::unique_ptr<Listener>(std::make_unique<UnixListener>(*fd, path));
}

}  // namespace hetpapi::service
