// Bounded retry of transient backend failures.
//
// Real perf_event syscalls fail with EINTR/EAGAIN under signal delivery
// and scheduler pressure; the backend layer maps those onto
// StatusCode::kInterrupted. Every library call site goes through these
// helpers so a transient blip never surfaces to the user, while a
// persistent failure (more than `max_attempts` consecutive transients)
// still does — an unbounded loop would hang on a counter that keeps
// getting interrupted.
#pragma once

#include "papi/backend.hpp"

namespace hetpapi::papi {

inline Expected<int> open_with_retry(Backend& backend,
                                     const PerfEventAttr& attr, Tid tid,
                                     int cpu, int group_fd,
                                     std::uint64_t flags, int max_attempts) {
  for (int attempt = 1;; ++attempt) {
    auto fd = backend.perf_event_open(attr, tid, cpu, group_fd, flags);
    if (fd || fd.status().code() != StatusCode::kInterrupted ||
        attempt >= max_attempts) {
      return fd;
    }
  }
}

inline Status ioctl_with_retry(Backend& backend, int fd, PerfIoctl op,
                               std::uint32_t flags, int max_attempts) {
  for (int attempt = 1;; ++attempt) {
    const Status s = backend.perf_ioctl(fd, op, flags);
    if (s.is_ok() || s.code() != StatusCode::kInterrupted ||
        attempt >= max_attempts) {
      return s;
    }
  }
}

inline Expected<PerfValue> read_with_retry(Backend& backend, int fd,
                                           int max_attempts) {
  for (int attempt = 1;; ++attempt) {
    auto value = backend.perf_read(fd);
    if (value || value.status().code() != StatusCode::kInterrupted ||
        attempt >= max_attempts) {
      return value;
    }
  }
}

inline Expected<bool> poll_with_retry(Backend& backend, int fd,
                                     int max_attempts) {
  for (int attempt = 1;; ++attempt) {
    auto fired = backend.perf_ring_poll(fd);
    if (fired || fired.status().code() != StatusCode::kInterrupted ||
        attempt >= max_attempts) {
      return fired;
    }
  }
}

inline Expected<std::vector<PerfValue>> read_group_with_retry(
    Backend& backend, int fd, int max_attempts) {
  for (int attempt = 1;; ++attempt) {
    auto values = backend.perf_read_group(fd);
    if (values || values.status().code() != StatusCode::kInterrupted ||
        attempt >= max_attempts) {
      return values;
    }
  }
}

}  // namespace hetpapi::papi
