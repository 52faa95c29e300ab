// Bounded retry of transient backend failures.
//
// Real perf_event syscalls fail with EINTR/EAGAIN under signal delivery
// and scheduler pressure; every backend maps those onto
// StatusCode::kInterrupted and returns them without looping. This is
// the one retry layer: every library call site wraps its backend call
// in retry_transient, so a transient blip never surfaces to the user,
// while a persistent failure (more than `max_attempts` consecutive
// transients) still does — an unbounded loop would hang on a counter
// that keeps getting interrupted. perf_close is never retried: Linux
// releases the fd even when close reports EINTR.
#pragma once

#include <type_traits>

#include "base/status.hpp"

namespace hetpapi::papi {

/// Attempts every library call site allows a backend call before a
/// run of kInterrupted surfaces.
inline constexpr int kTransientRetryAttempts = 4;

/// Calls `call()` (returning Status or Expected<T>) until it succeeds,
/// fails with anything but kInterrupted, or has been made
/// `max_attempts` times; returns the last result.
template <typename Call>
auto retry_transient(int max_attempts, Call&& call) {
  for (int attempt = 1;; ++attempt) {
    auto result = call();
    if (result || attempt >= max_attempts) return result;
    if constexpr (std::is_same_v<decltype(result), Status>) {
      if (result.code() != StatusCode::kInterrupted) return result;
    } else {
      if (result.status().code() != StatusCode::kInterrupted) return result;
    }
  }
}

}  // namespace hetpapi::papi
