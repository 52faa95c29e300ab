// Status codes and Expected<T> result type used across the library.
//
// The code values intentionally mirror the PAPI error-code vocabulary
// (PAPI_EINVAL, PAPI_ECNFLCT, ...) because the public API layer reports
// the same failure classes the paper discusses (e.g. adding events from
// two PMUs to a legacy EventSet fails with kConflict).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace hetpapi {

enum class StatusCode : int32_t {
  kOk = 0,
  kInvalidArgument,   // PAPI_EINVAL
  kNoMemory,          // PAPI_ENOMEM
  kSystem,            // PAPI_ESYS: underlying (simulated) syscall failed
  kComponent,         // PAPI_ECMP: component-level failure
  kNotSupported,      // PAPI_ENOSUPP
  kNotFound,          // PAPI_ENOEVNT: no such event / file / object
  kConflict,          // PAPI_ECNFLCT: resource conflict (PMU mismatch, ...)
  kNotRunning,        // PAPI_ENOTRUN
  kAlreadyRunning,    // PAPI_EISRUN
  kNoEventSet,        // PAPI_ENOEVST
  kNotPreset,         // PAPI_ENOTPRESET
  kNoHardwareCounter, // PAPI_ENOCNTR
  kBug,               // PAPI_EBUG: internal invariant violated
  kPermission,        // EACCES/EPERM from the kernel layer
  kBusy,              // EBUSY: counters taken
  kOutOfRange,        // index outside container
  kInterrupted,       // EINTR/EAGAIN: transient, retry-able syscall failure
  kOverloaded,        // admission control: daemon is shedding load
};

/// Human-readable name for a status code (stable, test-visible).
constexpr std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNoMemory: return "NO_MEMORY";
    case StatusCode::kSystem: return "SYSTEM";
    case StatusCode::kComponent: return "COMPONENT";
    case StatusCode::kNotSupported: return "NOT_SUPPORTED";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kConflict: return "CONFLICT";
    case StatusCode::kNotRunning: return "NOT_RUNNING";
    case StatusCode::kAlreadyRunning: return "ALREADY_RUNNING";
    case StatusCode::kNoEventSet: return "NO_EVENTSET";
    case StatusCode::kNotPreset: return "NOT_PRESET";
    case StatusCode::kNoHardwareCounter: return "NO_HW_COUNTER";
    case StatusCode::kBug: return "BUG";
    case StatusCode::kPermission: return "PERMISSION";
    case StatusCode::kBusy: return "BUSY";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kInterrupted: return "INTERRUPTED";
    case StatusCode::kOverloaded: return "OVERLOADED";
  }
  return "UNKNOWN";
}

/// A status: code plus an optional context message. The message lives
/// behind a pointer, so an OK status — what every hot-path call returns —
/// is two words to build and nothing to destroy.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty()
                     ? nullptr
                     : std::make_unique<std::string>(std::move(message))) {}
  explicit Status(StatusCode code) : code_(code) {}
  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_
                     ? std::make_unique<std::string>(*other.message_)
                     : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) *this = Status(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status ok() { return Status{}; }

  bool is_ok() const noexcept { return code_ == StatusCode::kOk; }
  explicit operator bool() const noexcept { return is_ok(); }

  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept {
    static const std::string kNone;
    return message_ ? *message_ : kNone;
  }

  std::string to_string() const {
    std::string out{hetpapi::to_string(code_)};
    if (message_) {
      out += ": ";
      out += *message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;
};

inline Status make_error(StatusCode code, std::string message = {}) {
  return Status{code, std::move(message)};
}

/// Minimal expected-or-status type. We target C++20 so std::expected is
/// unavailable; this covers the subset the library needs.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : data_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Expected(Status status) : data_(std::move(status)) {}   // NOLINT(google-explicit-constructor)

  bool has_value() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return has_value(); }

  T& value() & { return std::get<T>(data_); }
  const T& value() const& { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  /// `*std::move(e)` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Status when in the error state; StatusCode::kOk otherwise.
  Status status() const {
    if (has_value()) return Status::ok();
    return std::get<Status>(data_);
  }

  T value_or(T fallback) const& {
    return has_value() ? value() : std::move(fallback);
  }
  T value_or(T fallback) && {
    return has_value() ? std::move(*this).value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

/// Propagate errors: evaluates `expr` (a Status) and returns it from the
/// calling function on failure. Used sparingly; most code handles errors
/// explicitly.
#define HETPAPI_RETURN_IF_ERROR(expr)                  \
  do {                                                 \
    ::hetpapi::Status _hetpapi_status = (expr);        \
    if (!_hetpapi_status.is_ok()) return _hetpapi_status; \
  } while (false)

}  // namespace hetpapi
