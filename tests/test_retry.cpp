// The one retry loop (papi::retry_transient) against a scripted fake
// backend: transient (kInterrupted) failures are retried up to the
// budget and no further, non-transient failures pass through on the
// first attempt, and a success mid-burst stops the retrying.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "papi/backend.hpp"
#include "papi/retry.hpp"

namespace hetpapi {
namespace {

using papi::Backend;
using papi::retry_transient;
using simkernel::PerfEventAttr;
using simkernel::PerfIoctl;
using simkernel::PerfValue;
using simkernel::Tid;

class NullHost final : public pfm::Host {
 public:
  Expected<std::string> read_file(std::string_view) const override {
    return make_error(StatusCode::kNotFound, "null host");
  }
  Expected<std::vector<std::string>> list_dir(std::string_view) const override {
    return make_error(StatusCode::kNotFound, "null host");
  }
  Expected<cpumodel::IntelCoreKind> cpuid_core_kind(int) const override {
    return make_error(StatusCode::kNotSupported, "null host");
  }
  int num_cpus() const override { return 1; }
};

/// Plays back a per-call script of status codes (kOk = succeed) and
/// counts the attempts each entry point received.
class ScriptedBackend final : public Backend {
 public:
  std::deque<StatusCode> script;
  int open_calls = 0;
  int ioctl_calls = 0;
  int read_group_calls = 0;

  Expected<int> perf_event_open(const PerfEventAttr&, Tid, int, int,
                                std::uint64_t) override {
    ++open_calls;
    if (const Status s = next(); !s.is_ok()) return s;
    return 42;
  }
  Status perf_ioctl(int, PerfIoctl, std::uint32_t) override {
    ++ioctl_calls;
    return next();
  }
  Status perf_read_group_into(int, std::vector<PerfValue>& out) override {
    ++read_group_calls;
    out.clear();
    if (const Status s = next(); !s.is_ok()) return s;
    PerfValue v;
    v.value = 7;
    out.assign(2, v);
    return Status::ok();
  }
  Status perf_close(int) override { return Status::ok(); }
  const pfm::Host& host() const override { return host_; }
  Tid default_target() const override { return 0; }
  void charge_call_overhead(Tid, std::uint64_t) override {}

 private:
  Status next() {
    // Script exhausted = succeed from here on.
    if (script.empty()) return Status::ok();
    const StatusCode code = script.front();
    script.pop_front();
    if (code == StatusCode::kOk) return Status::ok();
    return Status(code, "scripted failure");
  }

  NullHost host_;
};

PerfEventAttr any_attr() { return PerfEventAttr{}; }

Expected<int> retried_open(ScriptedBackend& backend, int max_attempts) {
  return retry_transient(max_attempts, [&] {
    return backend.perf_event_open(any_attr(), 0, -1, -1, 0);
  });
}

Status retried_group_read(ScriptedBackend& backend,
                          std::vector<PerfValue>& out, int max_attempts) {
  return retry_transient(max_attempts,
                         [&] { return backend.perf_read_group_into(1, out); });
}

Status retried_ioctl(ScriptedBackend& backend, int max_attempts) {
  return retry_transient(max_attempts, [&] {
    return backend.perf_ioctl(42, PerfIoctl::kEnable, 0);
  });
}

TEST(Retry, TransientBurstShorterThanBudgetSucceeds) {
  ScriptedBackend backend;
  backend.script = {StatusCode::kInterrupted, StatusCode::kInterrupted};
  auto fd = retried_open(backend, /*max_attempts=*/4);
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(*fd, 42);
  EXPECT_EQ(backend.open_calls, 3);  // two transients + the success
}

TEST(Retry, BudgetExhaustionSurfacesTheTransient) {
  ScriptedBackend backend;
  backend.script = {StatusCode::kInterrupted, StatusCode::kInterrupted,
                    StatusCode::kInterrupted, StatusCode::kInterrupted};
  auto fd = retried_open(backend, /*max_attempts=*/3);
  ASSERT_FALSE(fd.has_value());
  EXPECT_EQ(fd.status().code(), StatusCode::kInterrupted);
  EXPECT_EQ(backend.open_calls, 3);  // exactly the budget, never more
}

TEST(Retry, NonTransientFailurePassesThroughImmediately) {
  ScriptedBackend backend;
  backend.script = {StatusCode::kPermission};
  auto fd = retried_open(backend, /*max_attempts=*/10);
  ASSERT_FALSE(fd.has_value());
  EXPECT_EQ(fd.status().code(), StatusCode::kPermission);
  EXPECT_EQ(backend.open_calls, 1);

  backend.script = {StatusCode::kInterrupted, StatusCode::kNotFound};
  std::vector<PerfValue> group;
  const Status read =
      retried_group_read(backend, group, /*max_attempts=*/10);
  // The retry rode out the transient, then hit (and surfaced) the real
  // failure behind it.
  EXPECT_EQ(read.code(), StatusCode::kNotFound);
  EXPECT_EQ(backend.read_group_calls, 2);
}

TEST(Retry, SingleAttemptBudgetMeansOneCall) {
  ScriptedBackend backend;
  backend.script = {StatusCode::kInterrupted};
  const Status s = retried_ioctl(backend, /*max_attempts=*/1);
  EXPECT_EQ(s.code(), StatusCode::kInterrupted);
  EXPECT_EQ(backend.ioctl_calls, 1);
}

TEST(Retry, IoctlAndGroupReadRetryLikeTheRest) {
  ScriptedBackend backend;
  backend.script = {StatusCode::kInterrupted, StatusCode::kOk};
  EXPECT_TRUE(retried_ioctl(backend, 3).is_ok());
  EXPECT_EQ(backend.ioctl_calls, 2);

  backend.script = {StatusCode::kInterrupted, StatusCode::kInterrupted};
  std::vector<PerfValue> group;
  ASSERT_TRUE(retried_group_read(backend, group, /*max_attempts=*/3).is_ok());
  EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(backend.read_group_calls, 3);
}

TEST(Retry, ImmediateSuccessNeverRetries) {
  ScriptedBackend backend;
  std::vector<PerfValue> group;
  ASSERT_TRUE(retried_group_read(backend, group, /*max_attempts=*/5).is_ok());
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].value, 7u);
  EXPECT_EQ(backend.read_group_calls, 1);
}

}  // namespace
}  // namespace hetpapi
