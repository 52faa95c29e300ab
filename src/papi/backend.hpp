// Backend seam between the measurement library and a kernel.
//
// The library's logic (EventSet bookkeeping, multi-PMU group splitting,
// preset derivation, detection) is identical whether it talks to the
// simulated hybrid kernel or to a real Linux perf_event via syscalls;
// only this interface changes. That mirrors the paper's claim that the
// PAPI-side work is a client-protocol change over unchanged kernel
// semantics.
//
// The seam holds only what the library calls: open, ioctl, close, one
// counter read (the group read), the user page for rdpmc and the sample
// ring with its poll. Backends return EINTR/EAGAIN as kInterrupted
// without looping; papi/retry.hpp is the one retry layer.
#pragma once

#include <cstdint>
#include <vector>

#include "base/status.hpp"
#include "pfm/host.hpp"
#include "simkernel/perf_abi.hpp"
#include "simkernel/thread.hpp"

namespace hetpapi::papi {

using simkernel::PerfEventAttr;
using simkernel::PerfIoctl;
using simkernel::PerfValue;
using simkernel::Tid;

class Backend {
 public:
  virtual ~Backend() = default;

  virtual Expected<int> perf_event_open(const PerfEventAttr& attr, Tid tid,
                                        int cpu, int group_fd,
                                        std::uint64_t flags) = 0;
  virtual Status perf_ioctl(int fd, PerfIoctl op, std::uint32_t flags) = 0;
  /// The seam's one counter read: read(2) with PERF_FORMAT_GROUP on a
  /// leader fd, leader first, then siblings in creation order. `out` is
  /// cleared but keeps its capacity, so a reused buffer makes the read
  /// allocation-free. On failure the contents of `out` are unspecified.
  virtual Status perf_read_group_into(int fd,
                                      std::vector<PerfValue>& out) = 0;
  /// Convenience wrapper over perf_read_group_into (one allocation).
  Expected<std::vector<PerfValue>> perf_read_group(int fd) {
    std::vector<PerfValue> out;
    HETPAPI_RETURN_IF_ERROR(perf_read_group_into(fd, out));
    return out;
  }
  virtual Status perf_close(int fd) = 0;

  /// mmap(2) the event's perf_event_mmap_page: the only rdpmc path.
  /// papi::read_user_page reads it under its seqlock (§V-5). The
  /// returned pointer must stay valid until perf_close(fd); backends
  /// without a page report kNotSupported and the read planner keeps the
  /// group read. Default: no page.
  virtual Expected<const simkernel::PerfUserPage*> perf_mmap_user_page(
      int fd) {
    (void)fd;
    return make_error(StatusCode::kNotSupported,
                      "backend has no user-page mapping");
  }

  /// mmap(2) the event's sample ring (control page + data area) for a
  /// sampling-mode event. The view must stay valid until perf_close(fd).
  /// The ring is the only sample delivery path, as on real Linux: the
  /// PAPI drain loop decodes it and fires the overflow callbacks. A
  /// denied or unsupported ring is survivable: the slot degrades to
  /// counting mode and delivers no samples and no callbacks. Default: no
  /// ring.
  virtual Expected<simkernel::PerfRingView> perf_mmap_ring(int fd) {
    (void)fd;
    return make_error(StatusCode::kNotSupported,
                      "backend has no sample-ring mapping");
  }

  /// poll(2) with a zero timeout on a sampling event fd: true when a
  /// ring wakeup is pending. A hint, not ground truth — drains read the
  /// ring's head/tail words regardless, so a dropped wakeup delays a
  /// drain but never loses records. Default: no wakeup surface.
  virtual Expected<bool> perf_ring_poll(int fd) {
    (void)fd;
    return make_error(StatusCode::kNotSupported,
                      "backend has no ring poll surface");
  }

  /// Host introspection for detection and pfm activation.
  virtual const pfm::Host& host() const = 0;

  /// Whether this backend can host the named measurement component
  /// (papi/components/). Library::init skips registration of components
  /// the backend disclaims — e.g. real Linux without RAPL permissions.
  virtual bool supports_component(std::string_view name) const {
    (void)name;
    return true;
  }

  /// The "calling thread" measurement calls bind to by default.
  virtual Tid default_target() const = 0;

  /// Hook for accounting the user-space cost of a measurement call to
  /// the measured thread (the simulator executes these instructions as
  /// part of the thread; a real backend genuinely pays them).
  virtual void charge_call_overhead(Tid tid, std::uint64_t instructions) {
    (void)tid;
    (void)instructions;
  }
};

}  // namespace hetpapi::papi
