// Real-Linux backend: the same Backend/Host seams served by actual
// perf_event_open(2) syscalls and the live /sys//proc trees.
//
// This is the "straightforward port" direction: the library layer is
// unchanged; event kinds translate onto the kernel's generalized
// hardware events, using the extended config encoding
// (config = pmu_type << 32 | generic_id) that hybrid kernels accept so
// a per-core-type PMU can be addressed through PERF_TYPE_HARDWARE.
// Software events work everywhere (including PMU-less VMs, which is
// what the gated tests exercise); RAPL translation is out of scope.
// rdpmc goes through the real mmap'd user page (perf_mmap_user_page),
// which papi::read_user_page reads; a page without cap_user_rdpmc or
// with index 0 sends the library to the group read. Syscalls that fail
// with EINTR/EAGAIN return kInterrupted at once: papi/retry.hpp is the
// one retry loop, and close is never retried.
#pragma once

#include <map>
#include <string>

#include "papi/backend.hpp"

namespace hetpapi::linuxkernel {

/// pfm::Host over the live filesystem and CPUID.
class LinuxHost final : public pfm::Host {
 public:
  LinuxHost();

  Expected<std::string> read_file(std::string_view path) const override;
  Expected<std::vector<std::string>> list_dir(
      std::string_view path) const override;
  Expected<cpumodel::IntelCoreKind> cpuid_core_kind(int cpu) const override;
  int num_cpus() const override { return num_cpus_; }

 private:
  int num_cpus_ = 1;
};

/// True when perf_event_open is usable at all (false in seccomp'd or
/// locked-down containers); tests gate on this.
bool perf_event_available();

class LinuxBackend final : public papi::Backend {
 public:
  Expected<int> perf_event_open(const papi::PerfEventAttr& attr,
                                papi::Tid tid, int cpu, int group_fd,
                                std::uint64_t flags) override;
  Status perf_ioctl(int fd, papi::PerfIoctl op, std::uint32_t flags) override;
  /// One read(2) of the group layout every group is opened with
  /// (GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING), decoded straight
  /// into `out`. A byte count that does not match the member count, or
  /// a group wider than the 64-value read buffer, is an error.
  Status perf_read_group_into(int fd,
                              std::vector<papi::PerfValue>& out) override;
  /// mmap the event's real perf_event_mmap_page (read-only, one page).
  /// simkernel::PerfUserPage mirrors the kernel struct bit-for-bit up
  /// to the reserved region, and the kernel zeroes that region, so the
  /// reader's sim-magic probe cleanly selects the hardware rdpmc leg.
  /// Unmapped automatically at perf_close.
  Expected<const simkernel::PerfUserPage*> perf_mmap_user_page(
      int fd) override;
  /// mmap the event's real sample ring: the control page plus a
  /// power-of-two data area, mapped read-write (the reader publishes
  /// data_tail). Unmapped automatically at perf_close.
  Expected<simkernel::PerfRingView> perf_mmap_ring(int fd) override;
  /// poll(2) with a zero timeout: POLLIN on the event fd.
  Expected<bool> perf_ring_poll(int fd) override;
  Status perf_close(int fd) override;

  ~LinuxBackend() override;

  const pfm::Host& host() const override { return host_; }

  /// RAPL translation is out of scope for the port (it needs root and
  /// machine-specific MSRs); sysinfo reads plain procfs and works
  /// anywhere.
  bool supports_component(std::string_view name) const override {
    return name != "rapl";
  }

  /// 0 = "calling thread" in the real syscall ABI.
  papi::Tid default_target() const override { return 0; }

 private:
  struct RingMap {
    void* base = nullptr;
    std::size_t length = 0;            // page + data area
    std::uint64_t sample_type = 0;     // recorded at open for decoders
  };

  LinuxHost host_;
  /// fd -> live mmap'd first perf page (munmap'd at perf_close).
  std::map<int, void*> user_pages_;
  /// fd -> live sample-ring mapping (munmap'd at perf_close).
  std::map<int, RingMap> rings_;
  /// attr.sample_type of sampling-mode fds, as resolved at open.
  std::map<int, std::uint64_t> sample_types_;
};

}  // namespace hetpapi::linuxkernel
