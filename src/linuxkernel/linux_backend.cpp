#include "linuxkernel/linux_backend.hpp"

#include <fcntl.h>
#include <linux/perf_event.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/strings.hpp"

namespace hetpapi::linuxkernel {

namespace {

using simkernel::CountKind;

Status errno_status(std::string_view what) {
  const int err = errno;
  StatusCode code = StatusCode::kSystem;
  switch (err) {
    case EINVAL: code = StatusCode::kInvalidArgument; break;
    case ENOENT: case ENODEV: case ENXIO: code = StatusCode::kNotFound; break;
    case EACCES: case EPERM: code = StatusCode::kPermission; break;
    case EBUSY: code = StatusCode::kBusy; break;
    case ENOMEM: case EMFILE: code = StatusCode::kNoMemory; break;
    case EINTR: case EAGAIN: code = StatusCode::kInterrupted; break;
    default: break;
  }
  return make_error(code, std::string(what) + ": " + std::strerror(err));
}

/// Translate our backend-neutral (type, CountKind) pair onto the real
/// ABI. Core-PMU kinds go through the generalized hardware ids with the
/// extended config encoding hybrid kernels accept; software kinds map
/// onto PERF_COUNT_SW_*.
Expected<std::pair<std::uint32_t, std::uint64_t>> translate(
    const papi::PerfEventAttr& attr) {
  const auto kind = static_cast<CountKind>(attr.config);
  if (attr.type == PERF_TYPE_SOFTWARE) {
    switch (kind) {
      case CountKind::kContextSwitches:
        return std::pair<std::uint32_t, std::uint64_t>{
            PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES};
      case CountKind::kMigrations:
        return std::pair<std::uint32_t, std::uint64_t>{
            PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CPU_MIGRATIONS};
      case CountKind::kTaskClockNs:
        return std::pair<std::uint32_t, std::uint64_t>{
            PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK};
      default:
        return make_error(StatusCode::kNotSupported,
                          "no software mapping for this event kind");
    }
  }
  std::uint64_t hw_id = 0;
  switch (kind) {
    case CountKind::kInstructions: hw_id = PERF_COUNT_HW_INSTRUCTIONS; break;
    case CountKind::kCycles: hw_id = PERF_COUNT_HW_CPU_CYCLES; break;
    case CountKind::kRefCycles: hw_id = PERF_COUNT_HW_REF_CPU_CYCLES; break;
    case CountKind::kLlcReferences:
      hw_id = PERF_COUNT_HW_CACHE_REFERENCES;
      break;
    case CountKind::kLlcMisses: hw_id = PERF_COUNT_HW_CACHE_MISSES; break;
    case CountKind::kBranches:
      hw_id = PERF_COUNT_HW_BRANCH_INSTRUCTIONS;
      break;
    case CountKind::kBranchMisses: hw_id = PERF_COUNT_HW_BRANCH_MISSES; break;
    default:
      return make_error(StatusCode::kNotSupported,
                        "no generalized hardware mapping for this kind");
  }
  // Extended hardware type: select a specific (hybrid) PMU through the
  // generic event interface. A plain PERF_TYPE_HARDWARE open keeps
  // config as-is.
  const std::uint64_t config =
      attr.type >= simkernel::kPerfTypeFirstDynamic || attr.type == PERF_TYPE_RAW
          ? (static_cast<std::uint64_t>(attr.type) << 32) | hw_id
          : hw_id;
  return std::pair<std::uint32_t, std::uint64_t>{PERF_TYPE_HARDWARE, config};
}

constexpr std::size_t kGroupReadMaxValues = 64;

struct GroupReadBuffer {
  std::uint64_t nr;
  std::uint64_t time_enabled;
  std::uint64_t time_running;
  std::uint64_t values[kGroupReadMaxValues];
};

constexpr std::size_t kGroupReadHeaderBytes =
    offsetof(GroupReadBuffer, values);

}  // namespace

bool perf_event_available() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_SOFTWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_SW_TASK_CLOCK;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  const long fd = syscall(__NR_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  ::close(static_cast<int>(fd));
  return true;
}

LinuxHost::LinuxHost() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  num_cpus_ = n > 0 ? static_cast<int>(n) : 1;
}

Expected<std::string> LinuxHost::read_file(std::string_view path) const {
  std::ifstream in{std::string(path)};
  if (!in) {
    return make_error(StatusCode::kNotFound,
                      "cannot open " + std::string(path));
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Expected<std::vector<std::string>> LinuxHost::list_dir(
    std::string_view path) const {
  std::error_code ec;
  std::filesystem::directory_iterator it{std::string(path), ec};
  if (ec) {
    return make_error(StatusCode::kNotFound,
                      "cannot list " + std::string(path));
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

Expected<cpumodel::IntelCoreKind> LinuxHost::cpuid_core_kind(int cpu) const {
#if defined(__x86_64__) || defined(__i386__)
  // CPUID executes on the calling cpu; a faithful implementation pins
  // itself to `cpu` first. In this library the result only matters on
  // hybrid parts, where leaf 0x1A is present.
  (void)cpu;
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(0x1A, 0, &eax, &ebx, &ecx, &edx) == 0 || eax == 0) {
    return cpumodel::IntelCoreKind::kNone;
  }
  return static_cast<cpumodel::IntelCoreKind>((eax >> 24) & 0xFF);
#else
  (void)cpu;
  return make_error(StatusCode::kNotSupported, "CPUID is x86-only");
#endif
}

Expected<int> LinuxBackend::perf_event_open(const papi::PerfEventAttr& attr,
                                            papi::Tid tid, int cpu,
                                            int group_fd,
                                            std::uint64_t flags) {
  auto translated = translate(attr);
  if (!translated) return translated.status();

  perf_event_attr native;
  std::memset(&native, 0, sizeof(native));
  native.size = sizeof(native);
  native.type = translated->first;
  native.config = translated->second;
  native.disabled = attr.disabled ? 1 : 0;
  native.inherit = attr.inherit ? 1 : 0;
  native.pinned = attr.pinned ? 1 : 0;
  native.exclude_kernel = 1;  // run unprivileged
  native.exclude_hv = 1;
  native.read_format = 0;
  if (attr.read_format & simkernel::kFormatGroup) {
    native.read_format |= PERF_FORMAT_GROUP;
  }
  if (attr.read_format & simkernel::kFormatTotalTimeEnabled) {
    native.read_format |= PERF_FORMAT_TOTAL_TIME_ENABLED;
  }
  if (attr.read_format & simkernel::kFormatTotalTimeRunning) {
    native.read_format |= PERF_FORMAT_TOTAL_TIME_RUNNING;
  }
  std::uint64_t sample_type = 0;
  if (attr.sample_period > 0) {
    native.sample_period = attr.sample_period;
    native.wakeup_events = attr.wakeup_events;
    sample_type =
        attr.sample_type != 0 ? attr.sample_type : simkernel::kSampleTypeDefault;
    // Our SampleType constants are the kernel's PERF_SAMPLE_* values;
    // map bit by bit anyway so a divergence is a compile-visible edit.
    if (sample_type & simkernel::kSampleIp) native.sample_type |= PERF_SAMPLE_IP;
    if (sample_type & simkernel::kSampleTid) {
      native.sample_type |= PERF_SAMPLE_TID;
    }
    if (sample_type & simkernel::kSampleTime) {
      native.sample_type |= PERF_SAMPLE_TIME;
    }
    if (sample_type & simkernel::kSampleCpu) {
      native.sample_type |= PERF_SAMPLE_CPU;
    }
    if (sample_type & simkernel::kSamplePeriod) {
      native.sample_type |= PERF_SAMPLE_PERIOD;
    }
  }

  const long fd = syscall(__NR_perf_event_open, &native,
                          static_cast<pid_t>(tid), cpu, group_fd,
                          flags | PERF_FLAG_FD_CLOEXEC);
  if (fd < 0) return errno_status("perf_event_open");
  if (attr.sample_period > 0) {
    sample_types_[static_cast<int>(fd)] = sample_type;
  }
  return static_cast<int>(fd);
}

Status LinuxBackend::perf_ioctl(int fd, papi::PerfIoctl op,
                                std::uint32_t flags) {
  unsigned long request = 0;
  switch (op) {
    case papi::PerfIoctl::kEnable: request = PERF_EVENT_IOC_ENABLE; break;
    case papi::PerfIoctl::kDisable: request = PERF_EVENT_IOC_DISABLE; break;
    case papi::PerfIoctl::kReset: request = PERF_EVENT_IOC_RESET; break;
  }
  const unsigned long arg =
      (flags & simkernel::kIocFlagGroup) != 0 ? PERF_IOC_FLAG_GROUP : 0;
  if (::ioctl(fd, request, arg) != 0) return errno_status("perf ioctl");
  return Status::ok();
}

Status LinuxBackend::perf_read_group_into(int fd,
                                          std::vector<papi::PerfValue>& out) {
  out.clear();
  GroupReadBuffer buffer;
  const ssize_t n = ::read(fd, &buffer, sizeof(buffer));
  if (n < 0) return errno_status("perf group read");
  // The layout is fixed by the read_format every group is opened with
  // (GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING): a three-word
  // header, then one value per member. Anything else is a short read or
  // a group wider than the buffer; neither may turn into zero-filled or
  // silently dropped values.
  const auto bytes = static_cast<std::size_t>(n);
  if (bytes < kGroupReadHeaderBytes) {
    return make_error(StatusCode::kSystem,
                      "perf group read: short read of " +
                          std::to_string(bytes) + " bytes");
  }
  if (buffer.nr > kGroupReadMaxValues) {
    return make_error(StatusCode::kNotSupported,
                      "perf group read: " + std::to_string(buffer.nr) +
                          " members exceed the " +
                          std::to_string(kGroupReadMaxValues) +
                          "-value read buffer");
  }
  const std::size_t expected =
      kGroupReadHeaderBytes + buffer.nr * sizeof(std::uint64_t);
  if (bytes != expected) {
    return make_error(StatusCode::kSystem,
                      "perf group read: got " + std::to_string(bytes) +
                          " bytes for " + std::to_string(buffer.nr) +
                          " members, expected " + std::to_string(expected));
  }
  out.reserve(static_cast<std::size_t>(buffer.nr));
  for (std::uint64_t i = 0; i < buffer.nr; ++i) {
    papi::PerfValue value;
    value.value = buffer.values[i];
    value.time_enabled_ns = buffer.time_enabled;
    value.time_running_ns = buffer.time_running;
    out.push_back(value);
  }
  return Status::ok();
}

// Our mirror struct must line up with the live kernel header, not just
// the documented offsets.
static_assert(offsetof(simkernel::PerfUserPage, lock) ==
              offsetof(perf_event_mmap_page, lock));
static_assert(offsetof(simkernel::PerfUserPage, index) ==
              offsetof(perf_event_mmap_page, index));
static_assert(offsetof(simkernel::PerfUserPage, offset) ==
              offsetof(perf_event_mmap_page, offset));
static_assert(offsetof(simkernel::PerfUserPage, time_enabled) ==
              offsetof(perf_event_mmap_page, time_enabled));
static_assert(offsetof(simkernel::PerfUserPage, time_running) ==
              offsetof(perf_event_mmap_page, time_running));

Expected<const simkernel::PerfUserPage*> LinuxBackend::perf_mmap_user_page(
    int fd) {
  const auto it = user_pages_.find(fd);
  if (it != user_pages_.end()) {
    return static_cast<const simkernel::PerfUserPage*>(it->second);
  }
  const long page_size = ::sysconf(_SC_PAGESIZE);
  void* mapped = ::mmap(nullptr, static_cast<std::size_t>(page_size),
                        PROT_READ, MAP_SHARED, fd, 0);
  if (mapped == MAP_FAILED) return errno_status("perf mmap");
  user_pages_[fd] = mapped;
  return static_cast<const simkernel::PerfUserPage*>(mapped);
}

// The ring control words must line up with the live kernel header too.
static_assert(offsetof(simkernel::PerfUserPage, data_head) ==
              offsetof(perf_event_mmap_page, data_head));
static_assert(offsetof(simkernel::PerfUserPage, data_tail) ==
              offsetof(perf_event_mmap_page, data_tail));

Expected<simkernel::PerfRingView> LinuxBackend::perf_mmap_ring(int fd) {
  const auto make_view = [](const RingMap& ring) {
    const long page_size = ::sysconf(_SC_PAGESIZE);
    simkernel::PerfRingView view;
    view.page = static_cast<simkernel::PerfUserPage*>(ring.base);
    view.data = static_cast<const std::uint8_t*>(ring.base) + page_size;
    view.size = ring.length - static_cast<std::size_t>(page_size);
    view.sample_type = ring.sample_type;
    return view;
  };
  if (const auto it = rings_.find(fd); it != rings_.end()) {
    return make_view(it->second);
  }
  const auto type_it = sample_types_.find(fd);
  if (type_it == sample_types_.end()) {
    return make_error(StatusCode::kInvalidArgument,
                      "event is in counting mode: no sample ring");
  }
  const long page_size = ::sysconf(_SC_PAGESIZE);
  // 1 control page + 2^n data pages, the shape the kernel requires.
  constexpr std::size_t kRingPages = 8;
  const std::size_t length =
      static_cast<std::size_t>(page_size) * (1 + kRingPages);
  void* mapped = ::mmap(nullptr, length, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd, 0);
  if (mapped == MAP_FAILED) return errno_status("perf ring mmap");
  RingMap ring;
  ring.base = mapped;
  ring.length = length;
  ring.sample_type = type_it->second;
  rings_[fd] = ring;
  return make_view(ring);
}

Expected<bool> LinuxBackend::perf_ring_poll(int fd) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, 0);
  if (rc < 0) return errno_status("perf poll");
  return rc > 0 && (pfd.revents & POLLIN) != 0;
}

Status LinuxBackend::perf_close(int fd) {
  const auto it = user_pages_.find(fd);
  if (it != user_pages_.end()) {
    ::munmap(it->second, static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
    user_pages_.erase(it);
  }
  if (const auto ring_it = rings_.find(fd); ring_it != rings_.end()) {
    ::munmap(ring_it->second.base, ring_it->second.length);
    rings_.erase(ring_it);
  }
  sample_types_.erase(fd);
  // Never retry close: on Linux the fd is released even when close
  // reports EINTR, and a retry could close an unrelated fd reused in
  // the meantime. EINTR therefore counts as success here.
  if (::close(fd) != 0 && errno != EINTR) return errno_status("close");
  return Status::ok();
}

LinuxBackend::~LinuxBackend() {
  for (const auto& [fd, mapped] : user_pages_) {
    ::munmap(mapped, static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  }
  for (const auto& [fd, ring] : rings_) {
    ::munmap(ring.base, ring.length);
  }
}

}  // namespace hetpapi::linuxkernel
