// Mirror of the perf_event kernel ABI subset the library uses.
//
// We define our own structures rather than including <linux/perf_event.h>
// so the simulated backend and the real-syscall backend share one
// vocabulary; the linuxkernel module translates these to the native ABI.
// Semantics follow the kernel documentation the paper builds on:
//  * attr.type selects a PMU; heterogeneous systems export one dynamic
//    PMU type per core type (§IV-A).
//  * an event follows its target thread, but the kernel only lets it
//    count while the thread runs on a core whose type matches the
//    event's PMU.
//  * event groups are scheduled atomically and cannot span PMUs.
//  * when a group set exceeds the PMU's counters, groups are multiplexed
//    by rotation and reads report time_enabled/time_running for scaling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "base/units.hpp"

namespace hetpapi::simkernel {

/// Built-in PMU type ids (match the Linux values for the static types;
/// dynamic PMU ids are allocated above these at boot, as on real
/// systems).
enum PerfType : std::uint32_t {
  kPerfTypeHardware = 0,
  kPerfTypeSoftware = 1,
  kPerfTypeTracepoint = 2,
  kPerfTypeHwCache = 3,
  kPerfTypeRaw = 4,
  kPerfTypeBreakpoint = 5,
  kPerfTypeFirstDynamic = 6,
};

/// What a counter counts. The simulated cores produce these quantities
/// directly; per-PMU event tables (pfm module) map event names/configs
/// onto them with per-core-type availability (e.g. topdown slots exist
/// only on the P-core PMU, as the paper notes).
enum class CountKind : std::uint64_t {
  kInstructions = 0,
  kCycles,
  kRefCycles,        // cycles at base frequency (TSC-like)
  kLlcReferences,
  kLlcMisses,
  kBranches,
  kBranchMisses,
  kStalledCycles,
  kFlopsDp,          // scalar+vector double-precision flops
  kTopdownSlots,     // P-core only
  kTopdownRetiring,  // P-core only
  kTopdownBadSpec,   // P-core only
  kContextSwitches,  // software event
  kMigrations,       // software event
  kTaskClockNs,      // software event
  kEnergyPkgUj,      // RAPL package energy, microjoules
  kEnergyCoresUj,    // RAPL core-domain energy
  kEnergyDramUj,     // RAPL DRAM-domain energy
  kUncoreCasReads,   // IMC read CAS commands
  kUncoreCasWrites,  // IMC write CAS commands
  kCount,
};

inline constexpr std::uint64_t kNumCountKinds =
    static_cast<std::uint64_t>(CountKind::kCount);

/// attr.read_format bits (subset).
enum ReadFormat : std::uint64_t {
  kFormatTotalTimeEnabled = 1u << 0,
  kFormatTotalTimeRunning = 1u << 1,
  kFormatId = 1u << 2,
  kFormatGroup = 1u << 3,
};

/// attr.sample_type bits (PERF_SAMPLE_*, kernel values). Selects which
/// fields each PERF_RECORD_SAMPLE carries, in this fixed order.
enum SampleType : std::uint64_t {
  kSampleIp = 1u << 0,
  kSampleTid = 1u << 1,
  kSampleTime = 1u << 2,
  kSampleCpu = 1u << 7,
  kSamplePeriod = 1u << 8,
};

/// The sample layout the simulated kernel writes when a sampling event
/// leaves attr.sample_type at 0 (and the only bits it implements).
inline constexpr std::uint64_t kSampleTypeDefault =
    kSampleIp | kSampleTid | kSampleTime | kSampleCpu | kSamplePeriod;

/// perf_event_attr equivalent.
struct PerfEventAttr {
  std::uint32_t type = 0;    // PMU type id
  std::uint64_t config = 0;  // PMU-specific event encoding
  std::uint64_t read_format = 0;
  /// Sampling: an overflow notification fires every `sample_period`
  /// counts (0 = pure counting mode). The PAPI layer builds its
  /// PAPI_overflow support on this, period, like the real library does
  /// with the kernel's signal delivery.
  std::uint64_t sample_period = 0;
  /// PERF_SAMPLE_* bits for the ring records (0 = kSampleTypeDefault
  /// when sampling). Bits outside kSampleTypeDefault are rejected at
  /// open, the way the kernel EINVALs unknown sample_type bits.
  std::uint64_t sample_type = 0;
  /// Wake the poll(2) side up every `wakeup_events` samples (0 = every
  /// ring write makes the fd readable, the mmap-watermark default).
  std::uint32_t wakeup_events = 0;
  bool disabled = false;     // start disabled (enable via ioctl)
  bool inherit = false;
  bool pinned = false;       // must always be on the PMU or error out
  bool exclude_kernel = false;
  bool exclude_idle = false;
};

/// One event's read value.
struct PerfValue {
  std::uint64_t value = 0;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;

  /// Multiplex-scaled estimate, as PAPI and perf compute it.
  double scaled() const {
    if (time_running_ns == 0) return 0.0;
    return static_cast<double>(value) *
           (static_cast<double>(time_enabled_ns) /
            static_cast<double>(time_running_ns));
  }
};

/// perf_event_mmap_page capability bit: userspace may read this counter
/// with rdpmc while the page's `index` is non-zero.
inline constexpr std::uint64_t kCapUserRdpmc = 1ull << 2;

/// Marks a simulated user page: the kernel zeroes the reserved region at
/// byte 96, so a real mmap'd page can never carry this value and readers
/// can distinguish "execute the rdpmc instruction" from "take the
/// simulated counter the page itself publishes".
inline constexpr std::uint32_t kSimUserPageMagic = 0x53494d70;  // "SIMp"

/// First page of the perf_event mmap region (struct perf_event_mmap_page).
///
/// The field layout up to byte 96 matches the kernel ABI bit-for-bit
/// (static_asserts below), so LinuxBackend can hand out a pointer into a
/// real mmap'd page and the same reader code works against both
/// backends. The seqlock contract is the kernel's: `lock` is bumped to
/// odd before an update and back to even after; readers capture `lock`,
/// read the fields (and issue rdpmc *inside* the window), then re-read
/// `lock` and retry on any change. `index` is zero while the event is
/// not resident on a hardware counter (disabled, multiplexed out, or the
/// thread migrated to a core type the PMU does not serve); otherwise the
/// counter value is `offset` + rdpmc(`index` - 1) sign-extended to
/// `pmc_width` bits. time_enabled/time_running let page-served reads
/// apply the same multiplex scaling as the fd path.
struct PerfUserPage {
  std::uint32_t version = 0;
  std::uint32_t compat_version = 0;
  std::uint32_t lock = 0;
  std::uint32_t index = 0;
  std::int64_t offset = 0;
  std::uint64_t time_enabled = 0;  // ns
  std::uint64_t time_running = 0;  // ns
  std::uint64_t capabilities = 0;
  std::uint16_t pmc_width = 0;
  std::uint16_t time_shift = 0;
  std::uint32_t time_mult = 0;
  std::uint64_t time_offset = 0;
  std::uint64_t time_zero = 0;
  std::uint32_t size = 0;
  std::uint32_t reserved1 = 0;
  std::uint64_t time_cycles = 0;
  std::uint64_t time_mask = 0;
  // --- kernel-reserved region (zero on real pages) ----------------------
  /// kSimUserPageMagic on pages minted by the simulated kernel.
  std::uint32_t sim_magic = 0;
  std::uint32_t sim_pad = 0;
  /// The simulated hardware counter: what the rdpmc instruction would
  /// return for `index` - 1, i.e. counts accumulated since the event
  /// last became resident (the page's `offset` carries the rest).
  std::uint64_t sim_pmc = 0;
  /// Pad out the rest of the kernel's reserved region so the ring
  /// control words land at their real ABI offsets below.
  std::uint8_t sim_reserved[912] = {};
  // --- sample ring control (kernel offsets 1024..1055) -------------------
  /// Writer cursor: byte position (free-running, mod data_size) one past
  /// the last record the kernel published. The write is release-ordered;
  /// readers consume [data_tail, data_head) and then store data_tail.
  std::uint64_t data_head = 0;
  /// Reader cursor: written by userspace after consuming records, so the
  /// kernel knows how much of the ring it may overwrite.
  std::uint64_t data_tail = 0;
  /// Byte offset of the ring data area from the start of the mmap (one
  /// page on real kernels; the sim ring is a separate allocation and
  /// keeps the field for ABI shape).
  std::uint64_t data_offset = 0;
  std::uint64_t data_size = 0;  // ring data area size, bytes
};

static_assert(offsetof(PerfUserPage, lock) == 8);
static_assert(offsetof(PerfUserPage, index) == 12);
static_assert(offsetof(PerfUserPage, offset) == 16);
static_assert(offsetof(PerfUserPage, time_enabled) == 24);
static_assert(offsetof(PerfUserPage, time_running) == 32);
static_assert(offsetof(PerfUserPage, capabilities) == 40);
static_assert(offsetof(PerfUserPage, pmc_width) == 48);
static_assert(offsetof(PerfUserPage, time_cycles) == 80);
static_assert(offsetof(PerfUserPage, sim_magic) == 96,
              "sim extension must sit in the kernel's reserved region");
static_assert(offsetof(PerfUserPage, data_head) == 1024,
              "ring control words must sit at the kernel ABI offsets");
static_assert(offsetof(PerfUserPage, data_tail) == 1032);
static_assert(offsetof(PerfUserPage, data_offset) == 1040);
static_assert(offsetof(PerfUserPage, data_size) == 1048);

/// perf_event_header: leads every record in the sample ring.
struct PerfEventHeader {
  std::uint32_t type = 0;  // PerfRecordType
  std::uint16_t misc = 0;
  std::uint16_t size = 0;  // total record size including this header
};
static_assert(sizeof(PerfEventHeader) == 8);

/// Record types (kernel values, subset).
enum PerfRecordType : std::uint32_t {
  kPerfRecordLost = 2,
  kPerfRecordSample = 9,
};

/// header.misc bits (subset).
inline constexpr std::uint16_t kPerfRecordMiscUser = 2;

/// Decoded PERF_RECORD_SAMPLE body (fields present per sample_type).
struct PerfSampleParsed {
  std::uint64_t ip = 0;       // kSampleIp
  std::uint32_t pid = 0;      // kSampleTid
  std::uint32_t tid = 0;      // kSampleTid
  std::uint64_t time = 0;     // kSampleTime, ns
  std::uint32_t cpu = 0;      // kSampleCpu
  std::uint64_t period = 0;   // kSamplePeriod
};

/// Decoded PERF_RECORD_LOST body.
struct PerfLostParsed {
  std::uint64_t id = 0;    // perturbed stream (the sim stores the fd)
  std::uint64_t lost = 0;  // records dropped while the ring was full
};

/// Bytes a SAMPLE record body occupies for a given sample_type mask
/// (every implemented field is 8 bytes or a packed pair of u32s).
inline constexpr std::uint64_t perf_sample_body_size(
    std::uint64_t sample_type) {
  std::uint64_t size = 0;
  if (sample_type & kSampleIp) size += 8;
  if (sample_type & kSampleTid) size += 8;    // u32 pid + u32 tid
  if (sample_type & kSampleTime) size += 8;
  if (sample_type & kSampleCpu) size += 8;    // u32 cpu + u32 res
  if (sample_type & kSamplePeriod) size += 8;
  return size;
}

/// Bytes a whole SAMPLE record (header + body) occupies.
inline constexpr std::uint64_t perf_sample_record_size(
    std::uint64_t sample_type) {
  return sizeof(PerfEventHeader) + perf_sample_body_size(sample_type);
}

/// Bytes a whole LOST record (header + u64 id + u64 lost) occupies.
inline constexpr std::uint64_t kPerfLostRecordSize =
    sizeof(PerfEventHeader) + 16;

/// A mapped sample ring: the control page plus the data area. On the
/// simulated backend `data` points at the kernel-owned ring allocation;
/// on LinuxBackend it is `page + data_offset` inside one mmap.
struct PerfRingView {
  PerfUserPage* page = nullptr;
  const std::uint8_t* data = nullptr;
  std::uint64_t size = 0;  // bytes (== page->data_size)
  /// The sample_type the ring's SAMPLE records were written with —
  /// recorded at mmap time so decoders need no fd round-trip.
  std::uint64_t sample_type = kSampleTypeDefault;
};

/// The writer half of the ring protocol: append one record of `size`
/// bytes at data_head, then publish the new head. Returns false (and
/// writes nothing) when the unread span leaves too little room. At most
/// two copies, split where the record wraps past the end of the data
/// area, so records may straddle it whatever the area's size.
inline bool perf_ring_write(PerfUserPage& page, std::uint8_t* data,
                            std::uint64_t data_size, const void* record,
                            std::size_t size) {
  // data_head/data_tail are free-running; the unread span is their
  // difference (unsigned wrap math, kernel-style).
  if (data_size == 0 || page.data_head - page.data_tail + size > data_size) {
    return false;
  }
  const auto* src = static_cast<const std::uint8_t*>(record);
  const std::uint64_t at = page.data_head % data_size;
  const std::size_t first =
      static_cast<std::size_t>(std::min<std::uint64_t>(size, data_size - at));
  std::memcpy(data + at, src, first);
  std::memcpy(data, src + first, size - first);
  // Publish the head only after the record bytes — the release half of
  // the head/tail protocol (a signal fence suffices for the
  // single-threaded simulated writer, mirroring the user page's seqlock).
  std::atomic_signal_fence(std::memory_order_seq_cst);
  page.data_head += size;
  return true;
}

/// The safe drain loop over a PerfRingView, shared by every reader (the
/// sim kernel's own read_samples, the PAPI drain, tools): walks
/// [data_tail, data_head), handles wrap-around, bounds-checks every
/// header before trusting header.size, and only advances data_tail on
/// commit() — the reader half of the ring protocol.
class PerfRingCursor {
 public:
  explicit PerfRingCursor(const PerfRingView& view)
      : view_(view),
        head_(view.page != nullptr ? view.page->data_head : 0),
        pos_(view.page != nullptr ? view.page->data_tail : 0) {}

  /// Copy the next record (header + body) into `header`/`body`; returns
  /// false at the end of the ring. A header that is malformed (size
  /// smaller than the header itself, or larger than the unread span)
  /// stops the walk and marks the cursor malformed; commit() then
  /// resynchronizes the reader to data_head so one corrupt record
  /// cannot wedge the ring forever.
  bool next(PerfEventHeader* header, std::uint8_t* body,
            std::size_t body_capacity) {
    if (view_.page == nullptr || view_.data == nullptr ||
        view_.size < sizeof(PerfEventHeader)) {
      return false;
    }
    if (malformed_ || head_ - pos_ < sizeof(PerfEventHeader)) return false;
    PerfEventHeader hdr;
    copy_wrapped(pos_, reinterpret_cast<std::uint8_t*>(&hdr), sizeof(hdr));
    if (hdr.size < sizeof(PerfEventHeader) || hdr.size > head_ - pos_ ||
        hdr.size > view_.size) {
      malformed_ = true;
      return false;
    }
    const std::size_t body_size = hdr.size - sizeof(PerfEventHeader);
    if (body_size > body_capacity) {
      malformed_ = true;
      return false;
    }
    copy_wrapped(pos_ + sizeof(PerfEventHeader), body, body_size);
    pos_ += hdr.size;
    *header = hdr;
    return true;
  }

  bool malformed() const { return malformed_; }

  /// Publish the reader position: everything consumed (or, after a
  /// malformed header, the whole ring) is handed back to the writer.
  void commit() {
    if (view_.page == nullptr) return;
    view_.page->data_tail = malformed_ ? head_ : pos_;
  }

 private:
  /// Copy `n` bytes starting at free-running position `from`: at most
  /// two memcpys, split where the span wraps past the end of the data
  /// area (records may straddle it).
  void copy_wrapped(std::uint64_t from, std::uint8_t* out,
                    std::size_t n) const {
    const std::uint64_t at = from % view_.size;
    const std::size_t first =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, view_.size - at));
    std::memcpy(out, view_.data + at, first);
    std::memcpy(out + first, view_.data, n - first);
  }

  PerfRingView view_;
  std::uint64_t head_ = 0;
  std::uint64_t pos_ = 0;
  bool malformed_ = false;
};

/// Decode a SAMPLE body laid out per `sample_type`. Returns false when
/// the body is shorter than the mask requires.
inline bool perf_parse_sample(std::uint64_t sample_type,
                              const std::uint8_t* body, std::size_t size,
                              PerfSampleParsed* out) {
  if (size < perf_sample_body_size(sample_type)) return false;
  std::size_t at = 0;
  const auto take64 = [&] {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(body[at + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    at += 8;
    return v;
  };
  if (sample_type & kSampleIp) out->ip = take64();
  if (sample_type & kSampleTid) {
    const std::uint64_t packed = take64();
    out->pid = static_cast<std::uint32_t>(packed & 0xffffffffu);
    out->tid = static_cast<std::uint32_t>(packed >> 32);
  }
  if (sample_type & kSampleTime) out->time = take64();
  if (sample_type & kSampleCpu) {
    out->cpu = static_cast<std::uint32_t>(take64() & 0xffffffffu);
  }
  if (sample_type & kSamplePeriod) out->period = take64();
  return true;
}

/// Decode a LOST body (u64 id, u64 lost).
inline bool perf_parse_lost(const std::uint8_t* body, std::size_t size,
                            PerfLostParsed* out) {
  if (size < 16) return false;
  std::uint64_t v[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 8; ++i) {
      v[w] |= static_cast<std::uint64_t>(
                  body[static_cast<std::size_t>(w * 8 + i)])
              << (8 * i);
    }
  }
  out->id = v[0];
  out->lost = v[1];
  return true;
}

/// ioctl requests (names follow the kernel's).
enum class PerfIoctl {
  kEnable,
  kDisable,
  kReset,
};

/// ioctl flags.
enum PerfIoctlFlags : std::uint32_t {
  kIocFlagNone = 0,
  kIocFlagGroup = 1,  // apply to the whole group
};

/// perf_event_open flags (subset; we accept and ignore CLOEXEC).
enum PerfOpenFlags : std::uint64_t {
  kOpenFlagNone = 0,
  kOpenFlagFdCloexec = 1u << 3,
};

}  // namespace hetpapi::simkernel
