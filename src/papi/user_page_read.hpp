// Seqlock-correct reader for the perf_event user page (§V-5).
//
// The canonical kernel-documented protocol: capture `lock`, read the
// published fields — and issue the rdpmc instruction — strictly inside
// the window, re-read `lock`, and retry if it moved (the writer updated
// the page mid-read; any value assembled from those fields could mix
// epochs). The loads go through volatile references so the compiler
// cannot cache or reorder them across the signal fences; real
// concurrent writers (the kernel updates the page from NMI context) and
// the simulated kernel's publish both look identical to this reader.
//
// Against the simulated backend the page carries kSimUserPageMagic in
// the kernel-reserved region and publishes the would-be rdpmc value in
// `sim_pmc`; against a real mmap'd page that region reads zero and the
// reader executes the actual rdpmc instruction with the page's
// pmc_width sign-extension. Either way the caller gets the same
// `offset + pmc` counter the fd path would return, without a syscall.
#pragma once

#include <atomic>
#include <cstdint>

#include "simkernel/perf_abi.hpp"

namespace hetpapi::papi {

enum class UserPageReadResult {
  kOk,
  /// index == 0: disabled, multiplexed out, or the thread migrated to a
  /// core type the PMU does not serve. Fall back to read(2).
  kNotResident,
  /// cap_user_rdpmc is off (locked-down host / sim config), or this
  /// build cannot execute rdpmc against a real page.
  kNoRdpmc,
  /// The writer kept invalidating the window for the whole retry
  /// budget. Fall back to read(2).
  kRetriesExhausted,
};

struct UserPageSample {
  std::uint64_t value = 0;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
};

/// Seqlock retry budget per page read before falling back to the fd
/// path; generous, since a stuck-odd page means a dead writer.
inline constexpr int kRdpmcMaxRetries = 16;

/// Test seam: invoked with 2*attempt after the seq capture and
/// 2*attempt+1 after the field reads, so a test can mutate the page at
/// either point and prove the retry loop never returns a torn value.
struct UserPageNoHook {
  void operator()(int) const {}
};

template <typename Hook = UserPageNoHook>
inline UserPageReadResult read_user_page(const simkernel::PerfUserPage& page,
                                         UserPageSample& out,
                                         int max_retries = kRdpmcMaxRetries,
                                         Hook&& hook = Hook{}) {
  const auto load_u32 = [](const std::uint32_t& field) {
    return *static_cast<const volatile std::uint32_t*>(&field);
  };
  const auto load_u64 = [](const std::uint64_t& field) {
    return *static_cast<const volatile std::uint64_t*>(&field);
  };
  const auto load_i64 = [](const std::int64_t& field) {
    return *static_cast<const volatile std::int64_t*>(&field);
  };
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    const std::uint32_t seq = load_u32(page.lock);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    hook(2 * attempt);
    if ((seq & 1u) != 0) continue;  // writer mid-update
    const std::uint32_t index = load_u32(page.index);
    const std::uint64_t caps = load_u64(page.capabilities);
    const std::int64_t offset = load_i64(page.offset);
    const std::uint64_t time_enabled = load_u64(page.time_enabled);
    const std::uint64_t time_running = load_u64(page.time_running);
    const bool simulated =
        load_u32(page.sim_magic) == simkernel::kSimUserPageMagic;
    const bool resident =
        (caps & simkernel::kCapUserRdpmc) != 0 && index != 0;
    std::uint64_t pmc = 0;
    bool no_hardware = false;
    if (resident) {
      if (simulated) {
        pmc = load_u64(page.sim_pmc);
      } else {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        std::uint64_t raw =
            __builtin_ia32_rdpmc(static_cast<int>(index - 1));
        const std::uint16_t width =
            *static_cast<const volatile std::uint16_t*>(&page.pmc_width);
        if (width != 0 && width < 64) {
          // Sign-extend from pmc_width bits, as the kernel documents:
          // offset already carries the high part, modular addition below
          // reconstructs the full count.
          raw <<= 64 - width;
          pmc = static_cast<std::uint64_t>(static_cast<std::int64_t>(raw) >>
                                           (64 - width));
        } else {
          pmc = raw;
        }
#else
        no_hardware = true;
#endif
      }
    }
    hook(2 * attempt + 1);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (load_u32(page.lock) != seq) continue;  // torn window: retry
    // The window was consistent; now the captured fields may be acted on.
    if ((caps & simkernel::kCapUserRdpmc) == 0) {
      return UserPageReadResult::kNoRdpmc;
    }
    if (index == 0) return UserPageReadResult::kNotResident;
    if (no_hardware) return UserPageReadResult::kNoRdpmc;
    out.value = static_cast<std::uint64_t>(offset) + pmc;
    out.time_enabled_ns = time_enabled;
    out.time_running_ns = time_running;
    return UserPageReadResult::kOk;
  }
  return UserPageReadResult::kRetriesExhausted;
}

}  // namespace hetpapi::papi
