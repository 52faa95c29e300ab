// Recorded simulated statistics of the hpl_table2 workload: one entry per
// problem size and kernel seed, OpenBLAS first, then Intel. The
// simulation is deterministic, so every run must reproduce its entry
// exactly. Regenerate with `perfbench --record-references` only when a
// change to the model is meant to alter the simulated results.
#pragma once

#include <cstdint>

namespace perfbench {

struct HplStats {
  double gflops = 0.0;
  std::int64_t elapsed_ns = 0;
  /// Instructions retired by all workers, per core type (P, E).
  std::uint64_t instructions[2] = {0, 0};
  std::uint64_t work_instructions = 0;
  std::uint64_t spin_instructions = 0;
};

struct HplReference {
  int n = 0;
  std::uint64_t kernel_seed = 0;
  HplStats variant[2];  // OpenBLAS, Intel
};

/// Benchmark seeds map onto kernel seeds kHplSeedBase + seed % count;
/// 42 is the seed the repository's Table II bench uses.
inline constexpr std::uint64_t kHplSeedBase = 42;
inline constexpr std::uint64_t kHplSeedCount = 8;

inline constexpr HplReference kHplReferences[] = {
#include "hpl_reference.inc"
};

inline const HplReference* find_hpl_reference(int n, std::uint64_t kernel_seed) {
  for (const HplReference& ref : kHplReferences) {
    if (ref.n == n && ref.kernel_seed == kernel_seed) return &ref;
  }
  return nullptr;
}

}  // namespace perfbench
