// Simulated thread control block.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/units.hpp"
#include "simkernel/program.hpp"

namespace hetpapi::simkernel {

using Tid = std::int32_t;
inline constexpr Tid kInvalidTid = -1;

enum class ThreadState {
  kRunnable,
  kRunning,
  kExited,
};

/// CPU affinity mask (taskset equivalent). Empty set = error; default
/// allows every cpu.
class CpuSet {
 public:
  static CpuSet all(int num_cpus) {
    CpuSet s;
    for (int c = 0; c < num_cpus; ++c) s.add(c);
    return s;
  }
  static CpuSet of(const std::vector<int>& cpus) {
    CpuSet s;
    for (int c : cpus) s.add(c);
    return s;
  }

  void add(int cpu) { bits_ |= (1ULL << cpu); }
  void remove(int cpu) { bits_ &= ~(1ULL << cpu); }
  bool contains(int cpu) const { return (bits_ >> cpu) & 1ULL; }
  bool empty() const { return bits_ == 0; }
  int count() const { return __builtin_popcountll(bits_); }
  std::uint64_t raw() const { return bits_; }

  std::vector<int> to_list() const {
    std::vector<int> out;
    for (int c = 0; c < 64; ++c) {
      if (contains(c)) out.push_back(c);
    }
    return out;
  }

 private:
  std::uint64_t bits_ = 0;
};

/// Ground-truth statistics the simulator keeps per thread, per core
/// type. Property tests compare perf_event readings against these.
struct ThreadGroundTruth {
  /// Indexed by core type id; resized at spawn.
  std::vector<ExecCounts> per_type;
  std::vector<SimDuration> time_per_type;
  std::uint64_t context_switches = 0;
  std::uint64_t migrations = 0;  // cpu-to-cpu moves
  SimDuration total_cpu_time{0};

  ExecCounts total() const {
    ExecCounts sum;
    for (const ExecCounts& c : per_type) sum += c;
    return sum;
  }
};

struct SimThread {
  Tid tid = kInvalidTid;
  /// Process-group leader (== tid for standalone threads). Events opened
  /// with attr.inherit on the leader also count the whole group — how
  /// `perf stat ./hpl` measures every worker thread of a run.
  Tid group_leader = kInvalidTid;
  ThreadState state = ThreadState::kRunnable;
  std::shared_ptr<Program> program;
  CpuSet affinity;
  /// CFS bookkeeping: capacity-weighted virtual runtime.
  double vruntime_ns = 0.0;
  /// Where the thread currently runs (-1 when not running).
  int current_cpu = -1;
  /// Last cpu it ran on (for migration counting & cache-affinity nudge).
  int last_cpu = -1;
  /// Where the scheduler placed it for the coming tick (-1 = waits).
  int placed_cpu = -1;
  /// Measurement-overhead instructions injected for its next slice.
  std::uint64_t pending_instructions = 0;
  ThreadGroundTruth truth;
};

}  // namespace hetpapi::simkernel
