// Capacity-aware time-sharing scheduler.
//
// A deliberately simplified CFS/EAS blend: threads are picked in
// virtual-runtime order, vruntime advances inversely to the capacity of
// the core that ran them, and a low-rate load-balance perturbation
// re-places threads across allowed cpus with a bias toward
// higher-capacity cores (the Thread-Director-flavoured placement real
// hybrid kernels exhibit). That perturbation is what makes an unpinned
// thread visit both core types over a run — the behaviour the paper's
// papi_hybrid_100m_one_eventset validation depends on ("some
// instructions were on the P core, some on the E core").
#pragma once

#include <vector>

#include "base/rng.hpp"
#include "cpumodel/machine.hpp"
#include "simkernel/thread.hpp"

namespace hetpapi::simkernel {

/// Placement policies — ablations over the capacity bias the hybrid
/// kernels apply (Thread Director / EAS flavours vs a naive balancer).
enum class PlacementPolicy {
  /// Weight idle-cpu choice by capacity^bias (the default; reproduces
  /// the paper's §IV-F residency split).
  kCapacityBiased,
  /// Uniform random choice among allowed idle cpus (a scheduler with no
  /// idea that core types differ).
  kUniform,
  /// Prefer the *smallest* capacity first (battery-saver placement).
  kLittleFirst,
};

class Scheduler {
 public:
  struct Config {
    /// Mean frequency of forced re-placements per thread (Hz).
    double migration_rate_hz = 3.0;
    /// Placement weight = capacity^bias. 1.5 reproduces the ~5:1
    /// P-vs-E residency split measured in the paper's §IV-F run.
    double capacity_bias_exponent = 1.5;
    PlacementPolicy policy = PlacementPolicy::kCapacityBiased;
  };

  Scheduler(const cpumodel::MachineSpec* machine, Config config,
            std::uint64_t seed);

  /// Decide which thread runs on each cpu for the next `dt`.
  /// `runnable` holds every alive thread; `assignment` is resized to
  /// num_cpus and filled with tids (kInvalidTid = idle), and each
  /// thread's placed_cpu is set (-1 = waits).
  void assign(const std::vector<SimThread*>& runnable, SimDuration dt,
              std::vector<Tid>& assignment);

  /// Advance a thread's fairness clock after it consumed cpu time.
  void charge(SimThread& thread, int cpu, SimDuration consumed) const;

 private:
  int pick_cpu(const SimThread& thread, const std::vector<Tid>& assignment,
               bool force_move);
  double cpu_weight(int cpu) const {
    return weights_[static_cast<std::size_t>(cpu)];
  }

  const cpumodel::MachineSpec* machine_;
  Config config_;
  Rng rng_;
  /// Per-cpu placement weights (capacity^bias), precomputed once: the
  /// policy and machine are fixed for the scheduler's lifetime and the
  /// std::pow in the hot pick_cpu loop dominated its cost.
  std::vector<double> weights_;
  /// Per-cpu vruntime rate, 1024 / capacity, likewise precomputed.
  std::vector<double> vruntime_scale_;
  /// Scratch for assign(): reused across ticks to avoid reallocation.
  std::vector<SimThread*> order_;
};

}  // namespace hetpapi::simkernel
