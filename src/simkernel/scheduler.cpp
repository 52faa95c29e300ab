#include "simkernel/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace hetpapi::simkernel {

namespace {

double compute_cpu_weight(const cpumodel::MachineSpec& machine, int cpu,
                          const Scheduler::Config& config) {
  const cpumodel::CoreTypeSpec& type = machine.type_of(cpu);
  switch (config.policy) {
    case PlacementPolicy::kUniform:
      return 1.0;
    case PlacementPolicy::kLittleFirst:
      return 1.0 / std::pow(static_cast<double>(type.cpu_capacity),
                            config.capacity_bias_exponent);
    case PlacementPolicy::kCapacityBiased:
      break;
  }
  return std::pow(static_cast<double>(type.cpu_capacity),
                  config.capacity_bias_exponent);
}

}  // namespace

Scheduler::Scheduler(const cpumodel::MachineSpec* machine, Config config,
                     std::uint64_t seed)
    : machine_(machine), config_(config), rng_(seed) {
  weights_.reserve(static_cast<std::size_t>(machine_->num_cpus()));
  for (int cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    weights_.push_back(compute_cpu_weight(*machine_, cpu, config_));
    vruntime_scale_.push_back(
        1024.0 /
        static_cast<double>(machine_->type_of(cpu).cpu_capacity));
  }
}

int Scheduler::pick_cpu(const SimThread& thread,
                        const std::vector<Tid>& assignment, bool force_move) {
  const auto taken = [&](int cpu) {
    return assignment[static_cast<std::size_t>(cpu)] != kInvalidTid;
  };
  // Cache affinity: stay put when allowed and not forced to move.
  if (!force_move && thread.last_cpu >= 0 &&
      thread.affinity.contains(thread.last_cpu) &&
      !taken(thread.last_cpu)) {
    return thread.last_cpu;
  }
  // Weighted choice among free allowed cpus, biased toward capacity.
  double total = 0.0;
  for (int cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    if (!thread.affinity.contains(cpu) || taken(cpu)) continue;
    total += cpu_weight(cpu);
  }
  if (total <= 0.0) return -1;
  double roll = rng_.uniform() * total;
  for (int cpu = 0; cpu < machine_->num_cpus(); ++cpu) {
    if (!thread.affinity.contains(cpu) || taken(cpu)) continue;
    roll -= cpu_weight(cpu);
    if (roll <= 0.0) return cpu;
  }
  return -1;  // unreachable given total > 0
}

void Scheduler::assign(const std::vector<SimThread*>& runnable,
                       SimDuration dt, std::vector<Tid>& assignment) {
  const auto num_cpus = static_cast<std::size_t>(machine_->num_cpus());
  assignment.assign(num_cpus, kInvalidTid);

  // Virtual-runtime order, ties in runnable order: a stable insertion
  // into the reused buffer (std::stable_sort allocates every call).
  order_.clear();
  for (SimThread* thread : runnable) {
    order_.insert(std::upper_bound(order_.begin(), order_.end(), thread,
                                   [](const SimThread* a, const SimThread* b) {
                                     return a->vruntime_ns < b->vruntime_ns;
                                   }),
                  thread);
  }

  const double move_probability =
      config_.migration_rate_hz * std::chrono::duration<double>(dt).count();
  for (SimThread* thread : order_) {
    if (thread->state == ThreadState::kExited) continue;
    const bool force_move = rng_.uniform() < move_probability;
    const int cpu = pick_cpu(*thread, assignment, force_move);
    thread->placed_cpu = cpu;
    if (cpu < 0) continue;  // time-share: waits for a later tick
    assignment[static_cast<std::size_t>(cpu)] = thread->tid;
  }
}

void Scheduler::charge(SimThread& thread, int cpu,
                       SimDuration consumed) const {
  thread.vruntime_ns += static_cast<double>(consumed.count()) *
                        vruntime_scale_[static_cast<std::size_t>(cpu)];
}

}  // namespace hetpapi::simkernel
