#include "simkernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "base/log.hpp"
#include "base/strings.hpp"

namespace hetpapi::simkernel {
namespace {

/// `machine`, once it validates. The governor, scheduler and PMU
/// registry index per-cluster and per-type arrays with the spec's ids,
/// so an invalid spec stops the process here, before any of them is
/// built from it.
cpumodel::MachineSpec validated(cpumodel::MachineSpec machine) {
  const Status valid = machine.validate();
  if (!valid.is_ok()) {
    std::fprintf(stderr, "SimKernel: invalid machine spec: %s\n",
                 valid.to_string().c_str());
    std::abort();
  }
  return machine;
}

}  // namespace

SimKernel::SimKernel(cpumodel::MachineSpec machine, Config config)
    : machine_(validated(std::move(machine))),
      config_(config),
      pmus_(PmuRegistry::build(machine_)),
      governor_(machine_, config.seed ^ 0x9d2c5680ULL),
      scheduler_(&machine_, config.sched, config.seed ^ 0x5bd1e995ULL),
      perf_(&pmus_, config.perf),
      rng_(config.seed) {
  last_assignment_.assign(static_cast<std::size_t>(machine_.num_cpus()),
                          kInvalidTid);
  build_static_sysfs();
}

// --- process management ----------------------------------------------------

Tid SimKernel::spawn(std::shared_ptr<Program> program) {
  return spawn(std::move(program), CpuSet::all(machine_.num_cpus()));
}

Tid SimKernel::spawn(std::shared_ptr<Program> program, const CpuSet& affinity) {
  SimThread thread;
  thread.tid = next_tid_++;
  thread.group_leader = thread.tid;
  thread.program = std::move(program);
  thread.affinity = affinity;
  thread.truth.per_type.resize(machine_.core_types.size());
  thread.truth.time_per_type.resize(machine_.core_types.size(),
                                    SimDuration{0});
  threads_.push_back(std::move(thread));
  ++alive_count_;
  return threads_.back().tid;
}

Expected<Tid> SimKernel::spawn_in_group(std::shared_ptr<Program> program,
                                        const CpuSet& affinity, Tid leader) {
  const SimThread* lead = find_thread(leader);
  if (lead == nullptr) {
    return make_error(StatusCode::kNotFound, "no such group leader");
  }
  const Tid tid = spawn(std::move(program), affinity);
  // Join the leader's group (transitively flattened, like thread-group
  // ids on Linux).
  threads_.back().group_leader = lead->group_leader;
  return tid;
}

Status SimKernel::set_affinity(Tid tid, const CpuSet& affinity) {
  SimThread* thread = find_thread(tid);
  if (thread == nullptr) {
    return make_error(StatusCode::kNotFound, "no such thread");
  }
  if (affinity.empty()) {
    return make_error(StatusCode::kInvalidArgument, "empty affinity mask");
  }
  for (int cpu : affinity.to_list()) {
    if (cpu >= machine_.num_cpus()) {
      return make_error(StatusCode::kInvalidArgument,
                        "cpu " + std::to_string(cpu) + " does not exist");
    }
  }
  thread->affinity = affinity;
  return Status::ok();
}

bool SimKernel::thread_alive(Tid tid) const {
  const SimThread* thread = find_thread(tid);
  return thread != nullptr && thread->state != ThreadState::kExited;
}

const ThreadGroundTruth* SimKernel::ground_truth(Tid tid) const {
  const SimThread* thread = find_thread(tid);
  return thread == nullptr ? nullptr : &thread->truth;
}

void SimKernel::inject_instructions(Tid tid, std::uint64_t count) {
  if (SimThread* thread = find_thread(tid)) {
    thread->pending_instructions += count;
  }
}

// --- time loop ---------------------------------------------------------------

void SimKernel::run_for(SimDuration duration) {
  const SimTime deadline = now_ + duration;
  while (now_ < deadline) tick_once();
}

SimDuration SimKernel::run_until_idle(SimDuration max) {
  const SimTime start = now_;
  const SimTime deadline = now_ + max;
  while (any_thread_alive() && now_ < deadline) tick_once();
  return now_ - start;
}

void SimKernel::tick_once() {
  const SimDuration dt = config_.tick;
  const auto num_cpus = static_cast<std::size_t>(machine_.num_cpus());
  const double dt_seconds = std::chrono::duration<double>(dt).count();

  if (alive_count_ == 0) {
    // Idle fast path. With zero runnable threads the scheduler draws no
    // RNG (it only rolls per runnable thread) and the execution loop is
    // a no-op, so this tick is bit-identical to the full path — only
    // power/thermal decay, multiplex rotation and the DRAM idle floor
    // still advance. The first idle tick also closes any open tracer
    // segments, exactly as the full path's assignment diff would.
    for (std::size_t cpu = 0; cpu < num_cpus; ++cpu) {
      if (last_assignment_[cpu] == kInvalidTid) continue;
      if (tracer_ != nullptr) {
        tracer_->end_segment(static_cast<int>(cpu), now_);
      }
      last_assignment_[cpu] = kInvalidTid;
    }
    loads_.assign(num_cpus, cpumodel::CpuLoad{});
    dram_energy_j_ += 2.0 * dt_seconds;
    governor_.step(dt, loads_);
    perf_.rotate(now_);
    memory_contention_ = 1.0;
    now_ += dt;
    return;
  }

  // 1. Schedule.
  runnable_.clear();
  for (SimThread& thread : threads_) {
    if (thread.state != ThreadState::kExited) runnable_.push_back(&thread);
  }
  scheduler_.assign(runnable_, dt, assignment_);

  // 2. Context-switch / migration accounting.
  for (SimThread* thread : runnable_) {
    const int new_cpu = thread->placed_cpu;
    if (thread->current_cpu >= 0 && new_cpu != thread->current_cpu) {
      ++thread->truth.context_switches;
      perf_.on_software(thread->tid, CountKind::kContextSwitches, 1);
    }
    if (new_cpu >= 0 && thread->last_cpu >= 0 && new_cpu != thread->last_cpu) {
      ++thread->truth.migrations;
      perf_.on_software(thread->tid, CountKind::kMigrations, 1);
    }
    thread->current_cpu = new_cpu;
    if (new_cpu >= 0) thread->last_cpu = new_cpu;
  }
  if (tracer_ != nullptr) {
    for (std::size_t cpu = 0; cpu < num_cpus; ++cpu) {
      if (assignment_[cpu] == last_assignment_[cpu]) continue;
      if (last_assignment_[cpu] != kInvalidTid) {
        tracer_->end_segment(static_cast<int>(cpu), now_);
      }
      if (assignment_[cpu] != kInvalidTid) {
        tracer_->begin_segment(static_cast<int>(cpu), assignment_[cpu], now_);
      }
    }
  }

  // 3. Execute slices at the frequencies chosen last tick.
  loads_.assign(num_cpus, cpumodel::CpuLoad{});
  std::uint64_t tick_miss_bytes = 0;
  for (std::size_t cpu = 0; cpu < num_cpus; ++cpu) {
    const Tid tid = assignment_[cpu];
    if (tid == kInvalidTid) continue;
    SimThread& thread = threads_[static_cast<std::size_t>(tid)];

    ExecContext ctx;
    const cpumodel::CoreTypeId type_id = machine_.cpus[cpu].type;
    ctx.core_type = &machine_.core_types[static_cast<std::size_t>(type_id)];
    ctx.core_type_id = type_id;
    ctx.cpu = static_cast<int>(cpu);
    ctx.frequency = governor_.frequency(static_cast<int>(cpu));
    ctx.now = now_;
    ctx.memory_contention = memory_contention_;
    ctx.rng = &rng_;

    ExecSlice slice = thread.program->run(ctx, dt);
    if (slice.consumed > dt) slice.consumed = dt;
    if (slice.consumed <= SimDuration{0} && !slice.finished) {
      HETPAPI_ERROR << "program for tid " << tid
                    << " consumed no time without finishing; aborting thread";
      thread.state = ThreadState::kExited;
      thread.current_cpu = -1;
      --alive_count_;
      continue;
    }

    // Fold in measurement-overhead instructions injected by the library
    // layer (they execute as part of the thread on whatever core it is
    // currently on, exactly like the real PAPI calipers).
    std::uint64_t& extra = thread.pending_instructions;
    if (extra > 0) {
      slice.counts.instructions += extra;
      slice.counts.cycles += extra / 2;
      slice.counts.branches += extra / 8;
      extra = 0;
    }

    // Ground truth + perf attribution.
    auto& truth = thread.truth;
    truth.per_type[static_cast<std::size_t>(type_id)] += slice.counts;
    truth.time_per_type[static_cast<std::size_t>(type_id)] += slice.consumed;
    truth.total_cpu_time += slice.consumed;
    scheduler_.charge(thread, static_cast<int>(cpu), slice.consumed);
    // Task clock accrues inside on_execution's software-event handling.
    perf_.on_execution(tid, thread.group_leader, static_cast<int>(cpu),
                       type_id, slice.counts, slice.consumed, now_,
                       slice.sample_ip);
    perf_.on_cpu_execution(static_cast<int>(cpu), type_id, slice.counts,
                           slice.consumed, tid, now_, slice.sample_ip);

    const double util =
        std::chrono::duration<double>(slice.consumed).count() / dt_seconds;
    loads_[cpu].util = util;
    loads_[cpu].activity = slice.activity;

    tick_miss_bytes += slice.counts.llc_misses * 64;

    if (slice.finished) {
      thread.state = ThreadState::kExited;
      thread.current_cpu = -1;
      --alive_count_;
      if (tracer_ != nullptr) {
        tracer_->end_segment(static_cast<int>(cpu), now_ + slice.consumed);
      }
    }
  }

  // 4. IMC traffic: LLC miss lines plus an approximate writeback share.
  imc_reads_ += tick_miss_bytes / 64;
  imc_writes_ += tick_miss_bytes / 64 / 4;
  // DRAM energy: ~2 W refresh/idle floor plus ~60 pJ/byte transferred.
  dram_energy_j_ +=
      2.0 * dt_seconds + static_cast<double>(tick_miss_bytes) * 60e-12;

  // 5. Power/thermal/DVFS for the next tick.
  governor_.step(dt, loads_);

  // 6. Multiplex rotation.
  perf_.rotate(now_);

  // 7. Memory contention for the next tick: demand above the sustained
  //    bandwidth cap inflates everyone's effective miss latency.
  const double demand_gbs =
      static_cast<double>(tick_miss_bytes) / dt_seconds / 1e9;
  memory_contention_ =
      std::max(1.0, demand_gbs / machine_.memory.bandwidth_gbs);

  now_ += dt;
  last_assignment_.swap(assignment_);
}

// --- perf syscalls -----------------------------------------------------------

PackageCounters SimKernel::package_counters() const {
  PackageCounters pkg;
  const double pkg_uj = governor_.rapl().total_energy().value * 1e6;
  pkg.energy_pkg_uj = static_cast<std::uint64_t>(pkg_uj);
  // Core-domain energy: package minus the roughly constant uncore share.
  pkg.energy_cores_uj = static_cast<std::uint64_t>(pkg_uj * 0.82);
  pkg.energy_dram_uj = static_cast<std::uint64_t>(dram_energy_j_ * 1e6);
  pkg.imc_cas_reads = imc_reads_;
  pkg.imc_cas_writes = imc_writes_;
  return pkg;
}

Expected<int> SimKernel::perf_event_open(const PerfEventAttr& attr, Tid tid,
                                         int cpu, int group_fd,
                                         std::uint64_t flags) {
  if (tid >= 0 && find_thread(tid) == nullptr) {
    return make_error(StatusCode::kNotFound, "no such thread (ESRCH)");
  }
  if (cpu >= machine_.num_cpus()) {
    return make_error(StatusCode::kInvalidArgument, "no such cpu");
  }
  return perf_.open(attr, tid, cpu, group_fd, flags, package_counters(),
                    now_);
}

Status SimKernel::perf_ioctl(int fd, PerfIoctl op, std::uint32_t flags) {
  return perf_.ioctl(fd, op, flags, package_counters(), now_);
}

Expected<PerfValue> SimKernel::perf_read(int fd) const {
  return perf_.read(fd, lazy_package_counters(), now_);
}

Status SimKernel::perf_close(int fd) { return perf_.close(fd); }

// --- CPUID -------------------------------------------------------------------

Expected<cpumodel::IntelCoreKind> SimKernel::cpuid_core_kind(int cpu) const {
  if (machine_.vendor != cpumodel::Vendor::kIntel) {
    return make_error(StatusCode::kNotSupported, "CPUID is x86-only");
  }
  if (cpu < 0 || cpu >= machine_.num_cpus()) {
    return make_error(StatusCode::kInvalidArgument, "no such cpu");
  }
  if (!machine_.exposes_cpuid_hybrid) {
    // Leaf 0x1A reads as zero on non-hybrid parts.
    return cpumodel::IntelCoreKind::kNone;
  }
  return machine_.type_of(cpu).ident.intel_kind;
}

}  // namespace hetpapi::simkernel
