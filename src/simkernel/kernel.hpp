// SimKernel: the simulated operating system the library runs against.
//
// Owns the machine model, the scheduler, the perf_event subsystem, the
// sysfs/procfs tree and simulated time. Advancing time executes the
// spawned programs on the modeled cores, drives DVFS/RAPL/thermal
// dynamics, and feeds microarchitectural counts to whichever perf events
// are live — giving the PAPI layer above it the same world a real hybrid
// Linux kernel presents.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "base/units.hpp"
#include "cpumodel/dvfs.hpp"
#include "cpumodel/machine.hpp"
#include "simkernel/perf_events.hpp"
#include "simkernel/pmu.hpp"
#include "simkernel/program.hpp"
#include "simkernel/scheduler.hpp"
#include "simkernel/thread.hpp"
#include "simkernel/trace.hpp"
#include "vfs/vfs.hpp"

namespace hetpapi::simkernel {

class SimKernel {
 public:
  struct Config {
    /// Simulation timestep. 500 us resolves scheduler churn and RAPL
    /// dynamics; long HPL runs use 1 ms for speed.
    SimDuration tick{std::chrono::microseconds(500)};
    std::uint64_t seed = 42;
    Scheduler::Config sched{};
    PerfSubsystem::Config perf{};
  };

  SimKernel(cpumodel::MachineSpec machine, Config config);
  explicit SimKernel(cpumodel::MachineSpec machine)
      : SimKernel(std::move(machine), Config{}) {}

  // --- process management ------------------------------------------------

  /// Spawn a thread running `program`. Default affinity: every cpu.
  Tid spawn(std::shared_ptr<Program> program);
  Tid spawn(std::shared_ptr<Program> program, const CpuSet& affinity);

  /// Spawn a thread into an existing thread's process group (fork/clone):
  /// inherit-mode events on the group leader count it too.
  Expected<Tid> spawn_in_group(std::shared_ptr<Program> program,
                               const CpuSet& affinity, Tid leader);

  /// sched_setaffinity equivalent (taskset).
  Status set_affinity(Tid tid, const CpuSet& affinity);

  bool thread_alive(Tid tid) const;
  /// Ground truth: what the thread actually executed, per core type.
  const ThreadGroundTruth* ground_truth(Tid tid) const;

  /// Inject extra retired instructions into a thread's next slice —
  /// models the user-space cost of measurement calls (the "minor
  /// overhead inherent in using PAPI" visible in the paper's validation
  /// numbers).
  void inject_instructions(Tid tid, std::uint64_t count);

  // --- time --------------------------------------------------------------

  SimTime now() const { return now_; }

  /// Advance exactly `duration` (rounded up to whole ticks).
  void run_for(SimDuration duration);

  /// Advance until every thread exits or `max` elapses; returns the
  /// time actually advanced.
  SimDuration run_until_idle(SimDuration max);

  bool any_thread_alive() const { return alive_count_ > 0; }

  // --- perf_event syscall surface ----------------------------------------

  Expected<int> perf_event_open(const PerfEventAttr& attr, Tid tid, int cpu,
                                int group_fd, std::uint64_t flags = 0);
  Status perf_ioctl(int fd, PerfIoctl op, std::uint32_t flags = 0);
  Expected<PerfValue> perf_read(int fd) const;
  /// Group read into a reused buffer (resized; capacity kept).
  Status perf_read_group_into(int fd, std::vector<PerfValue>& out) const {
    return perf_.read_group_into(fd, lazy_package_counters(), now_, out);
  }
  Expected<std::vector<PerfValue>> perf_read_group(int fd) const {
    std::vector<PerfValue> out;
    HETPAPI_RETURN_IF_ERROR(perf_read_group_into(fd, out));
    return out;
  }
  Expected<const PerfUserPage*> perf_mmap_user_page(int fd) const {
    return perf_.mmap_user_page(fd);
  }
  Status perf_close(int fd);
  Expected<std::uint64_t> perf_overflow_count(int fd) const {
    return perf_.overflow_count(fd);
  }
  Expected<PerfRingView> perf_mmap_ring(int fd) {
    return perf_.mmap_ring(fd);
  }
  Expected<bool> perf_ring_poll(int fd) { return perf_.ring_poll(fd); }
  const PerfSubsystem& perf() const { return perf_; }

  // --- introspection surfaces the detection code uses ---------------------

  /// Read a sysfs/procfs path. Dynamic attributes (scaling_cur_freq,
  /// thermal temps, RAPL energy_uj) are generated on demand, like sysfs
  /// show() callbacks; everything else is the static boot-time tree.
  Expected<std::string> sysfs_read(std::string_view path) const;

  /// List a sysfs directory.
  Expected<std::vector<std::string>> sysfs_list(std::string_view path) const;

  /// CPUID leaf 0x1A emulation: hybrid core kind of a cpu (Intel only;
  /// kNotSupported elsewhere, like executing CPUID on ARM).
  Expected<cpumodel::IntelCoreKind> cpuid_core_kind(int cpu) const;

  const cpumodel::MachineSpec& machine() const { return machine_; }
  const PmuRegistry& pmus() const { return pmus_; }
  cpumodel::PackageGovernor& governor() { return governor_; }
  const cpumodel::PackageGovernor& governor() const { return governor_; }

  PackageCounters package_counters() const;
  /// package_counters(), computed only if a read-through event asks.
  LazyPackageCounters lazy_package_counters() const {
    return LazyPackageCounters(
        [](const void* kernel) {
          return static_cast<const SimKernel*>(kernel)->package_counters();
        },
        this);
  }

  /// Total threads ever spawned (tests).
  int spawned_count() const { return next_tid_; }

  /// Attach a scheduler-timeline recorder (nullptr detaches). The
  /// recorder must outlive its attachment.
  void attach_tracer(TraceRecorder* tracer) { tracer_ = tracer; }

 private:
  void tick_once();
  void build_static_sysfs();

  cpumodel::MachineSpec machine_;
  Config config_;
  PmuRegistry pmus_;
  cpumodel::PackageGovernor governor_;
  Scheduler scheduler_;
  PerfSubsystem perf_;
  vfs::Vfs sysfs_;
  Rng rng_;
  SimTime now_{};

  /// Indexed by tid: tids are dense and never reused, and a deque keeps
  /// every thread at a stable address as it grows.
  std::deque<SimThread> threads_;
  SimThread* find_thread(Tid tid) {
    return tid >= 0 && static_cast<std::size_t>(tid) < threads_.size()
               ? &threads_[static_cast<std::size_t>(tid)]
               : nullptr;
  }
  const SimThread* find_thread(Tid tid) const {
    return const_cast<SimKernel*>(this)->find_thread(tid);
  }
  /// Threads not yet exited. Zero enables the idle fast-path tick: with
  /// no runnable thread, scheduling, placement accounting and execution
  /// consume no RNG and change no state, so they can be skipped
  /// bit-exactly while power/thermal/rotation still advance.
  std::size_t alive_count_ = 0;
  Tid next_tid_ = 0;
  /// Per-tick scratch, reused to keep the hot loop allocation-free.
  std::vector<SimThread*> runnable_;
  std::vector<Tid> assignment_;
  std::vector<cpumodel::CpuLoad> loads_;
  /// Previous tick's cpu assignment, for switch/migration accounting.
  std::vector<Tid> last_assignment_;
  /// Memory-bandwidth contention factor applied to the next tick.
  double memory_contention_ = 1.0;
  /// Free-running IMC counters.
  std::uint64_t imc_reads_ = 0;
  std::uint64_t imc_writes_ = 0;
  /// DRAM-domain energy (J): idle refresh floor plus per-byte access
  /// cost, integrated per tick.
  double dram_energy_j_ = 0.0;
  TraceRecorder* tracer_ = nullptr;
};

}  // namespace hetpapi::simkernel
