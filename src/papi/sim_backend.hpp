// Backend over the simulated kernel.
#pragma once

#include "papi/backend.hpp"
#include "pfm/sim_host.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi::papi {

class SimBackend final : public Backend {
 public:
  explicit SimBackend(simkernel::SimKernel* kernel)
      : kernel_(kernel), host_(kernel) {}

  Expected<int> perf_event_open(const PerfEventAttr& attr, Tid tid, int cpu,
                                int group_fd, std::uint64_t flags) override {
    return kernel_->perf_event_open(attr, tid, cpu, group_fd, flags);
  }
  Status perf_ioctl(int fd, PerfIoctl op, std::uint32_t flags) override {
    return kernel_->perf_ioctl(fd, op, flags);
  }
  Status perf_read_group_into(int fd, std::vector<PerfValue>& out) override {
    return kernel_->perf_read_group_into(fd, out);
  }
  Expected<const simkernel::PerfUserPage*> perf_mmap_user_page(
      int fd) override {
    return kernel_->perf_mmap_user_page(fd);
  }
  Status perf_close(int fd) override { return kernel_->perf_close(fd); }

  Expected<simkernel::PerfRingView> perf_mmap_ring(int fd) override {
    return kernel_->perf_mmap_ring(fd);
  }
  Expected<bool> perf_ring_poll(int fd) override {
    return kernel_->perf_ring_poll(fd);
  }

  const pfm::Host& host() const override { return host_; }

  /// Sim processes are spawned explicitly; callers set the target.
  Tid default_target() const override { return default_target_; }
  void set_default_target(Tid tid) { default_target_ = tid; }

  void charge_call_overhead(Tid tid, std::uint64_t instructions) override {
    kernel_->inject_instructions(tid, instructions);
  }

  simkernel::SimKernel* kernel() { return kernel_; }

  /// Live perf events in the simulated kernel — the fd-leak invariant
  /// tests assert zero at teardown.
  std::size_t open_fd_count() const { return kernel_->perf().open_event_count(); }

 private:
  simkernel::SimKernel* kernel_;
  pfm::SimHost host_;
  Tid default_target_ = simkernel::kInvalidTid;
};

}  // namespace hetpapi::papi
