// Sample-based profiling on a hybrid machine.
//
// Arms PAPI_overflow-style sampling on a derived PAPI_TOT_INS preset
// while an unpinned worker runs, drains the sample rings once it is
// done, and builds a time histogram of where the samples land — P-core
// vs E-core — the sampling-side counterpart of the paper's per-PMU
// counting. Because the preset expands to one sampling event per core
// PMU, each sample carries the core type of the PMU that fired and the
// time its period crossing landed.
#include <cstdio>
#include <string>
#include <vector>

#include "base/strings.hpp"
#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

using namespace hetpapi;

int main() {
  simkernel::SimKernel::Config kernel_config;
  kernel_config.sched.migration_rate_hz = 25.0;
  simkernel::SimKernel kernel(cpumodel::raptor_lake_i7_13700(),
                              kernel_config);
  papi::SimBackend backend(&kernel);

  // An unpinned, phase-changing workload: compute bursts with memory
  // phases in between.
  auto program = std::make_shared<workload::WorkQueueProgram>();
  const simkernel::Tid tid = kernel.spawn(
      program, simkernel::CpuSet::all(kernel.machine().num_cpus()));
  for (int i = 0; i < 40; ++i) {
    workload::PhaseSpec compute;
    compute.flops_per_instr = 2.0;
    program->enqueue(compute, 400'000'000);
    program->enqueue(workload::phases::memory_bound(), 100'000'000);
  }
  program->finish();
  backend.set_default_target(tid);

  auto lib = papi::Library::init(&backend);
  if (!lib) {
    std::fprintf(stderr, "init: %s\n", lib.status().to_string().c_str());
    return 1;
  }
  const int set = *(*lib)->create_eventset();
  (void)(*lib)->add_event(set, "PAPI_TOT_INS");

  // One histogram bucket per 100 ms of simulated time.
  struct Bucket {
    std::uint64_t p = 0;
    std::uint64_t e = 0;
  };
  std::vector<Bucket> histogram;
  const auto bucket_for = [&](double seconds) -> Bucket& {
    const auto index = static_cast<std::size_t>(seconds * 10.0);
    if (index >= histogram.size()) histogram.resize(index + 1);
    return histogram[index];
  };

  const Status armed = (*lib)->set_overflow(
      set, 0, 5'000'000, nullptr);  // one sample every 5M instructions
  if (!armed.is_ok()) {
    std::fprintf(stderr, "set_overflow: %s\n", armed.to_string().c_str());
    return 1;
  }

  (void)(*lib)->start(set);
  kernel.run_until_idle(std::chrono::seconds(120));
  const auto values = (*lib)->stop(set);

  // One drain after stop() returns every record the rings hold.
  papi::SampleBatch batch;
  const Status drained = (*lib)->read_samples_into(set, batch);
  if (!drained.is_ok()) {
    std::fprintf(stderr, "read_samples: %s\n", drained.to_string().c_str());
    return 1;
  }
  const std::string p_core = (*lib)->core_type_for_pmu("adl_glc");
  for (const papi::Sample& sample : batch.samples) {
    Bucket& bucket = bucket_for(static_cast<double>(sample.time_ns) / 1e9);
    if (sample.core_type == p_core) {
      ++bucket.p;
    } else {
      ++bucket.e;
    }
  }

  std::printf("sampling profile: one sample per 5M instructions\n");
  std::printf("%-8s %-28s %-28s\n", "t (s)", "P-core samples", "E-core samples");
  std::uint64_t total_p = 0;
  std::uint64_t total_e = 0;
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    const Bucket& bucket = histogram[i];
    total_p += bucket.p;
    total_e += bucket.e;
    std::string p_bar(static_cast<std::size_t>(bucket.p), '#');
    std::string e_bar(static_cast<std::size_t>(bucket.e), '*');
    std::printf("%-8.1f %-28s %-28s\n", static_cast<double>(i) / 10.0,
                p_bar.c_str(), e_bar.c_str());
  }
  std::printf(
      "\ntotals: %llu P samples, %llu E samples; counted instructions "
      "%lld (expected samples %lld)\n",
      static_cast<unsigned long long>(total_p),
      static_cast<unsigned long long>(total_e), (*values)[0],
      (*values)[0] / 5'000'000);
  return 0;
}
