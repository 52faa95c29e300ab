// simperf record/report — sample-based profiling over the simulated
// kernel, in one shot: opens a sampling event per core PMU on every cpu
// (`perf record -a -e instructions`), runs an HPL workload, then prints
// a perf-report-style breakdown of where the samples landed — by core
// type, by cpu, and over time.
//
//   simperf_record [--machine raptorlake|orangepi]
//                  [--variant openblas|intel] [--n <size>]
//                  [--period <counts>]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/cli.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "cpumodel/machine.hpp"
#include "simkernel/kernel.hpp"
#include "workload/hpl.hpp"

using namespace hetpapi;
using simkernel::CountKind;

int main(int argc, char** argv) {
  std::string machine_name = "raptorlake";
  std::string variant = "openblas";
  int n = 0;
  std::uint64_t period = 50'000'000;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--machine") machine_name = value;
    else if (flag == "--variant") variant = value;
    else if (flag == "--n") {
      n = static_cast<int>(cli::require_positive_int(flag, value));
    }
    else if (flag == "--period") {
      period = static_cast<std::uint64_t>(cli::require_positive_int(flag, value));
    }
  }
  const cpumodel::MachineSpec machine = machine_name == "orangepi"
                                            ? cpumodel::orangepi800_rk3399()
                                            : cpumodel::raptor_lake_i7_13700();
  if (n == 0) n = machine_name == "orangepi" ? 8192 : 20736;
  const int nb = machine_name == "orangepi" ? 128 : 192;

  simkernel::SimKernel::Config config;
  config.tick = std::chrono::milliseconds(1);
  config.perf.sample_ring_capacity = 1 << 20;
  simkernel::SimKernel kernel(machine, config);

  // One system-wide sampling event per cpu, bound to that cpu's PMU.
  std::vector<int> fds;
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    const auto* pmu = kernel.pmus().core_pmu_for_cpu(cpu);
    simkernel::PerfEventAttr attr;
    attr.type = pmu->type_id;
    attr.config = static_cast<std::uint64_t>(CountKind::kInstructions);
    attr.sample_period = period;
    auto fd = kernel.perf_event_open(attr, -1, cpu, -1);
    if (!fd) {
      std::fprintf(stderr, "open cpu %d: %s\n", cpu,
                   fd.status().to_string().c_str());
      return 1;
    }
    fds.push_back(*fd);
  }

  // The profiled workload: all-core HPL.
  const workload::HplConfig hpl_config =
      variant == "intel" ? workload::HplConfig::intel(n, nb)
                         : workload::HplConfig::openblas(n, nb);
  std::vector<int> cpus;
  if (machine_name == "orangepi") {
    cpus = {0, 1, 2, 3, 4, 5};
  } else {
    cpus = machine.primary_threads_of_type(0);
    const auto e = machine.cpus_of_type(1);
    cpus.insert(cpus.end(), e.begin(), e.end());
  }
  workload::HplSimulation hpl(hpl_config, static_cast<int>(cpus.size()));
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    kernel.spawn(hpl.make_worker(static_cast<int>(i)),
                 simkernel::CpuSet::of({cpus[i]}));
  }
  kernel.run_until_idle(std::chrono::seconds(3600));
  const double elapsed = kernel.now().seconds();

  // Collect: walk each cpu's mmap ring with the ABI cursor, as perf
  // record does. The poll between the two passes is the reader's trip
  // into the kernel that publishes a LOST record a full ring held back;
  // the second pass picks it up. Records carry no core type: the fd's
  // cpu implies it.
  struct Record {
    std::uint64_t time_ns = 0;
    int cpu = -1;
    cpumodel::CoreTypeId core_type = 0;
  };
  std::vector<Record> samples;
  std::uint64_t lost = 0;
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    const int fd = fds[static_cast<std::size_t>(cpu)];
    const auto ring = kernel.perf_mmap_ring(fd);
    if (!ring) continue;
    const cpumodel::CoreTypeId core_type =
        machine.cpus[static_cast<std::size_t>(cpu)].type;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) (void)kernel.perf_ring_poll(fd);
      simkernel::PerfRingCursor cursor(*ring);
      simkernel::PerfEventHeader header;
      simkernel::PerfRecordScratch scratch;
      while (const std::uint8_t* body = cursor.next(&header, scratch)) {
        const std::size_t body_size = header.size - sizeof header;
        simkernel::PerfSampleParsed parsed;
        simkernel::PerfLostParsed dropped;
        if (header.type == simkernel::kPerfRecordSample &&
            simkernel::perf_parse_sample(ring->sample_type, body, body_size,
                                         &parsed)) {
          samples.push_back(
              {parsed.time, static_cast<int>(parsed.cpu), core_type});
        } else if (header.type == simkernel::kPerfRecordLost &&
                   simkernel::perf_parse_lost(body, body_size, &dropped)) {
          lost += dropped.lost;
        }
      }
      cursor.commit();
    }
  }

  std::printf("simperf record: %zu samples (%llu lost), period %llu, "
              "workload %s HPL N=%d on %s, %.1f s\n\n",
              samples.size(), static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(period), variant.c_str(), n,
              machine.name.c_str(), elapsed);

  // Report 1: by core type (the hybrid headline).
  std::map<int, std::uint64_t> by_type;
  for (const auto& sample : samples) by_type[sample.core_type] += 1;
  TextTable type_table({"core type", "samples", "share"});
  for (const auto& [type, count] : by_type) {
    type_table.add_row(
        {machine.core_types[static_cast<std::size_t>(type)].name,
         std::to_string(count),
         str_format("%.1f%%",
                    100.0 * static_cast<double>(count) /
                        static_cast<double>(samples.size()))});
  }
  std::printf("%s\n", type_table.render().c_str());

  // Report 2: hottest cpus.
  std::map<int, std::uint64_t> by_cpu;
  for (const auto& sample : samples) by_cpu[sample.cpu] += 1;
  std::printf("samples by cpu:");
  for (const auto& [cpu, count] : by_cpu) {
    std::printf(" cpu%d:%llu", cpu, static_cast<unsigned long long>(count));
  }
  std::printf("\n\n");

  // Report 3: 10-bucket timeline per core type.
  const int buckets = 10;
  std::vector<std::uint64_t> timeline_p(buckets);
  std::vector<std::uint64_t> timeline_e(buckets);
  for (const auto& sample : samples) {
    const double t = static_cast<double>(sample.time_ns) / 1e9;
    int bucket = static_cast<int>(t / elapsed * buckets);
    bucket = std::min(bucket, buckets - 1);
    (sample.core_type == 0 ? timeline_p : timeline_e)
        [static_cast<std::size_t>(bucket)] += 1;
  }
  std::printf("timeline (%d buckets of %.1f s): big/P samples then "
              "little/E samples\n",
              buckets, elapsed / buckets);
  for (int b = 0; b < buckets; ++b) {
    std::printf("  t=%5.1fs  %8llu  %8llu\n", elapsed * b / buckets,
                static_cast<unsigned long long>(
                    timeline_p[static_cast<std::size_t>(b)]),
                static_cast<unsigned long long>(
                    timeline_e[static_cast<std::size_t>(b)]));
  }
  return 0;
}
