// Boot-time population of the simulated /sys and /proc trees, plus the
// dynamic attribute router. The layout reproduces what the paper's
// detection section (§IV-B) enumerates, including the quirks:
//  * hybrid core PMUs expose a "cpus" file; uncore PMUs use "cpumask";
//    the traditional homogeneous "cpu" PMU has neither;
//  * cpu_capacity exists only on ARM;
//  * Intel P/E cores share family/model/stepping in /proc/cpuinfo;
//  * the Raptor Lake package temperature is thermal_zone9
//    ("x86_pkg_temp"), matching the paper's mon_hpl.py parameters.
#include <string>

#include "base/strings.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi::simkernel {

namespace {
constexpr std::string_view kCpuRoot = "/sys/devices/system/cpu";
}

void SimKernel::build_static_sysfs() {
  const int n = machine_.num_cpus();

  // --- PMU devices ----------------------------------------------------------
  for (const PmuDesc& pmu : pmus_.all()) {
    const std::string dir = "/sys/devices/" + pmu.sysfs_name;
    (void)sysfs_.write_file(dir + "/type", std::to_string(pmu.type_id) + "\n");
    switch (pmu.pmu_class) {
      case PmuClass::kCore:
        // Only hybrid machines grow the "cpus" mapping file.
        if (machine_.is_hybrid()) {
          (void)sysfs_.write_file(dir + "/cpus",
                                  format_cpulist(pmu.cpus) + "\n");
        }
        break;
      case PmuClass::kRapl:
      case PmuClass::kUncore:
        (void)sysfs_.write_file(dir + "/cpumask",
                                format_cpulist(pmu.cpus) + "\n");
        break;
      case PmuClass::kSoftware:
        break;
    }
  }

  // --- cpu topology -----------------------------------------------------------
  const std::string all_cpus = format_cpulist([&] {
    std::vector<int> v;
    for (int c = 0; c < n; ++c) v.push_back(c);
    return v;
  }());
  (void)sysfs_.write_file(std::string(kCpuRoot) + "/online", all_cpus + "\n");
  (void)sysfs_.write_file(std::string(kCpuRoot) + "/possible", all_cpus + "\n");
  (void)sysfs_.write_file(std::string(kCpuRoot) + "/present", all_cpus + "\n");

  for (int cpu = 0; cpu < n; ++cpu) {
    const cpumodel::CpuSlot& slot = machine_.cpus[static_cast<std::size_t>(cpu)];
    const cpumodel::CoreTypeSpec& type = machine_.type_of(cpu);
    const std::string base =
        std::string(kCpuRoot) + "/cpu" + std::to_string(cpu);

    (void)sysfs_.write_file(base + "/topology/core_id",
                            std::to_string(slot.core_id) + "\n");
    (void)sysfs_.write_file(base + "/topology/physical_package_id", "0\n");
    (void)sysfs_.write_file(base + "/topology/cluster_id",
                            std::to_string(slot.cluster_id) + "\n");
    std::vector<int> siblings;
    for (const cpumodel::CpuSlot& other : machine_.cpus) {
      if (other.core_id == slot.core_id) siblings.push_back(other.cpu);
    }
    (void)sysfs_.write_file(base + "/topology/thread_siblings_list",
                            format_cpulist(siblings) + "\n");

    // cpufreq limits in kHz (scaling_cur_freq is dynamic, below).
    (void)sysfs_.write_file(
        base + "/cpufreq/cpuinfo_max_freq",
        std::to_string(type.dvfs.freq_max.kilohertz()) + "\n");
    (void)sysfs_.write_file(
        base + "/cpufreq/cpuinfo_min_freq",
        std::to_string(type.dvfs.freq_min.kilohertz()) + "\n");

    // Caches: index0 = L1d, index2 = L2, index3 = LLC.
    const auto cache_kb = [](std::int64_t bytes) {
      return std::to_string(bytes / 1024) + "K\n";
    };
    (void)sysfs_.write_file(base + "/cache/index0/level", "1\n");
    (void)sysfs_.write_file(base + "/cache/index0/size",
                            cache_kb(type.cache.l1d_bytes));
    (void)sysfs_.write_file(base + "/cache/index2/level", "2\n");
    (void)sysfs_.write_file(base + "/cache/index2/size",
                            cache_kb(type.cache.l2_bytes));
    (void)sysfs_.write_file(base + "/cache/index3/level", "3\n");
    (void)sysfs_.write_file(base + "/cache/index3/size",
                            cache_kb(type.cache.llc_bytes));

    if (machine_.exposes_cpu_capacity) {
      (void)sysfs_.write_file(base + "/cpu_capacity",
                              std::to_string(type.cpu_capacity) + "\n");
    }
    if (machine_.vendor == cpumodel::Vendor::kArm) {
      // MIDR_EL1: implementer[31:24] variant[23:20] arch[19:16]
      // part[15:4] revision[3:0].
      const std::uint32_t midr =
          (static_cast<std::uint32_t>(type.ident.arm_implementer) << 24) |
          (static_cast<std::uint32_t>(type.ident.arm_variant) << 20) |
          (0xFu << 16) |
          (static_cast<std::uint32_t>(type.ident.arm_part) << 4) |
          static_cast<std::uint32_t>(type.ident.arm_revision);
      (void)sysfs_.write_file(base + "/regs/identification/midr_el1",
                              str_format("0x%08x\n", midr));
    }
  }

  // --- /proc/cpuinfo -----------------------------------------------------------
  std::string cpuinfo;
  for (int cpu = 0; cpu < n; ++cpu) {
    const cpumodel::CoreTypeSpec& type = machine_.type_of(cpu);
    if (machine_.vendor == cpumodel::Vendor::kIntel) {
      cpuinfo += str_format(
          "processor\t: %d\n"
          "vendor_id\t: GenuineIntel\n"
          "cpu family\t: %d\n"
          "model\t\t: %d\n"
          "model name\t: %s\n"
          "stepping\t: %d\n\n",
          cpu, type.ident.family, type.ident.model,
          machine_.cpu_model_string.c_str(), type.ident.stepping);
    } else {
      cpuinfo += str_format(
          "processor\t: %d\n"
          "BogoMIPS\t: 48.00\n"
          "CPU implementer\t: 0x%02x\n"
          "CPU architecture: 8\n"
          "CPU variant\t: 0x%x\n"
          "CPU part\t: 0x%03x\n"
          "CPU revision\t: %d\n\n",
          cpu, type.ident.arm_implementer, type.ident.arm_variant,
          type.ident.arm_part, type.ident.arm_revision);
    }
  }
  (void)sysfs_.write_file("/proc/cpuinfo", cpuinfo);

  // --- thermal zones -------------------------------------------------------------
  if (machine_.vendor == cpumodel::Vendor::kIntel) {
    // Zones 0-8 are assorted ACPI sensors; zone 9 is the package sensor
    // (the paper passes "thermal_zone9:35000" to mon_hpl.py).
    for (int z = 0; z < 9; ++z) {
      const std::string dir = "/sys/class/thermal/thermal_zone" + std::to_string(z);
      (void)sysfs_.write_file(dir + "/type", "acpitz\n");
      (void)sysfs_.write_file(dir + "/temp", "27000\n");
    }
    (void)sysfs_.write_file("/sys/class/thermal/thermal_zone9/type",
                            "x86_pkg_temp\n");
  } else {
    (void)sysfs_.write_file("/sys/class/thermal/thermal_zone0/type",
                            "soc-thermal\n");
    (void)sysfs_.write_file("/sys/class/thermal/thermal_zone1/type",
                            "gpu-thermal\n");
  }

  // --- RAPL powercap ---------------------------------------------------------------
  if (machine_.rapl.present) {
    const std::string dir = "/sys/class/powercap/intel-rapl:0";
    (void)sysfs_.write_file(dir + "/name", "package-0\n");
    (void)sysfs_.write_file(dir + "/max_energy_range_uj", "4294967295\n");
    (void)sysfs_.write_file(
        dir + "/constraint_0_name", "long_term\n");
    (void)sysfs_.write_file(
        dir + "/constraint_0_power_limit_uw",
        std::to_string(static_cast<std::int64_t>(machine_.rapl.pl1.value * 1e6)) +
            "\n");
    (void)sysfs_.write_file(
        dir + "/constraint_1_name", "short_term\n");
    (void)sysfs_.write_file(
        dir + "/constraint_1_power_limit_uw",
        std::to_string(static_cast<std::int64_t>(machine_.rapl.pl2.value * 1e6)) +
            "\n");
  }
}

Expected<std::string> SimKernel::sysfs_read(std::string_view path) const {
  const auto canon = vfs::canonicalize(path);
  if (!canon) return canon.status();
  const std::string& p = *canon;

  // Dynamic attributes, evaluated like sysfs show() callbacks.
  if (starts_with(p, kCpuRoot)) {
    // /sys/devices/system/cpu/cpuN/cpufreq/scaling_cur_freq
    const std::string_view rest = std::string_view(p).substr(kCpuRoot.size());
    if (starts_with(rest, "/cpu")) {
      const std::size_t slash = rest.find('/', 1);
      if (slash != std::string_view::npos &&
          rest.substr(slash) == "/cpufreq/scaling_cur_freq") {
        const auto cpu = parse_int(rest.substr(4, slash - 4));
        if (cpu && *cpu >= 0 && *cpu < machine_.num_cpus()) {
          return std::to_string(
                     governor_.frequency(static_cast<int>(*cpu)).kilohertz()) +
                 "\n";
        }
      }
    }
  }
  if (starts_with(p, "/sys/class/thermal/thermal_zone") &&
      p.ends_with("/temp")) {
    const std::string_view zone_str =
        std::string_view(p).substr(std::string_view("/sys/class/thermal/thermal_zone").size());
    const auto zone = parse_int(zone_str.substr(0, zone_str.find('/')));
    if (zone) {
      if (machine_.vendor == cpumodel::Vendor::kIntel && *zone == 9) {
        return std::to_string(governor_.package_temperature().millidegrees()) +
               "\n";
      }
      if (machine_.vendor == cpumodel::Vendor::kArm && *zone == 0) {
        // soc-thermal reports the hottest cluster.
        double hottest = governor_.package_temperature().value;
        for (std::size_t c = 0; c < machine_.cluster_thermal.size(); ++c) {
          hottest = std::max(
              hottest,
              governor_.cluster_temperature(static_cast<int>(c)).value);
        }
        return std::to_string(Celsius{hottest}.millidegrees()) + "\n";
      }
    }
  }
  if (p == "/proc/stat") {
    // Minimal /proc/stat: the aggregate "cpu" jiffies line (USER_HZ=100)
    // and the system-wide context-switch count, both derived from the
    // scheduler's ground truth — what the sysinfo component consumes.
    std::uint64_t busy_ns = 0;
    std::uint64_t ctxt = 0;
    for (const SimThread& thread : threads_) {
      busy_ns +=
          static_cast<std::uint64_t>(thread.truth.total_cpu_time.count());
      ctxt += thread.truth.context_switches;
    }
    const std::uint64_t busy_jiffies = busy_ns / std::uint64_t{10'000'000};
    const std::uint64_t wall_jiffies =
        static_cast<std::uint64_t>(now_.since_epoch.count()) /
        std::uint64_t{10'000'000} *
        static_cast<std::uint64_t>(machine_.num_cpus());
    const std::uint64_t idle_jiffies =
        wall_jiffies > busy_jiffies ? wall_jiffies - busy_jiffies : 0;
    return str_format(
        "cpu  %llu 0 0 %llu 0 0 0 0 0 0\nctxt %llu\n",
        static_cast<unsigned long long>(busy_jiffies),
        static_cast<unsigned long long>(idle_jiffies),
        static_cast<unsigned long long>(ctxt));
  }
  if (p == "/sys/class/powercap/intel-rapl:0/energy_uj" &&
      machine_.rapl.present) {
    // Wraps at max_energy_range_uj = 2^32-1, like the hardware register;
    // telemetry consumers must unwrap (mon_hpl.py does).
    const std::uint64_t uj = static_cast<std::uint64_t>(
        governor_.rapl().total_energy().value * 1e6);
    return std::to_string(uj & 0xFFFFFFFFULL) + "\n";
  }

  return sysfs_.read_file(p);
}

Expected<std::vector<std::string>> SimKernel::sysfs_list(
    std::string_view path) const {
  return sysfs_.list_dir(path);
}

}  // namespace hetpapi::simkernel
