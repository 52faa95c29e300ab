// The event-encoding library (libpfm4's role): discovers which PMUs the
// kernel exports, binds each to an event table, resolves event-name
// strings to perf_event_attr encodings, and maintains the *default PMU*
// search list used for names with no pmu:: prefix.
//
// Two configuration flags reproduce the historical limitations the
// paper worked through, so tests and ablations can demonstrate the
// before/after behaviour:
//  * arm_multi_pmu_patch (§IV-C) — without the patch, the ARM scan stops
//    after the first armv8 PMU, so one big.LITTLE cluster is invisible;
//  * multiple_default_pmus (§IV-D) — without the fix, a machine that
//    reports more than one core PMU makes unprefixed event lookups fail.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "pfm/event_db.hpp"
#include "pfm/host.hpp"

namespace hetpapi::pfm {

/// A PMU table successfully bound to a kernel PMU on this machine.
struct ActivePmu {
  const PmuTable* table = nullptr;
  std::uint32_t perf_type = 0;  // kernel dynamic type id
  std::string sysfs_name;
  std::vector<int> cpus;  // from the cpus/cpumask file; empty = all cpus
  bool is_core = false;
};

/// A fully resolved event ready for perf_event_open.
struct Encoding {
  std::uint32_t perf_type = 0;
  std::uint64_t config = 0;
  simkernel::CountKind kind = simkernel::CountKind::kInstructions;
  std::string pmu_name;         // pfm table name, e.g. "adl_glc"
  std::string canonical_name;   // "adl_glc::INST_RETIRED:ANY"
};

class PfmLibrary {
 public:
  struct Config {
    bool multiple_default_pmus = true;
    bool arm_multi_pmu_patch = true;
  };

  /// Scan /sys/devices via `host`, bind tables, build the default list.
  Status initialize(const Host& host, Config config);
  Status initialize(const Host& host) { return initialize(host, Config{}); }

  bool initialized() const { return initialized_; }

  const std::vector<ActivePmu>& pmus() const { return active_; }
  const ActivePmu* find_pmu(std::string_view pfm_name) const;

  /// Core PMUs in default-search order (P before E: hard-coded ranking,
  /// as the paper says there is no generic rule).
  std::vector<const ActivePmu*> default_pmus() const;

  /// Resolve "pmu::EVENT:UMASK" or "EVENT:UMASK" (searched across the
  /// default PMUs) to an encoding. Successful resolutions are memoized
  /// (the name -> attr parse is pure for a given PMU scan), so the hot
  /// add_event paths pay the string parsing once per distinct name.
  Expected<Encoding> encode(std::string_view name) const;

  /// All full event names one PMU offers (for papi_native_avail-style
  /// listings).
  std::vector<std::string> event_names(const ActivePmu& pmu) const;

 private:
  Status bind_pmu(const Host& host, const std::string& sysfs_name);
  Expected<Encoding> encode_uncached(std::string_view name) const;
  Expected<Encoding> encode_on(const ActivePmu& pmu,
                               std::string_view event_and_umask) const;

  std::vector<ActivePmu> active_;
  Config config_{};
  bool initialized_ = false;
  /// Memoized successful name -> encoding resolutions; cleared whenever
  /// the PMU scan reruns (encodings embed dynamic perf type ids).
  mutable std::map<std::string, Encoding, std::less<>> encode_cache_;
};

}  // namespace hetpapi::pfm
