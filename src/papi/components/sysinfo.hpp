// The sysinfo software component: system-wide readings served straight
// from the procfs/sysfs surface through the backend's Host — no
// perf_event syscall anywhere. It exists as proof that the component
// registry absorbs a new measurement domain with zero edits to the
// EventSet core or the Library facade (the paper's §IV-E argument for
// the framework/components split; real PAPI ships the same idea as its
// "sysinfo"-style software components).
//
// Events (PMU "sysinfo" in the pfm tables):
//   SYS_CTX_SWITCHES  system-wide context switches (/proc/stat "ctxt")
//   SYS_CPU_TIME_MS   aggregate busy cpu time (/proc/stat "cpu" line)
//   PKG_TEMP_MC       package/SoC temperature in millidegrees C
//                     (the x86_pkg_temp / soc-thermal zone)
//
// Counter events report deltas from the start() baseline and freeze at
// stop(), like disabled perf counters; PKG_TEMP_MC is a gauge and
// always reports the instantaneous reading. Works identically on the
// simulated kernel (deterministic) and the real-Linux backend.
#pragma once

#include "papi/component.hpp"

namespace hetpapi::papi {

class SysinfoComponent final : public Component {
 public:
  explicit SysinfoComponent(ComponentEnv env) : env_(env) {}

  std::string_view name() const override { return "sysinfo"; }
  ComponentScope scope() const override { return ComponentScope::kPackage; }
  ComponentCaps caps() const override { return {false, false, false}; }
  bool serves(const pfm::ActivePmu& pmu) const override {
    return pmu.table->component == "sysinfo";
  }

  std::unique_ptr<ComponentState> create_state() const override;
  Status open_slot(ComponentState& state, const SlotRequest& request,
                   const MeasureTarget& target) override;
  Status close_all(ComponentState& state) override;
  Status start(ComponentState& state) override;
  Status stop(ComponentState& state) override;
  Status reset(ComponentState& state) override;
  Status read(const ComponentState& state, bool scale,
              std::vector<double>& values,
              std::vector<std::uint8_t>* valid = nullptr) const override;

 private:
  enum class Reading { kContextSwitches, kCpuTimeMs, kPackageTempMc };

  struct Slot {
    SlotRequest request;
    Reading reading = Reading::kContextSwitches;
    /// Resolved thermal-zone temp path (PKG_TEMP_MC only).
    std::string path;
    double baseline = 0.0;
    double frozen = 0.0;
  };

  struct SysinfoState final : ComponentState {
    std::vector<Slot> slots;
    bool running = false;
  };

  Expected<double> read_raw(const Slot& slot) const;
  Expected<std::string> find_thermal_zone() const;

  ComponentEnv env_;
};

}  // namespace hetpapi::papi
