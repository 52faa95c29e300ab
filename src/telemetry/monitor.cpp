#include "telemetry/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "base/log.hpp"
#include "papi/fault_injection.hpp"
#include "papi/marker.hpp"
#include "papi/sim_backend.hpp"

namespace hetpapi::telemetry {

void wait_for_thermal_settle(simkernel::SimKernel& kernel,
                             double settle_temp_c, double timeout_s) {
  const SimTime deadline =
      kernel.now() + SimTime::from_seconds(timeout_s).since_epoch;
  const auto hottest = [&] {
    double t = kernel.governor().package_temperature().value;
    for (std::size_t c = 0; c < kernel.machine().cluster_thermal.size(); ++c) {
      t = std::max(t,
                   kernel.governor().cluster_temperature(static_cast<int>(c))
                       .value);
    }
    return t;
  };
  while (hottest() > settle_temp_c && kernel.now() < deadline) {
    kernel.run_for(std::chrono::seconds(1));
  }
}

RunResult run_monitored_hpl(simkernel::SimKernel& kernel,
                            const workload::HplConfig& hpl_config,
                            const std::vector<int>& cpus,
                            const MonitorConfig& monitor_config) {
  RunResult result;
  wait_for_thermal_settle(kernel, monitor_config.settle_temp_c,
                          monitor_config.settle_timeout_s);

  workload::HplSimulation hpl(hpl_config, static_cast<int>(cpus.size()));
  std::vector<simkernel::Tid> tids;
  tids.reserve(cpus.size());
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const simkernel::Tid tid =
        kernel.spawn(hpl.make_worker(static_cast<int>(i)),
                     simkernel::CpuSet::of({cpus[i]}));
    tids.push_back(tid);
  }

  // Optional per-sample PAPI counters: a measurement Library (and with
  // it the whole component registry) over the same kernel, attached to
  // the master worker. Reads genuinely perturb the measured thread via
  // the call-overhead model, exactly like a caliper would.
  papi::SimBackend papi_backend(&kernel);
  // Chaos mode interposes the deterministic fault injector between the
  // library and the kernel; its ledger doubles as the leak oracle
  // reported in RunResult::health.
  std::unique_ptr<papi::FaultInjectingBackend> injector;
  papi::Backend* measurement_backend = &papi_backend;
  if (monitor_config.fault_profile != "none" &&
      !monitor_config.fault_profile.empty()) {
    if (auto profile = papi::FaultProfile::named(monitor_config.fault_profile)) {
      injector = std::make_unique<papi::FaultInjectingBackend>(
          &papi_backend, *profile, monitor_config.fault_seed);
      measurement_backend = injector.get();
    } else {
      HETPAPI_WARN << "monitor: unknown fault profile '"
                   << monitor_config.fault_profile
                   << "', running without injection";
    }
  }
  std::unique_ptr<papi::Library> papi_lib;
  int papi_set = -1;
  if (!monitor_config.sample_events.empty()) {
    papi::LibraryConfig lib_config;
    // A monitored run prefers a partial counter over no counter: one
    // refused core-type PMU must not black out the whole preset.
    lib_config.degrade_partial_presets = true;
    lib_config.use_rdpmc = monitor_config.use_rdpmc;
    if (auto lib = papi::Library::init(measurement_backend, lib_config)) {
      papi_lib = std::move(*lib);
      bool ok = false;
      if (auto set = papi_lib->create_eventset()) {
        papi_set = *set;
        ok = papi_lib->attach(papi_set, tids.front()).is_ok();
        // Per-event degradation: an event that cannot be added is
        // skipped (and reported in health), the rest still sample.
        for (const std::string& event : monitor_config.sample_events) {
          if (!ok) break;
          const Status added = papi_lib->add_event(papi_set, event);
          if (!added.is_ok()) {
            HETPAPI_WARN << "monitor: cannot sample " << event << ": "
                         << added.to_string();
            result.health.events_not_added.push_back(event);
          } else {
            result.counter_names.push_back(event);
          }
        }
        if (result.counter_names.empty()) ok = false;
        if (ok) ok = papi_lib->start(papi_set).is_ok();
      }
      if (!ok) {
        papi_lib.reset();
        result.counter_names.clear();
      }
    }
  }

  Sampler sampler(&kernel);
  sampler.reset();
  if (papi_lib) {
    sampler.attach_counters(papi_lib.get(), papi_set,
                            monitor_config.per_core_type_counters);
    if (monitor_config.per_core_type_counters) {
      // Label the constituents once — the breakdown structure is fixed
      // for the lifetime of the set, only the values change per sample.
      if (const auto readings = papi_lib->read_qualified(papi_set)) {
        for (const papi::QualifiedReading& reading : *readings) {
          std::vector<std::string> names;
          names.reserve(reading.parts.size());
          for (const papi::QualifiedValue& part : reading.parts) {
            std::string name(part.native_name);
            if (!part.core_type.empty()) {
              name.append("[").append(part.core_type).append("]");
            }
            names.push_back(std::move(name));
          }
          result.counter_part_names.push_back(std::move(names));
        }
      }
    }
  }
  // LIKWID-style phase markers: a "hpl" region around the whole run,
  // "factor"/"update" regions bracketing the master worker's items.
  // The listener fires synchronously from the simulation driver (this
  // thread), so the markers' thread-local state is the monitor's own.
  papi::MarkerManager markers;
  const bool mark_phases = monitor_config.mark_hpl_phases && papi_lib;
  if (mark_phases) {
    markers.set_time_source(
        +[](void* k) {
          return static_cast<std::uint64_t>(
              static_cast<simkernel::SimKernel*>(k)
                  ->now()
                  .since_epoch.count());
        },
        &kernel);
    (void)markers.attach_thread(papi_lib.get(), papi_set);
    (void)markers.region_begin("hpl");
    hpl.set_phase_listener([&markers](int worker, bool factor, bool begin) {
      if (worker != 0) return;  // the EventSet measures the master worker
      const std::string_view region = factor ? "factor" : "update";
      if (begin) {
        (void)markers.region_begin(region);
      } else {
        (void)markers.region_end(region);
      }
    });
  }

  const SimTime start = kernel.now();
  result.samples.push_back(sampler.sample());  // t=0 baseline

  const auto period = SimTime::from_seconds(monitor_config.sample_period_s)
                          .since_epoch;
  // Sub-step within each sample period so the measured completion time
  // is not quantized to the sampling rate.
  const SimDuration step = std::min<SimDuration>(
      period, std::chrono::milliseconds(10));
  const SimTime deadline =
      start + SimTime::from_seconds(monitor_config.run_timeout_s).since_epoch;
  SimTime next_sample = kernel.now() + period;
  while (kernel.any_thread_alive() && kernel.now() < deadline) {
    kernel.run_for(step);
    if (kernel.now() >= next_sample) {
      result.samples.push_back(sampler.sample());
      next_sample += period;
    }
  }

  if (mark_phases) {
    hpl.set_phase_listener(nullptr);
    // Ending "hpl" subsumes any item region left open at the deadline.
    (void)markers.region_end("hpl");
    for (const papi::RegionStats& stats : markers.report()) {
      RegionReport report;
      report.name = stats.name;
      report.entries = stats.entries;
      report.time_s = static_cast<double>(stats.time) * 1e-9;
      report.totals = stats.totals;
      result.regions.push_back(std::move(report));
    }
  }
  if (papi_lib) {
    (void)papi_lib->stop(papi_set);
    const CounterHealth& health = sampler.counter_health();
    result.health.ticks_attempted = health.ticks_attempted;
    result.health.ticks_failed = health.ticks_failed;
    result.health.ticks_degraded = health.ticks_degraded;
    result.health.sampling_abandoned = health.abandoned;
    result.health.counters_dropped = health.dropped_count();
    for (std::size_t i = 0;
         i < health.dropped.size() && i < result.counter_names.size(); ++i) {
      if (health.dropped[i] != 0) {
        result.health.dropped_counters.push_back(result.counter_names[i]);
      }
    }
  }
  // Tear the measurement library down before consulting the injector's
  // ledger, so the leak check sees the post-destruction fd population.
  papi_lib.reset();
  if (injector) {
    result.health.faults_injected = injector->stats().total_injected();
    result.health.leaked_fds = injector->open_fd_count();
    if (result.health.leaked_fds != 0) {
      HETPAPI_WARN << "monitor: " << result.health.leaked_fds
                   << " perf fds leaked under fault profile '"
                   << injector->profile().name << "'";
    }
  }

  result.elapsed = kernel.now() - start;
  result.gflops = hpl.gflops(result.elapsed).value;
  result.spin_instructions = hpl.spin_instructions();
  result.work_instructions = hpl.work_instructions();

  result.counts_per_type.assign(kernel.machine().core_types.size(),
                                simkernel::ExecCounts{});
  for (simkernel::Tid tid : tids) {
    const simkernel::ThreadGroundTruth* truth = kernel.ground_truth(tid);
    if (truth == nullptr) continue;
    for (std::size_t t = 0; t < truth->per_type.size(); ++t) {
      result.counts_per_type[t] += truth->per_type[t];
    }
  }
  return result;
}

RunResult average_runs(const std::vector<RunResult>& runs) {
  RunResult avg;
  if (runs.empty()) return avg;
  avg.counter_names = runs.front().counter_names;
  avg.counter_part_names = runs.front().counter_part_names;
  // Region tables: average by name over the runs that report the
  // region, aligned to the first run's table order.
  for (const RegionReport& first : runs.front().regions) {
    RegionReport merged;
    merged.name = first.name;
    std::uint64_t present = 0;
    for (const RunResult& run : runs) {
      for (const RegionReport& region : run.regions) {
        if (region.name != merged.name) continue;
        ++present;
        merged.entries += region.entries;
        merged.time_s += region.time_s;
        if (merged.totals.size() < region.totals.size()) {
          merged.totals.resize(region.totals.size(), 0);
        }
        for (std::size_t v = 0; v < region.totals.size(); ++v) {
          merged.totals[v] += region.totals[v];
        }
        break;
      }
    }
    if (present > 0) {
      merged.entries /= present;
      merged.time_s /= static_cast<double>(present);
      for (long long& total : merged.totals) {
        total /= static_cast<long long>(present);
      }
    }
    avg.regions.push_back(std::move(merged));
  }
  std::size_t min_samples = runs.front().samples.size();
  for (const RunResult& run : runs) {
    min_samples = std::min(min_samples, run.samples.size());
  }
  const double inv_n = 1.0 / static_cast<double>(runs.size());

  avg.samples.resize(min_samples);
  for (std::size_t i = 0; i < min_samples; ++i) {
    Sample& out = avg.samples[i];
    out = runs.front().samples[i];
    const std::size_t num_cpus = out.core_freq_mhz.size();
    out.core_freq_mhz.assign(num_cpus, 0.0);
    out.package_temp_c = 0.0;
    out.package_power_w = 0.0;
    out.board_power_w = 0.0;
    const std::size_t num_counters = out.counters.size();
    out.counters.assign(num_counters, 0.0);
    for (std::vector<double>& parts : out.counter_parts) {
      parts.assign(parts.size(), 0.0);
    }
    out.t_seconds = runs.front().samples[i].t_seconds -
                    runs.front().samples.front().t_seconds;
    int power_count = 0;
    for (const RunResult& run : runs) {
      const Sample& s = run.samples[i];
      for (std::size_t c = 0; c < num_cpus && c < s.core_freq_mhz.size(); ++c) {
        out.core_freq_mhz[c] += s.core_freq_mhz[c] * inv_n;
      }
      out.package_temp_c += s.package_temp_c * inv_n;
      out.board_power_w += s.board_power_w * inv_n;
      for (std::size_t c = 0; c < num_counters && c < s.counters.size(); ++c) {
        out.counters[c] += s.counters[c] * inv_n;
      }
      for (std::size_t c = 0;
           c < out.counter_parts.size() && c < s.counter_parts.size(); ++c) {
        for (std::size_t p = 0; p < out.counter_parts[c].size() &&
                                p < s.counter_parts[c].size();
             ++p) {
          out.counter_parts[c][p] += s.counter_parts[c][p] * inv_n;
        }
      }
      if (!std::isnan(s.package_power_w)) {
        out.package_power_w += s.package_power_w;
        ++power_count;
      }
    }
    out.package_power_w = power_count > 0
                              ? out.package_power_w / power_count
                              : std::nan("");
  }

  SimDuration elapsed_sum{0};
  for (const RunResult& run : runs) {
    avg.gflops += run.gflops * inv_n;
    elapsed_sum += run.elapsed;
    avg.spin_instructions += run.spin_instructions / runs.size();
    avg.work_instructions += run.work_instructions / runs.size();
    if (avg.counts_per_type.size() < run.counts_per_type.size()) {
      avg.counts_per_type.resize(run.counts_per_type.size());
    }
    for (std::size_t t = 0; t < run.counts_per_type.size(); ++t) {
      avg.counts_per_type[t] += run.counts_per_type[t];
    }
  }
  avg.elapsed = elapsed_sum / static_cast<std::int64_t>(runs.size());
  return avg;
}

}  // namespace hetpapi::telemetry
