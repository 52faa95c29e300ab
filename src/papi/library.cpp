#include "papi/library.hpp"

#include "base/log.hpp"
#include "base/strings.hpp"
#include "papi/components/builtin.hpp"

namespace hetpapi::papi {

Library::Library(Backend* backend, LibraryConfig config)
    : backend_(backend), config_(config) {}

Library::~Library() {
  for (const auto& set : sets_) {
    if (set) (void)set->close_everything();
  }
}

Expected<std::unique_ptr<Library>> Library::init(Backend* backend,
                                                 LibraryConfig config) {
  auto lib = std::unique_ptr<Library>(new Library(backend, config));
  const Status pfm_status = lib->pfm_.initialize(backend->host(), config.pfm);
  if (!pfm_status.is_ok()) {
    return make_error(StatusCode::kComponent,
                      "pfm initialization failed: " + pfm_status.to_string());
  }
  auto hwinfo = get_hardware_info(backend->host());
  if (!hwinfo) return hwinfo.status();
  lib->hwinfo_ = std::move(*hwinfo);

  // Build the component table. The env pointers refer to the Library's
  // own members, which outlive the registry.
  const ComponentEnv env{backend, &lib->pfm_, &lib->config_};
  const Status registered = register_builtin_components(lib->registry_, env);
  if (!registered.is_ok()) {
    return make_error(StatusCode::kComponent,
                      "component registration failed: " +
                          registered.to_string());
  }

  if (lib->hwinfo_.hybrid && !config.hybrid_support) {
    HETPAPI_WARN << "hybrid machine detected but hybrid support is disabled; "
                    "EventSets are limited to a single PMU";
  }
  return lib;
}

// --- information ------------------------------------------------------------

std::vector<std::string> Library::native_event_names() const {
  std::vector<std::string> names;
  for (const pfm::ActivePmu& pmu : pfm_.pmus()) {
    const std::vector<std::string> pmu_names = pfm_.event_names(pmu);
    names.insert(names.end(), pmu_names.begin(), pmu_names.end());
  }
  return names;
}

std::vector<std::string> Library::available_presets() const {
  std::vector<std::string> out;
  const auto defaults = pfm_.default_pmus();
  for (const PresetDef& preset : preset_table()) {
    bool available = false;
    switch (config_.preset_policy) {
      case PresetPolicy::kErrorOnHybrid:
        available = defaults.size() == 1 &&
                    native_for_kind(*defaults.front()->table, preset.kind)
                        .has_value();
        break;
      case PresetPolicy::kDefaultPmuOnly:
        available = !defaults.empty() &&
                    native_for_kind(*defaults.front()->table, preset.kind)
                        .has_value();
        break;
      case PresetPolicy::kDerivedSum:
        // Available when *every* core PMU can provide the quantity; a
        // partial sum would silently undercount.
        available = !defaults.empty();
        for (const pfm::ActivePmu* pmu : defaults) {
          if (!native_for_kind(*pmu->table, preset.kind)) available = false;
        }
        break;
    }
    if (available) out.push_back(preset.name);
  }
  return out;
}

// --- EventSet plumbing -------------------------------------------------------

EventSetCore* Library::find_set(int eventset) {
  for (const auto& set : sets_) {
    if (set && set->id() == eventset) return set.get();
  }
  return nullptr;
}

const EventSetCore* Library::find_set(int eventset) const {
  for (const auto& set : sets_) {
    if (set && set->id() == eventset) return set.get();
  }
  return nullptr;
}

Expected<int> Library::create_eventset() {
  const int id = next_set_id_++;
  auto set = std::make_unique<EventSetCore>(id, backend_, &pfm_, &config_,
                                            &registry_, &locks_);
  set->set_core_type_resolver(
      [this](std::string_view pmu) { return core_type_for_pmu(pmu); });
  set->set_sample_source_resolver(
      [this](const pfm::Encoding& enc) { return sample_source(enc); });
  sets_.push_back(std::move(set));
  return id;
}

Status Library::destroy_eventset(int eventset) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  if (set->running()) {
    return make_error(StatusCode::kAlreadyRunning,
                      "stop the EventSet before destroying it");
  }
  HETPAPI_RETURN_IF_ERROR(set->close_everything());
  std::erase_if(sets_, [&](const auto& s) { return s.get() == set; });
  return Status::ok();
}

Status Library::force_destroy_eventset(int eventset) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  // Teardown-grade: a backend that faults during stop must not pin the
  // set (and its fds) forever. Stop is best-effort, every component
  // close runs regardless, and the set is always erased; the first
  // close error is reported but nothing survives it.
  if (set->running()) (void)set->stop();
  const Status closed = set->close_everything();
  std::erase_if(sets_, [&](const auto& s) { return s.get() == set; });
  return closed;
}

Status Library::attach(int eventset, Tid tid) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->attach(tid);
}

Status Library::attach_cpu(int eventset, int cpu) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  if (set->running()) {
    return make_error(StatusCode::kAlreadyRunning, "EventSet is running");
  }
  if (cpu < 0 || cpu >= hwinfo_.total_cpus) {
    return make_error(StatusCode::kInvalidArgument, "no such cpu");
  }
  return set->attach_cpu(cpu);
}

// --- name resolution ---------------------------------------------------------

Status Library::load_preset_definitions(std::string_view text) {
  auto parsed = parse_preset_definitions(text);
  if (!parsed) return parsed.status();
  // Validate every referenced event against the active tables so bad
  // files fail at load time, not at add_event time.
  for (const auto& [pmu_name, defs] : parsed->sections) {
    const pfm::ActivePmu* pmu = pfm_.find_pmu(pmu_name);
    if (pmu == nullptr) continue;  // sections for absent PMUs are inert
    for (const CustomPresetDef& def : defs) {
      for (const std::string& event : def.events) {
        auto enc = pfm_.encode(pmu_name + "::" + event);
        if (!enc) {
          return make_error(StatusCode::kInvalidArgument,
                            def.name + ": " + enc.status().to_string());
        }
      }
    }
  }
  custom_presets_ = std::move(*parsed);
  return Status::ok();
}

Status Library::add_custom_preset(EventSetCore& set, std::string_view name) {
  const auto defaults = pfm_.default_pmus();
  if (defaults.empty()) {
    return make_error(StatusCode::kComponent, "no core PMU active");
  }
  // Gather (encoding, sign) pairs across every core PMU first so a
  // missing definition aborts before any slot is opened.
  std::vector<std::pair<pfm::Encoding, int>> plan;
  for (const pfm::ActivePmu* pmu : defaults) {
    const CustomPresetDef* def =
        custom_presets_.find(pmu->table->pfm_name, name);
    if (def == nullptr) {
      return make_error(StatusCode::kNotPreset,
                        std::string(name) + " is not defined for " +
                            pmu->table->pfm_name +
                            "; a partial sum would undercount");
    }
    for (std::size_t i = 0; i < def->events.size(); ++i) {
      auto enc = pfm_.encode(pmu->table->pfm_name + "::" + def->events[i]);
      if (!enc) return enc.status();
      const int sign =
          def->op == CustomPresetDef::Op::kDerivedSub && i > 0 ? -1 : 1;
      plan.emplace_back(std::move(*enc), sign);
    }
  }
  return set.add_user_event(name, /*is_preset=*/true, plan);
}

Expected<std::string> Library::canonical_event_name(
    std::string_view name) const {
  // Mirrors add_event's resolution order: custom presets, built-in
  // presets, then the pfm native path — without touching any set.
  if (starts_with(name, "PAPI_") || starts_with(name, "papi_")) {
    for (const auto& [pmu_name, defs] : custom_presets_.sections) {
      for (const CustomPresetDef& def : defs) {
        if (iequals(def.name, name)) return def.name;
      }
    }
  }
  if (const PresetDef* preset = find_preset(name)) return preset->name;
  auto enc = pfm_.encode(name);
  if (!enc) return enc.status();
  return enc->canonical_name;
}

Status Library::add_event(int eventset, std::string_view name) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  if (set->running()) {
    return make_error(StatusCode::kAlreadyRunning,
                      "cannot add events while running");
  }

  // Custom (file-defined) presets take precedence over built-ins.
  if (starts_with(name, "PAPI_") || starts_with(name, "papi_")) {
    for (const auto& [pmu_name, defs] : custom_presets_.sections) {
      for (const CustomPresetDef& def : defs) {
        if (iequals(def.name, name)) {
          return add_custom_preset(*set, name);
        }
      }
    }
  }

  // Preset path: resolve per core PMU under the configured policy.
  if (const PresetDef* preset = find_preset(name)) {
    const auto defaults = pfm_.default_pmus();
    if (defaults.empty()) {
      return make_error(StatusCode::kComponent, "no core PMU active");
    }
    std::vector<std::pair<pfm::Encoding, int>> plan;
    switch (config_.preset_policy) {
      case PresetPolicy::kErrorOnHybrid:
        if (defaults.size() > 1) {
          return make_error(
              StatusCode::kNotPreset,
              "presets are ambiguous on heterogeneous machines (legacy "
              "preset policy)");
        }
        [[fallthrough]];
      case PresetPolicy::kDefaultPmuOnly: {
        const pfm::ActivePmu* pmu = defaults.front();
        const auto native = native_for_kind(*pmu->table, preset->kind);
        if (!native) {
          return make_error(StatusCode::kNotPreset,
                            preset->name + " not measurable on " +
                                pmu->table->pfm_name);
        }
        auto enc = pfm_.encode(pmu->table->pfm_name + "::" + *native);
        if (!enc) return enc.status();
        plan.emplace_back(std::move(*enc), 1);
        break;
      }
      case PresetPolicy::kDerivedSum:
        for (const pfm::ActivePmu* pmu : defaults) {
          const auto native = native_for_kind(*pmu->table, preset->kind);
          if (!native) {
            return make_error(StatusCode::kNotPreset,
                              preset->name + " not measurable on " +
                                  pmu->table->pfm_name +
                                  "; derived sum would undercount");
          }
          auto enc = pfm_.encode(pmu->table->pfm_name + "::" + *native);
          if (!enc) return enc.status();
          plan.emplace_back(std::move(*enc), 1);
        }
        break;
    }
    return set->add_user_event(preset->name, /*is_preset=*/true, plan);
  }

  // Native path.
  auto enc = pfm_.encode(name);
  if (!enc) return enc.status();
  return set->add_user_event(name, /*is_preset=*/false,
                             {{std::move(*enc), 1}});
}

Status Library::remove_event(int eventset, std::string_view name) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  if (set->running()) {
    return make_error(StatusCode::kAlreadyRunning,
                      "cannot remove events while running");
  }
  return set->remove_event(name);
}

Status Library::set_multiplex(int eventset) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->set_multiplex();
}

Status Library::set_overflow(int eventset, int user_event_index,
                             std::uint64_t threshold,
                             OverflowCallback callback) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->set_overflow(user_event_index, threshold, std::move(callback));
}

const SampleSource* Library::sample_source(const pfm::Encoding& enc) {
  const std::lock_guard<std::mutex> lock(sample_sources_mutex_);
  auto it = sample_sources_.find(enc.canonical_name);
  if (it == sample_sources_.end()) {
    // The core-type label is resolved once here, not per record — the
    // same ladder read_qualified uses (§V-2).
    it = sample_sources_
             .emplace(enc.canonical_name,
                      SampleSource{enc.canonical_name, enc.pmu_name,
                                   core_type_for_pmu(enc.pmu_name)})
             .first;
  }
  return &it->second;
}

Expected<SampleBatch> Library::read_samples(int eventset) {
  SampleBatch batch;
  HETPAPI_RETURN_IF_ERROR(read_samples_into(eventset, batch));
  return batch;
}

Status Library::read_samples_into(int eventset, SampleBatch& batch) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  // Reset every counter but keep the samples' capacity.
  std::vector<Sample> samples = std::move(batch.samples);
  samples.clear();
  batch = SampleBatch{};
  batch.samples = std::move(samples);
  return set->drain_samples(batch);
}

// --- run control -------------------------------------------------------------

Status Library::start(int eventset) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->start();
}

Expected<std::vector<long long>> Library::stop(int eventset) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->stop();
}

Expected<std::vector<long long>> Library::read(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->read();
}

Status Library::read_into(int eventset, std::vector<long long>& out) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->read_into(out);
}

Status Library::read_qualified_into(int eventset,
                                    std::vector<QualifiedReading>& out) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->read_qualified_into(out);
}

Expected<Reading> Library::read_checked(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->read_checked();
}

Expected<bool> Library::eventset_degraded(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->degraded();
}

std::string Library::core_type_for_pmu(std::string_view pmu_name) const {
  const pfm::ActivePmu* pmu = pfm_.find_pmu(pmu_name);
  if (pmu == nullptr || !pmu->is_core) return "";
  return core_type_label(hwinfo_.detection, pmu->cpus);
}

Expected<std::vector<QualifiedReading>> Library::read_qualified(
    int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  // Core-type labels are filled by the set's resolver (installed at
  // create_eventset), so the in-place path and this one agree.
  return set->read_qualified();
}

Status Library::accum(int eventset, std::vector<long long>& values) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->accum(values);
}

Expected<Library::SetStatePublic> Library::state(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->running() ? SetStatePublic::kRunning : SetStatePublic::kStopped;
}

Status Library::reset(int eventset) {
  EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->reset();
}

Expected<std::vector<EventInfo>> Library::eventset_info(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->info();
}

Expected<int> Library::eventset_group_count(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  if (set == nullptr) {
    return make_error(StatusCode::kNoEventSet, "no such EventSet");
  }
  return set->group_count();
}

bool Library::eventset_running(int eventset) const {
  const EventSetCore* set = find_set(eventset);
  return set != nullptr && set->running();
}

}  // namespace hetpapi::papi
