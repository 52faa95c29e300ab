#include "papi/eventset.hpp"

#include <algorithm>

#include "base/strings.hpp"

namespace hetpapi::papi {

Status EventSetCore::attach(Tid tid) {
  if (running()) {
    return make_error(StatusCode::kAlreadyRunning, "EventSet is running");
  }
  target_ = tid;
  target_cpu_ = -1;
  if (!natives_.empty()) return reopen_all();
  return Status::ok();
}

Status EventSetCore::attach_cpu(int cpu) {
  if (running()) {
    return make_error(StatusCode::kAlreadyRunning, "EventSet is running");
  }
  target_cpu_ = cpu;
  target_ = simkernel::kInvalidTid;
  if (!natives_.empty()) return reopen_all();
  return Status::ok();
}

EventSetCore::ComponentUse& EventSetCore::use_for(Component* component) {
  for (ComponentUse& use : uses_) {
    if (use.component == component) return use;
  }
  uses_.push_back(ComponentUse{component, component->create_state()});
  return uses_.back();
}

Status EventSetCore::open_slot(std::size_t native_idx) {
  NativeSlot& slot = natives_[native_idx];
  SlotRequest request;
  request.enc = slot.enc;
  request.global_index = native_idx;
  request.sample_period = slot.sample_period;
  request.eventset_id = id_;
  request.user_event_index = slot.user_event_index;
  if (slot.sample_period > 0 && sample_source_resolver_) {
    request.sample_source = sample_source_resolver_(slot.enc);
  }
  ComponentUse& use = use_for(slot.component);
  return slot.component->open_slot(*use.state, request, target());
}

Status EventSetCore::add_native(const pfm::Encoding& enc, int sign,
                                UserEvent& user) {
  if (natives_.full()) {
    return make_error(StatusCode::kNoMemory, "EventSet is full");
  }
  const pfm::ActivePmu* pmu = pfm_->find_pmu(enc.pmu_name);
  if (pmu == nullptr) {
    return make_error(StatusCode::kBug, "encoding references unknown PMU");
  }
  Component* component = registry_->component_for(*pmu);
  if (component == nullptr) {
    return make_error(StatusCode::kNotSupported,
                      "no registered component serves PMU " + enc.pmu_name);
  }

  // Legacy single-PMU constraint: without hybrid support an EventSet is
  // pinned to the PMU of its first event — "you cannot have P- and
  // E-core events in the same EventSet, nor can you have things like
  // CPU and RAPL power events in the same EventSet" (PAPI_ECNFLCT).
  if (!config_->hybrid_support) {
    for (const NativeSlot& slot : natives_) {
      if (slot.enc.perf_type != enc.perf_type) {
        return make_error(
            StatusCode::kConflict,
            "EventSet already contains " + slot.enc.pmu_name +
                " events; adding " + enc.pmu_name +
                " requires heterogeneous support (PAPI_ECNFLCT)");
      }
    }
  }

  NativeSlot slot;
  slot.enc = enc;
  slot.component = component;
  slot.user_event_index = static_cast<int>(user_events_.size());
  natives_.push_back(slot);
  const auto native_idx = static_cast<int>(natives_.size() - 1);

  const Status opened = open_slot(static_cast<std::size_t>(native_idx));
  if (!opened.is_ok()) {
    natives_.pop_back();
    return opened;
  }
  user.native_indices.push_back(native_idx);
  user.native_signs.push_back(sign);
  return Status::ok();
}

Status EventSetCore::add_user_event(
    std::string_view display_name, bool is_preset,
    const std::vector<std::pair<pfm::Encoding, int>>& constituents) {
  UserEvent user;
  user.display_name = std::string(display_name);
  user.is_preset = is_preset;

  // All-or-nothing by default: remember how much to roll back on
  // failure. With degrade_partial_presets a multi-constituent (derived
  // hybrid) event instead keeps whatever constituents opened — one
  // refusing core-type PMU narrows the event rather than rejecting it —
  // as long as at least one opened. kConflict stays fatal either way:
  // a PMU-mix violation is a caller error, not a flaky kernel.
  const bool may_degrade =
      config_->degrade_partial_presets && constituents.size() > 1;
  const std::size_t natives_before = natives_.size();
  Status first_failure = Status::ok();
  for (const auto& [enc, sign] : constituents) {
    const Status added = add_native(enc, sign, user);
    if (!added.is_ok()) {
      if (may_degrade && added.code() != StatusCode::kConflict) {
        if (first_failure.is_ok()) first_failure = added;
        user.missing.push_back(
            MissingConstituent{enc, sign, added.to_string()});
        continue;
      }
      (void)rollback_natives(natives_before);
      return added;
    }
  }
  if (user.native_indices.empty()) {
    // Every constituent refused — nothing to degrade to.
    (void)rollback_natives(natives_before);
    return first_failure;
  }
  user_events_.push_back(std::move(user));
  return Status::ok();
}

Status EventSetCore::remove_event(std::string_view name) {
  std::size_t user_idx = user_events_.size();
  for (std::size_t i = 0; i < user_events_.size(); ++i) {
    if (iequals(user_events_[i].display_name, name)) {
      user_idx = i;
      break;
    }
  }
  if (user_idx == user_events_.size()) {
    return make_error(StatusCode::kNotFound,
                      std::string(name) + " is not in the EventSet");
  }

  // Tear down every component's slots first: they reference native
  // slots by index, and those indices are about to shift.
  HETPAPI_RETURN_IF_ERROR(close_everything());

  // Drop the removed event's native slots, highest index first so the
  // lower ones stay valid while erasing.
  const UserEvent removed = std::move(user_events_[user_idx]);
  std::vector<int> dropped(removed.native_indices.begin(),
                           removed.native_indices.end());
  std::sort(dropped.begin(), dropped.end());
  for (std::size_t i = dropped.size(); i-- > 0;) {
    natives_.erase_at(static_cast<std::size_t>(dropped[i]));
  }
  user_events_.erase(user_events_.begin() +
                     static_cast<std::ptrdiff_t>(user_idx));

  // Remap the survivors: each native slot's owning user event shifts
  // down past the removed one; each user event's native indices shift
  // down past every dropped slot below them.
  for (NativeSlot& slot : natives_) {
    if (slot.user_event_index > static_cast<int>(user_idx)) {
      --slot.user_event_index;
    }
  }
  for (UserEvent& user : user_events_) {
    for (std::size_t i = 0; i < user.native_indices.size(); ++i) {
      const int idx = user.native_indices[i];
      int shift = 0;
      for (const int d : dropped) {
        if (d < idx) ++shift;
      }
      user.native_indices[i] = idx - shift;
    }
  }

  // Re-open the survivors in order, rebuilding the groups.
  return reopen_slots_or_empty();
}

Status EventSetCore::close_everything() {
  Status first_error = Status::ok();
  for (ComponentUse& use : uses_) {
    const Status s = use.component->close_all(*use.state);
    if (!s.is_ok() && first_error.is_ok()) first_error = s;
  }
  uses_.clear();
  return first_error;
}

Status EventSetCore::reopen_all() {
  HETPAPI_RETURN_IF_ERROR(close_everything());
  return reopen_slots_or_empty();
}

Status EventSetCore::try_open_slots() {
  for (std::size_t i = 0; i < natives_.size(); ++i) {
    const Status opened = open_slot(i);
    if (!opened.is_ok()) {
      // Leak-free but layout-preserving: the caller decides whether to
      // amend the layout and retry (transactional set_overflow) or give
      // up (reopen_slots_or_empty).
      (void)close_everything();
      return opened;
    }
  }
  return Status::ok();
}

Status EventSetCore::reopen_slots_or_empty() {
  const Status opened = try_open_slots();
  if (!opened.is_ok()) {
    // The prior layout cannot be restored (e.g. the backend now
    // refuses an open that used to succeed). A half-open set would
    // serve stale values for the unopened slots, so fall back to the
    // one state that is always consistent and leak-free: empty.
    natives_.clear();
    user_events_.clear();
    return make_error(StatusCode::kComponent,
                      "could not restore the EventSet layout (" +
                          opened.to_string() +
                          "); the set was emptied, no fds leaked");
  }
  return Status::ok();
}

Status EventSetCore::rollback_natives(std::size_t natives_before) {
  // The components' group bookkeeping may reference the slots being
  // dropped, so tear everything down and rebuild from the survivors.
  (void)close_everything();
  while (natives_.size() > natives_before) natives_.pop_back();
  return reopen_slots_or_empty();
}

Status EventSetCore::set_multiplex() {
  if (running()) {
    return make_error(StatusCode::kAlreadyRunning, "EventSet is running");
  }
  if (multiplexed_) return Status::ok();
  for (const NativeSlot& slot : natives_) {
    if (!slot.component->caps().multiplex) {
      return make_error(StatusCode::kNotSupported,
                        "component " + std::string(slot.component->name()) +
                            " does not support multiplexing");
    }
  }
  multiplexed_ = true;
  return reopen_all();
}

Status EventSetCore::set_overflow(int user_event_index,
                                  std::uint64_t threshold,
                                  OverflowCallback callback) {
  if (running()) {
    return make_error(StatusCode::kAlreadyRunning, "EventSet is running");
  }
  if (user_event_index < 0 ||
      user_event_index >= static_cast<int>(user_events_.size())) {
    return make_error(StatusCode::kInvalidArgument, "no such event index");
  }
  if (threshold == 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "overflow threshold must be positive");
  }
  const UserEvent& user =
      user_events_[static_cast<std::size_t>(user_event_index)];
  for (int idx : user.native_indices) {
    const Component* c = natives_[static_cast<std::size_t>(idx)].component;
    if (!c->caps().overflow) {
      return make_error(StatusCode::kNotSupported,
                        "component " + std::string(c->name()) +
                            " does not support overflow sampling");
    }
  }
  // Snapshot for rollback: arming is transactional. If the sampling
  // layout cannot be opened (a constituent refuses sample_period), the
  // previous counting configuration is restored instead of emptying a
  // working set.
  FixedVector<std::uint64_t, kMaxEventSetEvents> old_periods;
  for (const NativeSlot& slot : natives_) {
    old_periods.push_back(slot.sample_period);
  }
  OverflowCallback old_callback = overflow_callback_;

  overflow_callback_ = std::move(callback);
  for (int idx : user.native_indices) {
    natives_[static_cast<std::size_t>(idx)].sample_period = threshold;
  }
  // Re-open so the kernel sees the sampling configuration.
  HETPAPI_RETURN_IF_ERROR(close_everything());
  const Status armed = try_open_slots();
  if (armed.is_ok()) return Status::ok();

  // Roll back to the counting layout. Only a failure of the restoration
  // itself (the backend now refuses opens that used to succeed) falls
  // through to the empty state.
  for (std::size_t i = 0; i < natives_.size(); ++i) {
    natives_[i].sample_period = old_periods[i];
  }
  overflow_callback_ = std::move(old_callback);
  HETPAPI_RETURN_IF_ERROR(reopen_slots_or_empty());
  return armed;
}

Status EventSetCore::drain_samples(SampleBatch& batch) {
  bool sampling = false;
  for (const NativeSlot& slot : natives_) {
    if (slot.sample_period > 0) {
      sampling = true;
      break;
    }
  }
  if (!sampling) {
    return make_error(StatusCode::kInvalidArgument,
                      "EventSet has no sampling events; call set_overflow "
                      "first");
  }
  // The ring drain is the only delivery path, as on real Linux: the
  // callback sees each record this pass appended, once, in ring order.
  const std::size_t first_new = batch.samples.size();
  for (ComponentUse& use : uses_) {
    if (!use.component->caps().overflow) continue;
    const Status drained = use.component->drain_samples(*use.state, batch);
    if (!drained.is_ok() && drained.code() != StatusCode::kNotSupported) {
      return drained;
    }
  }
  if (overflow_callback_) {
    for (std::size_t i = first_new; i < batch.samples.size(); ++i) {
      overflow_callback_(batch.samples[i]);
    }
  }
  return Status::ok();
}

Status EventSetCore::start() {
  if (running()) {
    return make_error(StatusCode::kAlreadyRunning, "already started");
  }
  if (natives_.empty()) {
    return make_error(StatusCode::kInvalidArgument, "EventSet is empty");
  }

  // One running EventSet per component per measured thread (package
  // scope components hold a genuinely global lock). Check every lock
  // before enabling anything so a conflict leaves the set untouched.
  const MeasureTarget tgt = target();
  for (const ComponentUse& use : uses_) {
    HETPAPI_RETURN_IF_ERROR(locks_->check(*use.component, tgt, id_));
  }

  // Transactional enable: a component that refuses to start rolls the
  // already-started ones back, so a failed start() leaves no counter
  // silently running and the set cleanly stopped.
  for (std::size_t j = 0; j < uses_.size(); ++j) {
    const Status started = uses_[j].component->start(*uses_[j].state);
    if (!started.is_ok()) {
      for (std::size_t k = j; k-- > 0;) {
        (void)uses_[k].component->stop(*uses_[k].state);
      }
      return started;
    }
  }
  for (const ComponentUse& use : uses_) {
    locks_->acquire(*use.component, tgt, id_);
  }
  state_ = SetState::kRunning;
  // The group layout cannot change while running; every per-call
  // overhead charge until stop() uses this cached count.
  running_group_count_ = static_cast<std::uint64_t>(group_count());

  if (target_ != simkernel::kInvalidTid) {
    backend_->charge_call_overhead(
        target_,
        config_->call_overhead_instructions * running_group_count_);
  }
  return Status::ok();
}

Expected<std::vector<long long>> EventSetCore::stop() {
  if (!running()) {
    return make_error(StatusCode::kNotRunning, "EventSet is not running");
  }
  auto values = collect();
  if (!values) return values.status();

  const MeasureTarget tgt = target();
  for (ComponentUse& use : uses_) {
    HETPAPI_RETURN_IF_ERROR(use.component->stop(*use.state));
    locks_->release(*use.component, tgt);
  }
  state_ = SetState::kStopped;

  if (target_ != simkernel::kInvalidTid) {
    backend_->charge_call_overhead(
        target_,
        config_->call_overhead_instructions * running_group_count_);
  }
  return values;
}

void EventSetCore::charge_read_overhead() const {
  // Skip the virtual-call round trip entirely when the overhead model
  // is off (the benches set call_overhead_instructions = 0): measuring,
  // not modelling.
  if (config_->call_overhead_instructions == 0) return;
  if (target_ == simkernel::kInvalidTid || !running()) return;
  backend_->charge_call_overhead(
      target_, config_->call_overhead_instructions * running_group_count_);
}

Expected<std::vector<long long>> EventSetCore::read() const {
  auto values = collect();
  if (values) charge_read_overhead();
  return values;
}

Status EventSetCore::read_into(std::vector<long long>& out) const {
  HETPAPI_RETURN_IF_ERROR(collect_natives());
  charge_read_overhead();
  fold_user_events(out);
  return Status::ok();
}

Expected<std::vector<QualifiedReading>> EventSetCore::read_qualified() const {
  std::vector<QualifiedReading> out;
  HETPAPI_RETURN_IF_ERROR(read_qualified_into(out));
  return out;
}

Status EventSetCore::read_qualified_into(
    std::vector<QualifiedReading>& out) const {
  // One kernel collection — the same fan-out and per-call charge as
  // read() — then keep the per-native values instead of folding them
  // away, so the breakdown and the total come from the same instant.
  // Collection is tolerant: a constituent that cannot deliver comes
  // back as an invalid part (value 0, excluded from the total) rather
  // than failing the whole reading, and constituents that never opened
  // (degraded add) are reported the same way.
  //
  // `out` is updated in place: the reading/part structure is fixed for
  // the lifetime of the set's layout, so a reused buffer only has its
  // values rewritten — the string labels are verified (cheap equality on
  // match) and repaired only when the layout actually changed under the
  // buffer. This is what takes the qualified read from ~700 ns of
  // per-call allocations down to the plain-read cost.
  HETPAPI_RETURN_IF_ERROR(collect_checked());
  charge_read_overhead();

  if (out.size() != user_events_.size()) out.resize(user_events_.size());
  for (std::size_t u = 0; u < user_events_.size(); ++u) {
    const UserEvent& user = user_events_[u];
    QualifiedReading& reading = out[u];
    const std::size_t parts_needed =
        user.native_indices.size() + user.missing.size();
    if (reading.parts.size() != parts_needed) {
      reading.parts.clear();
      reading.parts.resize(parts_needed);
    }
    if (reading.display_name != user.display_name) {
      reading.display_name = user.display_name;
    }
    reading.is_preset = user.is_preset;
    reading.degraded = !user.missing.empty();
    double sum = 0.0;
    for (std::size_t i = 0; i < user.native_indices.size(); ++i) {
      const auto native_idx =
          static_cast<std::size_t>(user.native_indices[i]);
      const NativeSlot& slot = natives_[native_idx];
      QualifiedValue& part = reading.parts[i];
      if (part.native_name != slot.enc.canonical_name) {
        part.native_name = slot.enc.canonical_name;
        part.pmu_name = slot.enc.pmu_name;
        part.core_type = core_type_resolver_
                             ? core_type_resolver_(slot.enc.pmu_name)
                             : std::string();
      }
      part.sign = user.native_signs[i];
      part.valid = valid_scratch_[native_idx] != 0;
      if (part.valid) {
        part.value = static_cast<long long>(native_scratch_[native_idx]);
        sum += user.native_signs[i] * native_scratch_[native_idx];
      } else {
        part.value = 0;
        reading.degraded = true;
      }
    }
    for (std::size_t m = 0; m < user.missing.size(); ++m) {
      const MissingConstituent& missing = user.missing[m];
      QualifiedValue& part =
          reading.parts[user.native_indices.size() + m];
      if (part.native_name != missing.enc.canonical_name) {
        part.native_name = missing.enc.canonical_name;
        part.pmu_name = missing.enc.pmu_name;
        part.core_type = core_type_resolver_
                             ? core_type_resolver_(missing.enc.pmu_name)
                             : std::string();
      }
      part.sign = missing.sign;
      part.valid = false;
      part.value = 0;
    }
    reading.total = static_cast<long long>(sum);
  }
  return Status::ok();
}

Status EventSetCore::accum(std::vector<long long>& values) {
  if (!running()) {
    return make_error(StatusCode::kNotRunning, "EventSet is not running");
  }
  if (values.size() != user_events_.size()) {
    return make_error(StatusCode::kInvalidArgument,
                      "values array must have one slot per event");
  }
  HETPAPI_RETURN_IF_ERROR(collect_natives());
  for (std::size_t u = 0; u < user_events_.size(); ++u) {
    values[u] += user_event_sum(user_events_[u]);
  }
  return reset();
}

Status EventSetCore::reset() {
  for (ComponentUse& use : uses_) {
    HETPAPI_RETURN_IF_ERROR(use.component->reset(*use.state));
  }
  return Status::ok();
}

bool EventSetCore::degraded() const {
  for (const UserEvent& user : user_events_) {
    if (!user.missing.empty()) return true;
  }
  return false;
}

Status EventSetCore::collect_checked() const {
  if (native_scratch_.size() != natives_.size()) {
    native_scratch_.assign(natives_.size(), 0.0);
  }
  valid_scratch_.assign(natives_.size(), 1);
  const bool scale = multiplexed_ && config_->scale_multiplexed;
  for (const ComponentUse& use : uses_) {
    HETPAPI_RETURN_IF_ERROR(use.component->read(
        *use.state, scale, native_scratch_, &valid_scratch_));
  }
  return Status::ok();
}

Expected<Reading> EventSetCore::read_checked() const {
  HETPAPI_RETURN_IF_ERROR(collect_checked());
  charge_read_overhead();

  Reading out;
  out.values.reserve(user_events_.size());
  out.value_degraded.reserve(user_events_.size());
  for (const UserEvent& user : user_events_) {
    double sum = 0.0;
    bool slot_degraded = !user.missing.empty();
    for (std::size_t i = 0; i < user.native_indices.size(); ++i) {
      const auto native_idx =
          static_cast<std::size_t>(user.native_indices[i]);
      if (valid_scratch_[native_idx] != 0) {
        sum += user.native_signs[i] * native_scratch_[native_idx];
      } else {
        slot_degraded = true;
      }
    }
    out.values.push_back(static_cast<long long>(sum));
    out.value_degraded.push_back(slot_degraded ? 1 : 0);
    out.degraded = out.degraded || slot_degraded;
  }
  return out;
}

Status EventSetCore::collect_natives() const {
  // Gather per-native raw/scaled values across every component in use.
  // Every native belongs to exactly one component which writes its slot
  // on success, so the scratch needs sizing but not zero-filling on
  // this hot path.
  if (native_scratch_.size() != natives_.size()) {
    native_scratch_.assign(natives_.size(), 0.0);
  }
  const bool scale = multiplexed_ && config_->scale_multiplexed;
  for (const ComponentUse& use : uses_) {
    HETPAPI_RETURN_IF_ERROR(
        use.component->read(*use.state, scale, native_scratch_));
  }
  return Status::ok();
}

void EventSetCore::fold_user_events(std::vector<long long>& out) const {
  out.resize(user_events_.size());  // no-op (no allocation) once sized
  for (std::size_t u = 0; u < user_events_.size(); ++u) {
    out[u] = user_event_sum(user_events_[u]);
  }
}

long long EventSetCore::user_event_sum(const UserEvent& user) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < user.native_indices.size(); ++i) {
    sum += user.native_signs[i] *
           native_scratch_[static_cast<std::size_t>(user.native_indices[i])];
  }
  return static_cast<long long>(sum);
}

Expected<std::vector<long long>> EventSetCore::collect() const {
  std::vector<long long> out;
  HETPAPI_RETURN_IF_ERROR(collect_natives());
  fold_user_events(out);
  return out;
}

Expected<std::vector<EventInfo>> EventSetCore::info() const {
  std::vector<EventInfo> out;
  for (const UserEvent& user : user_events_) {
    EventInfo info;
    info.display_name = user.display_name;
    info.is_preset = user.is_preset;
    for (int idx : user.native_indices) {
      info.native_names.push_back(
          natives_[static_cast<std::size_t>(idx)].enc.canonical_name);
    }
    info.degraded = !user.missing.empty();
    for (const MissingConstituent& missing : user.missing) {
      info.missing_names.push_back(missing.enc.canonical_name);
    }
    out.push_back(std::move(info));
  }
  return out;
}

int EventSetCore::group_count() const {
  int total = 0;
  for (const ComponentUse& use : uses_) {
    total += use.component->group_count(*use.state);
  }
  return total;
}

}  // namespace hetpapi::papi
