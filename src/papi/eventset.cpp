#include "papi/eventset.hpp"

#include <algorithm>

#include "base/strings.hpp"
#include "papi/retry.hpp"
#include "papi/user_page_read.hpp"

namespace hetpapi::papi {

const SampleSource* NameTable::labels(const pfm::Encoding& enc) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = labels_.find(enc.canonical_name);
  if (it == labels_.end()) {
    // The core-type label is resolved once here, not per read or record
    // (§V-2).
    it = labels_
             .emplace(enc.canonical_name,
                      SampleSource{enc.canonical_name, enc.pmu_name,
                                   core_type_(enc.pmu_name)})
             .first;
  }
  return &it->second;
}

std::string_view NameTable::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = names_.find(name);
  if (it == names_.end()) it = names_.emplace(name).first;
  return *it;
}

namespace {

/// Folds members' values into slot totals. Unscaled values are exact
/// integers and fold as such, in any order. Multiplex-scaled estimates
/// are summed as doubles per user event — in native order, since a
/// multiplexed set's groups are singletons opened in that order — and
/// truncated, exactly as one double sum per slot would be.
struct Fold {
  double* sums;  // non-null for a scaled collection

  void into(long long& total, const auto& entry, double value) const {
    if (sums != nullptr) {
      total = static_cast<long long>(sums[entry.user] += entry.sign * value);
    } else {
      total += entry.sign * static_cast<long long>(value);
    }
  }
};

/// read_into, stop, accum: totals only; a group that cannot deliver
/// fails the call.
struct TotalsSink : Fold {
  static constexpr bool kTolerant = false;
  long long* totals;
  void add(const auto& entry, double value) {
    into(totals[entry.user], entry, value);
  }
  void fail(const auto&) {}
};

/// read_checked_into: totals plus per-slot degradation.
struct CheckedSink : Fold {
  static constexpr bool kTolerant = true;
  Reading* out;
  void add(const auto& entry, double value) {
    into(out->values[entry.user], entry, value);
  }
  void fail(const auto& entry) {
    out->value_degraded[entry.user] = 1;
    out->degraded = true;
  }
};

/// read_qualified_into: each part's own value and validity, plus totals.
/// A failed part keeps the invalid, zero state set before collecting.
struct QualifiedSink : Fold {
  static constexpr bool kTolerant = true;
  QualifiedReading* out;
  void add(const auto& entry, double value) {
    QualifiedValue& part = out[entry.user].parts[entry.part];
    part.value = static_cast<long long>(value);
    part.valid = true;
    into(out[entry.user].total, entry, value);
  }
  void fail(const auto& entry) { out[entry.user].degraded = true; }
};

/// The fold a collection starts with: zeroed sums when scaled.
Fold begin_fold(bool scaled, std::vector<double>& sums) {
  if (!scaled) return Fold{nullptr};
  std::fill(sums.begin(), sums.end(), 0.0);
  return Fold{sums.data()};
}

void set_labels(QualifiedValue& part, const SampleSource& labels, int sign) {
  part = QualifiedValue{labels.native_name, labels.pmu_name, labels.core_type,
                        sign, 0, false};
}

}  // namespace

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
  if (slot.sample_period > 0) request.sample_source = slot.labels;
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
  slot.labels = names_->labels(enc);
  slot.user_event_index = static_cast<int>(user_events_.size());
  slot.part = static_cast<std::uint32_t>(user.native_indices.size());
  slot.sign = sign;
  natives_.push_back(slot);
  const auto native_idx = static_cast<int>(natives_.size() - 1);

  const Status opened = open_slot(static_cast<std::size_t>(native_idx));
  if (!opened.is_ok()) {
    natives_.pop_back();
    return opened;
  }
  user.native_indices.push_back(native_idx);
  return Status::ok();
}

Status EventSetCore::add_user_event(
    std::string_view display_name, bool is_preset,
    const std::vector<std::pair<pfm::Encoding, int>>& constituents) {
  UserEvent user;
  user.display_name = names_->intern(display_name);
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
        user.missing.push_back(MissingConstituent{names_->labels(enc), sign});
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
  build_plan();
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
  // A running set torn down here (a force-destroy whose stop faulted)
  // gives up its component locks: its counters close below, so nothing
  // runs under them, and a kept lock would refuse every later start on
  // the same target with kConflict.
  if (running()) {
    const MeasureTarget tgt = target();
    for (const ComponentUse& use : uses_) locks_->release(*use.component, tgt);
    state_ = SetState::kStopped;
  }
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
  build_plan();
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
    build_plan();
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

  if (target_ != simkernel::kInvalidTid) {
    backend_->charge_call_overhead(
        target_,
        config_->call_overhead_instructions * kernel_groups_);
  }
  return Status::ok();
}

Expected<std::vector<long long>> EventSetCore::stop() {
  if (!running()) {
    return make_error(StatusCode::kNotRunning, "EventSet is not running");
  }
  std::vector<long long> values;
  HETPAPI_RETURN_IF_ERROR(collect_totals(values));

  const MeasureTarget tgt = target();
  for (ComponentUse& use : uses_) {
    HETPAPI_RETURN_IF_ERROR(use.component->stop(*use.state));
    locks_->release(*use.component, tgt);
  }
  state_ = SetState::kStopped;

  if (target_ != simkernel::kInvalidTid) {
    backend_->charge_call_overhead(
        target_,
        config_->call_overhead_instructions * kernel_groups_);
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
      target_, config_->call_overhead_instructions * kernel_groups_);
}

void EventSetCore::build_plan() {
  plan_.clear();
  seams_.clear();
  kernel_groups_ = 0;
  plan_partial_.assign(user_events_.size(), 0);
  for (std::size_t u = 0; u < user_events_.size(); ++u) {
    if (!user_events_[u].missing.empty()) plan_partial_[u] = 1;
  }
  // Where a native's value folds to: its user event, part and sign.
  const auto entry_for = [this](std::size_t native) {
    const NativeSlot& slot = natives_[native];
    PlanEntry entry;
    entry.native = static_cast<std::uint32_t>(native);
    entry.user = static_cast<std::uint32_t>(slot.user_event_index);
    entry.part = slot.part;
    entry.sign = slot.sign;
    return entry;
  };

  std::size_t widest_group = 0;
  std::vector<KernelGroupMember> members;
  for (const ComponentUse& use : uses_) {
    members.clear();
    if (!use.component->kernel_groups(*use.state, members)) {
      PlanSeam& seam = seams_.emplace_back(PlanSeam{&use, {}});
      for (std::size_t n = 0; n < natives_.size(); ++n) {
        if (natives_[n].component == use.component) {
          seam.entries.push_back(entry_for(n));
        }
      }
      continue;
    }
    std::size_t first = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const KernelGroupMember& member = members[m];
      if (m == 0 || member.leader_fd != members[m - 1].leader_fd) {
        first = plan_.size();
        ++kernel_groups_;
      }
      PlanEntry entry = entry_for(member.native);
      // A group goes to the page path iff every member's user page
      // mapped and advertises cap_user_rdpmc. Residency is not checked
      // here: it changes per tick, and the per-read seqlock loop falls
      // back to the group read when a member is not resident.
      if (config_->use_rdpmc) {
        if (auto page = backend_->perf_mmap_user_page(member.fd);
            page && ((*page)->capabilities & simkernel::kCapUserRdpmc)) {
          entry.page = *page;
        }
      }
      plan_.push_back(entry);
      PlanEntry& leader = plan_[first];
      leader.leader_fd = member.leader_fd;
      leader.rdpmc =
          (leader.count == 0 || leader.rdpmc) && entry.page != nullptr;
      ++leader.count;
      widest_group = std::max<std::size_t>(widest_group, leader.count);
    }
  }

  group_values_.reserve(widest_group);
  page_values_.resize(widest_group);
  scaled_sums_.assign(user_events_.size(), 0.0);
  seam_values_.assign(natives_.size(), 0.0);
  seam_valid_.assign(natives_.size(), 1);
}

bool EventSetCore::read_pages(const PlanEntry* group) const {
  // Fast path first (§V-5): every member served from its mmap'd user
  // page with the seqlock retry loop — no syscall; scaled reads take
  // time_enabled/time_running from the page, so a multiplexed event
  // gets the same estimate as from the fd. Any member that cannot be
  // served (not resident: disabled, multiplexed out or migrated core
  // types; rdpmc revoked; retries exhausted) sends the WHOLE group to
  // the group read so its values stay mutually consistent.
  for (std::uint32_t i = 0; i < group->count; ++i) {
    UserPageSample sample;
    if (read_user_page(*group[i].page, sample) != UserPageReadResult::kOk) {
      return false;
    }
    page_values_[i] = PerfValue{sample.value, sample.time_enabled_ns,
                                sample.time_running_ns};
  }
  return true;
}

template <typename Sink>
Status EventSetCore::collect(Sink& sink) const {
  const PlanEntry* const end = plan_.data() + plan_.size();
  for (const PlanEntry* group = plan_.data(); group != end;
       group += group->count) {
    const std::uint32_t count = group->count;
    const PerfValue* values = page_values_.data();
    if (!group->rdpmc || !read_pages(group)) {
      Status read = retry_transient(kTransientRetryAttempts, [&] {
        return backend_->perf_read_group_into(group->leader_fd, group_values_);
      });
      if (read.is_ok() && group_values_.size() != count) {
        read = make_error(StatusCode::kBug, "group read size mismatch");
      }
      if (!read.is_ok()) {
        // Strict callers abort the collection; tolerant callers degrade
        // this group's slots and keep reading the other groups — one
        // dead counter costs one group, not the whole EventSet.
        if constexpr (!Sink::kTolerant) {
          return read;
        } else {
          for (std::uint32_t i = 0; i < count; ++i) sink.fail(group[i]);
          continue;
        }
      }
      values = group_values_.data();
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      sink.add(group[i], multiplexed_ ? values[i].scaled()
                                      : static_cast<double>(values[i].value));
    }
  }

  for (const PlanSeam& seam : seams_) {
    std::vector<std::uint8_t>* valid = nullptr;
    if constexpr (Sink::kTolerant) {
      std::fill(seam_valid_.begin(), seam_valid_.end(), 1);
      valid = &seam_valid_;
    }
    HETPAPI_RETURN_IF_ERROR(seam.use->component->read(
        *seam.use->state, multiplexed_, seam_values_, valid));
    for (const PlanEntry& entry : seam.entries) {
      if (valid == nullptr || seam_valid_[entry.native] != 0) {
        sink.add(entry, seam_values_[entry.native]);
      } else {
        sink.fail(entry);
      }
    }
  }
  return Status::ok();
}

Status EventSetCore::collect_totals(std::vector<long long>& out) const {
  out.assign(user_events_.size(), 0);
  TotalsSink sink{begin_fold(multiplexed_, scaled_sums_), out.data()};
  return collect(sink);
}

Status EventSetCore::read_into(std::vector<long long>& out) const {
  HETPAPI_RETURN_IF_ERROR(collect_totals(out));
  charge_read_overhead();
  return Status::ok();
}

Status EventSetCore::read_checked_into(Reading& out) const {
  out.values.assign(user_events_.size(), 0);
  out.value_degraded = plan_partial_;
  out.degraded = degraded();
  CheckedSink sink{begin_fold(multiplexed_, scaled_sums_), &out};
  HETPAPI_RETURN_IF_ERROR(collect(sink));
  charge_read_overhead();
  return Status::ok();
}

Status EventSetCore::read_qualified_into(
    std::vector<QualifiedReading>& out) const {
  // One collection — the same plan and per-call charge as read() — that
  // also keeps each constituent's own value, so the breakdown and the
  // total come from the same instant. Constituents that never opened
  // (degraded add) or cannot deliver come back as invalid parts (value
  // 0, excluded from the total). The shape is fixed for the lifetime of
  // the layout, so a reused buffer only has views, signs and values
  // rewritten: no string is compared or copied.
  out.resize(user_events_.size());
  for (std::size_t u = 0; u < user_events_.size(); ++u) {
    const UserEvent& user = user_events_[u];
    QualifiedReading& reading = out[u];
    reading.display_name = user.display_name;
    reading.is_preset = user.is_preset;
    reading.total = 0;
    reading.degraded = !user.missing.empty();
    const std::size_t opened = user.native_indices.size();
    reading.parts.resize(opened + user.missing.size());
    for (std::size_t i = 0; i < opened; ++i) {
      const NativeSlot& slot =
          natives_[static_cast<std::size_t>(user.native_indices[i])];
      set_labels(reading.parts[i], *slot.labels, slot.sign);
    }
    for (std::size_t m = 0; m < user.missing.size(); ++m) {
      set_labels(reading.parts[opened + m], *user.missing[m].labels,
                 user.missing[m].sign);
    }
  }
  QualifiedSink sink{begin_fold(multiplexed_, scaled_sums_), out.data()};
  HETPAPI_RETURN_IF_ERROR(collect(sink));
  charge_read_overhead();
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
  HETPAPI_RETURN_IF_ERROR(collect_totals(accum_values_));
  for (std::size_t u = 0; u < values.size(); ++u) {
    values[u] += accum_values_[u];
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
  return std::find(plan_partial_.begin(), plan_partial_.end(), 1) !=
         plan_partial_.end();
}

Expected<std::vector<EventInfo>> EventSetCore::info() const {
  std::vector<EventInfo> out;
  for (const UserEvent& user : user_events_) {
    EventInfo info;
    info.display_name = std::string(user.display_name);
    info.is_preset = user.is_preset;
    for (int idx : user.native_indices) {
      info.native_names.push_back(
          natives_[static_cast<std::size_t>(idx)].enc.canonical_name);
    }
    info.degraded = !user.missing.empty();
    for (const MissingConstituent& missing : user.missing) {
      info.missing_names.push_back(missing.labels->native_name);
    }
    out.push_back(std::move(info));
  }
  return out;
}


}  // namespace hetpapi::papi
