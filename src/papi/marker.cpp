#include "papi/marker.hpp"

#include <atomic>
#include <chrono>

#include "papi/library.hpp"

namespace hetpapi::papi {

namespace {

std::uint64_t default_time(void*) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t next_manager_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// Per-region accumulator local to one thread: no locking on the hot
/// path, merged under the manager mutex only in report().
struct RegionAccum {
  std::string name;
  std::uint64_t entries = 0;
  std::uint64_t time = 0;
  std::vector<long long> totals;
};

struct MarkerManager::ThreadState {
  const Library* lib = nullptr;
  int eventset = -1;

  struct Frame {
    int region = -1;            // index into regions
    std::uint64_t t0 = 0;       // time at begin
    std::vector<long long> snap;  // counter snapshot at begin
  };
  Frame frames[kMaxMarkerDepth];
  int depth = 0;

  std::vector<RegionAccum> regions;  // first-begin order
  std::vector<long long> scratch;    // region_end's read_into destination

  /// Region index for `name`, created on first sight (the only
  /// allocating path; steady-state begin/end never allocates).
  int region_index(std::string_view name) {
    for (std::size_t i = 0; i < regions.size(); ++i) {
      if (regions[i].name == name) return static_cast<int>(i);
    }
    RegionAccum accum;
    accum.name.assign(name.data(), name.size());
    regions.push_back(std::move(accum));
    return static_cast<int>(regions.size() - 1);
  }
};

namespace {

/// The tls cache: valid only while `manager_id` matches the live
/// manager's generation — a destroyed manager's id never recurs, so a
/// stale pointer is never dereferenced. Stored as void* because the
/// pointee type is private to MarkerManager.
struct TlsSlot {
  std::uint64_t manager_id = 0;
  void* state = nullptr;
};
thread_local TlsSlot tls_slot;

}  // namespace

MarkerManager::MarkerManager()
    : id_(next_manager_id()), time_fn_(&default_time) {}

MarkerManager::~MarkerManager() = default;

void MarkerManager::set_time_source(TimeFn fn, void* ctx) {
  time_fn_ = fn != nullptr ? fn : &default_time;
  time_ctx_ = ctx;
}

MarkerManager::ThreadState* MarkerManager::tls_state() const {
  if (tls_slot.manager_id != id_) return nullptr;
  return static_cast<ThreadState*>(tls_slot.state);
}

Status MarkerManager::attach_thread(const Library* lib, int eventset) {
  if (lib == nullptr) {
    return make_error(StatusCode::kInvalidArgument,
                      "marker attach: null library");
  }
  ThreadState* state = tls_state();
  if (state == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    state = owned.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::move(owned));
    }
    tls_slot = {id_, state};
  }
  state->lib = lib;
  state->eventset = eventset;
  state->depth = 0;  // re-attach drops open frames
  return Status::ok();
}

Status MarkerManager::detach_thread() {
  ThreadState* state = tls_state();
  if (state == nullptr) {
    return make_error(StatusCode::kInvalidArgument,
                      "marker detach: thread not attached");
  }
  state->depth = 0;
  state->lib = nullptr;
  state->eventset = -1;
  tls_slot = {};
  return Status::ok();
}

Status MarkerManager::region_begin(std::string_view name) {
  ThreadState* state = tls_state();
  if (state == nullptr || state->lib == nullptr) {
    return make_error(StatusCode::kInvalidArgument,
                      "region_begin: thread not attached to a marker manager");
  }
  if (state->depth >= kMaxMarkerDepth) {
    return make_error(StatusCode::kOutOfRange,
                      "region_begin: marker nesting deeper than "
                      "kMaxMarkerDepth");
  }
  const int region = state->region_index(name);
  // The snapshot lands straight in the frame (capacity reuse: no alloc
  // steady-state); a failed read leaves the frame uncommitted.
  ThreadState::Frame& frame = state->frames[state->depth];
  HETPAPI_RETURN_IF_ERROR(state->lib->read_into(state->eventset, frame.snap));
  frame.region = region;
  frame.t0 = time_fn_(time_ctx_);
  ++state->depth;
  return Status::ok();
}

Status MarkerManager::region_end(std::string_view name) {
  ThreadState* state = tls_state();
  if (state == nullptr || state->lib == nullptr) {
    return make_error(StatusCode::kInvalidArgument,
                      "region_end: thread not attached to a marker manager");
  }
  int match = -1;
  for (int i = state->depth - 1; i >= 0; --i) {
    if (state->regions[static_cast<std::size_t>(state->frames[i].region)]
            .name == name) {
      match = i;
      break;
    }
  }
  if (match < 0) {
    return make_error(StatusCode::kInvalidArgument,
                      "region_end: no open region with this name");
  }
  const std::uint64_t t1 = time_fn_(time_ctx_);
  HETPAPI_RETURN_IF_ERROR(
      state->lib->read_into(state->eventset, state->scratch));
  // Close everything above the match too (LIFO): a region ended from
  // outside an open inner region subsumes it, keeping the books
  // balanced without requiring strict pairing of every path.
  for (int i = state->depth - 1; i >= match; --i) {
    const ThreadState::Frame& frame = state->frames[i];
    RegionAccum& accum =
        state->regions[static_cast<std::size_t>(frame.region)];
    ++accum.entries;
    accum.time += t1 - frame.t0;
    if (accum.totals.size() != state->scratch.size()) {
      accum.totals.resize(state->scratch.size(), 0);
    }
    for (std::size_t v = 0; v < state->scratch.size(); ++v) {
      const long long begin_value = v < frame.snap.size() ? frame.snap[v] : 0;
      accum.totals[v] += state->scratch[v] - begin_value;
    }
  }
  state->depth = match;
  return Status::ok();
}

std::vector<RegionStats> MarkerManager::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RegionStats> out;
  for (const auto& thread : threads_) {
    for (const RegionAccum& accum : thread->regions) {
      RegionStats* stats = nullptr;
      for (RegionStats& existing : out) {
        if (existing.name == accum.name) {
          stats = &existing;
          break;
        }
      }
      if (stats == nullptr) {
        out.push_back(RegionStats{accum.name, 0, 0, {}});
        stats = &out.back();
      }
      stats->entries += accum.entries;
      stats->time += accum.time;
      if (stats->totals.size() < accum.totals.size()) {
        stats->totals.resize(accum.totals.size(), 0);
      }
      for (std::size_t v = 0; v < accum.totals.size(); ++v) {
        stats->totals[v] += accum.totals[v];
      }
    }
  }
  return out;
}

void MarkerManager::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& thread : threads_) {
    for (RegionAccum& accum : thread->regions) {
      accum.entries = 0;
      accum.time = 0;
      accum.totals.assign(accum.totals.size(), 0);
    }
  }
}

}  // namespace hetpapi::papi
