// Heap allocations on both ends of a streamed sample: the daemon's tick
// and idle poll, and the client's sample hand-off. This executable
// replaces the global operator new with a counting one, which is why it
// is a suite of its own: no other test binary sees the counter. Under
// HETPAPI_SANITIZE the sanitizer runtime owns operator new, so the
// replacement is left out and the suite skips.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

#ifndef HETPAPI_SANITIZED
// Out of line, so the compiler never pairs an inlined malloc with an
// inlined free across a new/delete expression and calls them mismatched.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace hetpapi {
namespace {

using namespace hetpapi::service;

/// Allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// One daemon on raptorlake with a client holding plain and qualified
/// riders (two of each, over two shared subscriptions): the shapes the
/// service_fanout workload streams.
struct Stack {
  std::unique_ptr<simkernel::SimKernel> kernel;
  std::unique_ptr<papi::SimBackend> backend;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> client;

  static constexpr std::size_t kRiders = 4;

  void init(LoopbackTransport::Config tconfig = {}) {
    kernel = std::make_unique<simkernel::SimKernel>(cpumodel::raptor_lake_i7_13700());
    backend = std::make_unique<papi::SimBackend>(kernel.get());
    transport = std::make_unique<LoopbackTransport>(tconfig);
    daemon = std::make_unique<Daemon>(kernel.get(), backend.get(), DaemonConfig{});
    std::vector<simkernel::Tid> tids;
    for (const int cpu : {0, 16}) {
      tids.push_back(kernel->spawn(std::make_shared<workload::FixedWorkProgram>(
                                       workload::PhaseSpec{}, 4'000'000'000ull),
                                   simkernel::CpuSet::of({cpu})));
    }
    ASSERT_TRUE(daemon->init().is_ok());
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    client = std::make_unique<Client>(transport->connect());
    ASSERT_TRUE(client->hello("alloc").is_ok());
    Subscribe spec;
    spec.target_kind = TargetKind::kThread;
    spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    for (int rider = 0; rider < 2; ++rider) {
      for (const std::size_t qualified : {0u, 1u}) {
        spec.target = tids[qualified];
        spec.qualified = static_cast<std::uint8_t>(qualified);
        ASSERT_TRUE(client->subscribe(spec).has_value());
      }
    }
  }

  void advance() { kernel->run_for(std::chrono::milliseconds(1)); }

  void tick() {
    advance();
    daemon->tick();
  }
};

TEST(ServiceSampleAlloc, SteadyDaemonTickAllocatesNothing) {
#ifdef HETPAPI_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces operator new";
#endif
  Stack s;
  ASSERT_NO_FATAL_FAILURE(s.init());

  // Warm-up grows every reused buffer (readings, templates, the
  // client's outbound bytes) to its steady size.
  std::vector<WireSample> batch;
  for (int warm = 0; warm < 4; ++warm) {
    s.tick();
    s.client->take_samples_into(batch);
  }
  for (int t = 0; t < 16; ++t) {
    s.advance();
    EXPECT_EQ(allocations_during([&] { s.daemon->tick(); }), 0u) << "tick " << t;
    s.client->take_samples_into(batch);
    ASSERT_EQ(batch.size(), Stack::kRiders);
  }
}

TEST(ServiceSampleAlloc, SteadyTakesIntoAllocateNothingAndTakeSamplesOnce) {
#ifdef HETPAPI_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces operator new";
#endif
  Stack s;
  ASSERT_NO_FATAL_FAILURE(s.init());

  std::vector<WireSample> batch;
  for (int warm = 0; warm < 4; ++warm) {
    s.tick();
    s.client->take_samples_into(batch);
  }
  for (int t = 0; t < 16; ++t) {
    s.tick();
    EXPECT_EQ(allocations_during([&] { s.client->take_samples_into(batch); }), 0u)
        << "take " << t;
    ASSERT_EQ(batch.size(), Stack::kRiders);
    std::size_t qualified = 0;
    for (const WireSample& sample : batch) {
      ASSERT_EQ(sample.values.size(), 2u);
      if (!sample.parts.empty()) ++qualified;
    }
    EXPECT_EQ(qualified, Stack::kRiders / 2);
  }

  for (int t = 0; t < 8; ++t) {
    s.tick();
    std::vector<WireSample> taken;
    EXPECT_EQ(allocations_during([&] { taken = s.client->take_samples(); }), 1u)
        << "take " << t;
    ASSERT_EQ(taken.size(), Stack::kRiders);
    for (const WireSample& sample : taken) {
      EXPECT_EQ(sample.values.size(), 2u);
      if (!sample.parts.empty()) {
        ASSERT_EQ(sample.parts.size(), 2u);
        EXPECT_EQ(sample.parts[0].size(), 2u) << "P and E parts";
      }
    }
  }
}

TEST(ServiceSampleAlloc, SteadyTakesIntoOnAChunkedLoopbackAllocateNothing) {
#ifdef HETPAPI_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces operator new";
#endif
  // 64-byte receives split every frame across reader appends, so the
  // reader's buffer compacts around partial frames on every take.
  Stack s;
  ASSERT_NO_FATAL_FAILURE(s.init({.max_chunk_bytes = 64}));
  // The client drains only what tick() flushed: an idle receive would
  // otherwise pump the daemon, whose poll is not under test here.
  s.transport->set_pump(nullptr);
  std::vector<WireSample> batch;
  const auto drain_and_take = [&] {
    while (s.client->pump_once()) {
    }
    s.client->take_samples_into(batch);
  };
  for (int warm = 0; warm < 4; ++warm) {
    s.tick();
    drain_and_take();
  }
  for (int t = 0; t < 16; ++t) {
    s.tick();
    EXPECT_EQ(allocations_during(drain_and_take), 0u) << "take " << t;
    ASSERT_EQ(batch.size(), Stack::kRiders);
  }
}

TEST(ServiceSampleAlloc, IdleDaemonPollAllocatesNothing) {
#ifdef HETPAPI_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime replaces operator new";
#endif
  // Between ticks the daemon polls with nothing to accept, receive or
  // flush: an empty accept must not build an error message.
  Stack s;
  ASSERT_NO_FATAL_FAILURE(s.init());
  std::vector<WireSample> batch;
  for (int warm = 0; warm < 4; ++warm) {
    s.tick();
    s.client->take_samples_into(batch);
    ASSERT_EQ(batch.size(), Stack::kRiders);
  }
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(allocations_during([&] { s.daemon->poll(); }), 0u)
        << "poll " << p;
  }
  EXPECT_EQ(s.daemon->client_count(), 1u);
}

}  // namespace
}  // namespace hetpapi
