// FixedVector (the static-array bookkeeping container), SmallVector (the
// inline-then-heap buffer), Rng determinism, unit types, and the
// Status/Expected plumbing.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/fixed_vector.hpp"
#include "base/rng.hpp"
#include "base/small_vector.hpp"
#include "base/status.hpp"
#include "base/units.hpp"

namespace hetpapi {
namespace {

TEST(FixedVector, PushPopAndIteration) {
  FixedVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.emplace_back(3);
  EXPECT_EQ(v.size(), 3u);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 6);
  v.pop_back();
  EXPECT_EQ(v.back(), 2);
}

TEST(FixedVector, TryPushBackReportsFull) {
  FixedVector<int, 2> v;
  EXPECT_TRUE(v.try_push_back(1).is_ok());
  EXPECT_TRUE(v.try_push_back(2).is_ok());
  EXPECT_TRUE(v.full());
  const Status overflow = v.try_push_back(3);
  EXPECT_EQ(overflow.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.size(), 2u);
}

TEST(FixedVector, EraseAtPreservesOrder) {
  FixedVector<int, 8> v{10, 20, 30, 40};
  v.erase_at(1);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 30);
  EXPECT_EQ(v[2], 40);
}

TEST(FixedVector, NonTrivialElementsDestructed) {
  struct Probe {
    std::shared_ptr<int> counter;
    ~Probe() {
      if (counter) ++(*counter);
    }
  };
  auto destroyed = std::make_shared<int>(0);
  {
    FixedVector<Probe, 4> v;
    v.push_back(Probe{destroyed});
    v.push_back(Probe{destroyed});
    v.clear();
  }
  EXPECT_GE(*destroyed, 2);
}

TEST(FixedVector, CopyAndMoveSemantics) {
  FixedVector<std::string, 4> a;
  a.push_back("x");
  a.push_back("y");
  FixedVector<std::string, 4> b = a;
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], "y");
  FixedVector<std::string, 4> c = std::move(a);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], "x");
  b = c;
  EXPECT_EQ(b[0], "x");
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng a2(42);
  Rng c(43);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a2.next() != c.next()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformStaysInRangeAndCoversIt) {
  Rng rng(7);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, GaussianMomentsAreSane) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian(2.0);
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.1);
  EXPECT_NEAR(sum_sq / kN, 4.0, 0.3);
}

TEST(Units, FrequencyConversions) {
  const MegaHertz f = MegaHertz::from_ghz(2.5);
  EXPECT_DOUBLE_EQ(f.value, 2500.0);
  EXPECT_EQ(f.kilohertz(), 2500000);
  EXPECT_DOUBLE_EQ(MegaHertz::from_khz(1500000).value, 1500.0);
}

TEST(Units, EnergyPowerTimeAlgebra) {
  const Watts p{65.0};
  const Joules e = p * std::chrono::seconds(10);
  EXPECT_DOUBLE_EQ(e.value, 650.0);
  EXPECT_DOUBLE_EQ(e.over(std::chrono::seconds(10)).value, 65.0);
}

TEST(Units, SimTimeArithmetic) {
  SimTime t = SimTime::from_seconds(1.5);
  EXPECT_DOUBLE_EQ(t.seconds(), 1.5);
  t += std::chrono::milliseconds(500);
  EXPECT_DOUBLE_EQ(t.seconds(), 2.0);
  EXPECT_EQ(t - SimTime::from_seconds(1.0), std::chrono::seconds(1));
}

TEST(Status, OkAndErrorBasics) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status err = make_error(StatusCode::kConflict, "boom");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), StatusCode::kConflict);
  EXPECT_EQ(err.to_string(), "CONFLICT: boom");
}

TEST(Expected, ValueAndErrorPaths) {
  Expected<int> good = 5;
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(*good, 5);
  EXPECT_TRUE(good.status().is_ok());

  Expected<int> bad = make_error(StatusCode::kNotFound, "nope");
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(9), 9);
}

TEST(Expected, DereferencingAnRvalueMovesTheValueOut) {
  // A move-only payload only compiles through the && overload, and the
  // pointer it owns must come out unchanged, not copied.
  Expected<std::unique_ptr<int>> e = std::make_unique<int>(7);
  const int* raw = e->get();
  std::unique_ptr<int> taken = *std::move(e);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(taken.get(), raw);
  EXPECT_EQ(*taken, 7);

  // Copyable payloads move too: the buffer changes hands.
  Expected<std::vector<int>> v = std::vector<int>{1, 2, 3};
  const int* data = v->data();
  const std::vector<int> moved = *std::move(v);
  EXPECT_EQ(moved.data(), data);
}

// --- SmallVector -----------------------------------------------------------

using Small = SmallVector<long long, 2>;

TEST(SmallVector, InlineThenSpillThenClearKeepsTheBlock) {
  Small v;
  const long long* inline_buffer = v.data();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 2u);
  v.push_back(1);
  v.push_back(2);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.data(), inline_buffer);

  v.push_back(3);  // one past the inline capacity
  EXPECT_TRUE(v.spilled());
  EXPECT_NE(v.data(), inline_buffer);
  EXPECT_EQ(v, (Small{1, 2, 3}));
  const long long* block = v.data();
  const std::size_t capacity = v.capacity();
  EXPECT_GE(capacity, 3u);

  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), capacity);
  const long long refill[] = {7, 8, 9};
  v.assign(std::begin(refill), std::end(refill));
  EXPECT_EQ(v.data(), block) << "a refill within the capacity reuses the block";
  EXPECT_EQ(v, (Small{7, 8, 9}));
}

TEST(SmallVector, PushBackOfItsOwnElementWhileGrowing) {
  Small v{5, 6};
  v.push_back(v[0]);
  EXPECT_EQ(v, (Small{5, 6, 5}));
}

TEST(SmallVector, CopiesAreDeepForInlineAndSpilled) {
  const Small small{1, 2};
  Small a = small;
  EXPECT_EQ(a, small);
  EXPECT_FALSE(a.spilled());
  EXPECT_NE(a.data(), small.data());

  const Small big{1, 2, 3, 4};
  Small b = big;
  EXPECT_EQ(b, big);
  EXPECT_TRUE(b.spilled());
  EXPECT_NE(b.data(), big.data());
  b[0] = 100;
  EXPECT_EQ(big[0], 1);

  // Assignment reuses the destination's block when it is large enough.
  const long long* block = b.data();
  b = small;
  EXPECT_EQ(b, small);
  EXPECT_EQ(b.data(), block);
  a = big;
  EXPECT_EQ(a, big);
  EXPECT_TRUE(a.spilled());
}

TEST(SmallVector, MovesLeaveTheSourceEmptyOnItsInlineBuffer) {
  Small inline_src{1, 2};
  const long long* src_inline = inline_src.data();
  Small a = std::move(inline_src);
  EXPECT_EQ(a, (Small{1, 2}));
  EXPECT_FALSE(a.spilled());
  EXPECT_TRUE(inline_src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(inline_src.data(), src_inline);
  EXPECT_EQ(inline_src.capacity(), 2u);

  Small spilled_src{1, 2, 3};
  const long long* block = spilled_src.data();
  Small b = std::move(spilled_src);
  EXPECT_EQ(b.data(), block) << "a spilled source hands over its block";
  EXPECT_EQ(b, (Small{1, 2, 3}));
  EXPECT_TRUE(spilled_src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(spilled_src.spilled());
  EXPECT_EQ(spilled_src.capacity(), 2u);

  // Move assignment: a spilled source replaces the destination's block,
  // an inline one is copied into whatever the destination holds.
  Small c{9, 9, 9, 9, 9};
  Small d{4, 5, 6};
  const long long* d_block = d.data();
  c = std::move(d);
  EXPECT_EQ(c.data(), d_block);
  EXPECT_EQ(c, (Small{4, 5, 6}));
  EXPECT_TRUE(d.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(d.spilled());

  const long long* c_block = c.data();
  Small e{7};
  c = std::move(e);
  EXPECT_EQ(c.data(), c_block);
  EXPECT_EQ(c, (Small{7}));
  EXPECT_TRUE(e.empty());  // NOLINT(bugprone-use-after-move)

  // A moved-from vector is fully usable.
  e.push_back(1);
  e.push_back(2);
  e.push_back(3);
  EXPECT_EQ(e, (Small{1, 2, 3}));
}

TEST(SmallVector, ResizeZeroFills) {
  Small v{5, 6};
  v.resize(1);
  EXPECT_EQ(v, (Small{5}));
  v.resize(2);  // the old 6 must not reappear
  EXPECT_EQ(v, (Small{5, 0}));
  v.resize(4);
  EXPECT_EQ(v, (Small{5, 0, 0, 0}));
  v.clear();
  v.resize(3);  // over spilled storage that held values
  EXPECT_EQ(v, (Small{0, 0, 0}));
}

TEST(SmallVector, EqualityComparesElementsNotStorage) {
  EXPECT_EQ(Small{}, Small{});
  EXPECT_EQ((Small{1, 2}), (Small{1, 2}));
  EXPECT_NE((Small{1, 2}), (Small{1, 3}));
  EXPECT_NE((Small{1, 2}), (Small{1, 2, 3}));
  Small spilled{1, 2, 3};
  spilled.resize(2);
  EXPECT_TRUE(spilled.spilled());
  EXPECT_EQ(spilled, (Small{1, 2})) << "inline and spilled compare equal";
  const std::vector<long long> from{4, 5, 6};
  Small copied;
  copied = from;
  EXPECT_EQ(copied, (Small{4, 5, 6}));
}

}  // namespace
}  // namespace hetpapi
