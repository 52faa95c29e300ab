// FixedVector (the static-array bookkeeping container), Rng determinism,
// unit types, and the Status/Expected plumbing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/fixed_vector.hpp"
#include "base/rng.hpp"
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

}  // namespace
}  // namespace hetpapi
