#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace lsl::util {
namespace {

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(123, 7);
  Pcg32 b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsDiffer) {
  Pcg32 a(123, 1);
  Pcg32 b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, NextBelowInRange) {
  Pcg32 rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Pcg32, NextBelowCoversAllValues) {
  Pcg32 rng(5);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.next_below(7)];
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(Pcg32, DoubleInUnitInterval) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32, RangeRespected) {
  Pcg32 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_range(-2.5, 3.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 3.5);
  }
}

TEST(Pcg32, MeanOfUniformNearHalf) {
  Pcg32 rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32, GaussianMomentsSane) {
  Pcg32 rng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(Pcg32, BoolRoughlyFair) {
  Pcg32 rng(19);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.next_bool() ? 1 : 0;
  EXPECT_NEAR(ones, 5000, 300);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Pcg32, DiscardGaussiansMatchesDrawing) {
  // discard_gaussians(n) must leave the generator exactly where n
  // next_gaussian() calls do, the spare included, whether or not a spare
  // was waiting when it started.
  for (const bool start_with_spare : {false, true}) {
    for (std::size_t n = 0; n <= 40; ++n) {
      Pcg32 drawn(77, 5);
      Pcg32 skipped(77, 5);
      if (start_with_spare) {
        EXPECT_EQ(bits(drawn.next_gaussian()), bits(skipped.next_gaussian()));
      }
      for (std::size_t i = 0; i < n; ++i) (void)drawn.next_gaussian();
      skipped.discard_gaussians(n);
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(bits(drawn.next_gaussian()), bits(skipped.next_gaussian()))
            << "n=" << n << " spare=" << start_with_spare << " draw " << i;
      }
      EXPECT_EQ(drawn.next_u32(), skipped.next_u32()) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace lsl::util
