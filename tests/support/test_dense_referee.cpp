// The dense referee's own suite: the matrix and the LU it checks the
// sparse engine with.
#include "support/dense_referee.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace lsl::spice {
namespace {

TEST(Matrix, StoresAndRetrieves) {
  Matrix m(2, 3);
  m.at(0, 0) = 1.5;
  m.at(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(Matrix, FillAndResize) {
  Matrix m(2, 2);
  m.fill(7.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 7.0);
  m.resize(3, 3);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
}

TEST(LuSolve, Identity) {
  Matrix a(3, 3);
  for (int i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  std::vector<double> b{1.0, 2.0, 3.0};
  std::vector<double> x;
  ASSERT_TRUE(lu_solve(a, b, x));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(LuSolve, KnownSystem) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(lu_solve(a, {5, 10}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolve, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  std::vector<double> x;
  ASSERT_TRUE(lu_solve(a, {2, 3}, x));
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolve, SingularRejected) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  std::vector<double> x{99.0};
  EXPECT_FALSE(lu_solve(a, {1, 2}, x));
}

TEST(LuSolve, EmptyAndMismatchedRejected) {
  Matrix a;
  std::vector<double> x;
  EXPECT_FALSE(lu_solve(a, {}, x));
  Matrix b(2, 2);
  EXPECT_FALSE(lu_solve(b, {1.0}, x));
}

TEST(LuSolve, RandomRoundTrip) {
  // Property: for random well-conditioned A and x_true, solving A x = A
  // x_true recovers x_true.
  util::Pcg32 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.next_below(8);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.next_range(-1.0, 1.0);
      a.at(r, r) += 4.0;  // diagonally dominant => well conditioned
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.next_range(-10.0, 10.0);
    std::vector<double> b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) b[r] += a.at(r, c) * x_true[c];
    }
    std::vector<double> x;
    ASSERT_TRUE(lu_solve(a, b, x));
    for (std::size_t k = 0; k < n; ++k) EXPECT_NEAR(x[k], x_true[k], 1e-9);
  }
}

}  // namespace
}  // namespace lsl::spice
