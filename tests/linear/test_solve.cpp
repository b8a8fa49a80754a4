#include "src/linear/solve.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace hpcp {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  // AᵀA + n·I is symmetric positive definite.
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = a.gram();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(Cholesky, FactorOfIdentityIsIdentity) {
  const Matrix l = cholesky_factor(Matrix::identity(4));
  EXPECT_EQ(l, Matrix::identity(4));
}

TEST(Cholesky, KnownFactor) {
  const Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  const Matrix l = cholesky_factor(a);
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(l(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // upper triangle zeroed
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW((void)cholesky_factor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW((void)cholesky_factor(a), std::invalid_argument);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  // x = (1, 2) -> b = A x = (8, 12).
  const std::vector<double> b{8.0, 12.0};
  const auto x = cholesky_solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Cholesky, Substitutions) {
  const Matrix l{{2.0, 0.0}, {1.0, 3.0}};
  const std::vector<double> b{4.0, 7.0};
  const auto y = forward_substitute(l, b);
  EXPECT_NEAR(y[0], 2.0, 1e-12);
  EXPECT_NEAR(y[1], 5.0 / 3.0, 1e-12);
  // Lᵀ x = y.
  const auto x = back_substitute_transposed(l, y);
  EXPECT_NEAR(2.0 * x[0] + 1.0 * x[1], y[0], 1e-12);
  EXPECT_NEAR(3.0 * x[1], y[1], 1e-12);
}

class CholeskySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySweep, FactorRoundTrips) {
  const std::size_t n = GetParam();
  Rng rng(n);
  const Matrix a = random_spd(n, rng);
  const Matrix l = cholesky_factor(a);
  const Matrix reconstructed = l.multiply(l.transposed());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-9);
    }
  }
}

TEST_P(CholeskySweep, SolveResidualIsTiny) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_spd(n, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  const auto x = cholesky_solve(a, b);
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

}  // namespace
}  // namespace hpcp
