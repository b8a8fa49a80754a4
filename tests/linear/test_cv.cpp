#include "src/linear/cv.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/metrics.hpp"

namespace hpcp {
namespace {

TEST(KFold, EveryRowAssignedOnce) {
  Rng rng(1);
  const auto fold = kfold_assignments(100, 5, rng);
  ASSERT_EQ(fold.size(), 100u);
  for (const auto f : fold) EXPECT_LT(f, 5u);
}

TEST(KFold, FoldsAreBalanced) {
  Rng rng(2);
  const auto fold = kfold_assignments(103, 5, rng);
  std::vector<std::size_t> counts(5, 0);
  for (const auto f : fold) ++counts[f];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(KFold, RejectsBadArguments) {
  Rng rng(3);
  EXPECT_THROW((void)kfold_assignments(10, 1, rng), std::invalid_argument);
  EXPECT_THROW((void)kfold_assignments(3, 5, rng), std::invalid_argument);
}

struct SparseData {
  Matrix x;
  std::vector<double> y;
};

SparseData make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  SparseData data;
  data.x = Matrix(n, 6);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) data.x(i, j) = rng.uniform(-2.0, 2.0);
    data.y[i] = 2.0 + 4.0 * data.x(i, 1) - 3.0 * data.x(i, 4) +
                rng.normal(0.0, 0.2);
  }
  return data;
}

TEST(LassoCv, SelectsLambdaAndFitsWell) {
  const auto data = make_data(200, 4);
  Rng rng(5);
  CvResult result;
  const LinearModel m = fit_lasso_cv(data.x, data.y, 5, rng, &result);
  EXPECT_GT(result.best_lambda, 0.0);
  EXPECT_EQ(result.lambdas.size(), result.cv_mse.size());
  const auto pred = m.predict(data.x);
  EXPECT_LT(rmse(data.y, pred), 0.3);
  // Noise features stay small.
  EXPECT_LT(std::abs(m.coef[0]), 0.15);
  EXPECT_LT(std::abs(m.coef[5]), 0.15);
}

TEST(LassoCv, BestLambdaMinimisesCvCurve) {
  const auto data = make_data(150, 6);
  Rng rng(7);
  CvResult result;
  (void)fit_lasso_cv(data.x, data.y, 4, rng, &result);
  const double min_mse =
      *std::min_element(result.cv_mse.begin(), result.cv_mse.end());
  const auto it = std::find(result.cv_mse.begin(), result.cv_mse.end(),
                            min_mse);
  const auto idx = static_cast<std::size_t>(it - result.cv_mse.begin());
  EXPECT_DOUBLE_EQ(result.best_lambda, result.lambdas[idx]);
}

TEST(LassoCv, ConstantTargetYieldsInterceptOnly) {
  Matrix x(20, 2);
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  const std::vector<double> y(20, 3.0);
  Rng rng(8);
  const LinearModel m = fit_lasso_cv(x, y, 4, rng);
  EXPECT_NEAR(m.intercept, 3.0, 1e-9);
  for (const double c : m.coef) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(LassoCv, DeterministicGivenRngState) {
  const auto data = make_data(100, 9);
  Rng rng_a(11), rng_b(11);
  const LinearModel a = fit_lasso_cv(data.x, data.y, 5, rng_a);
  const LinearModel b = fit_lasso_cv(data.x, data.y, 5, rng_b);
  EXPECT_DOUBLE_EQ(a.intercept, b.intercept);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_DOUBLE_EQ(a.coef[j], b.coef[j]);
  }
}

class CvFoldSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CvFoldSweep, WorksForVariousFoldCounts) {
  const auto data = make_data(120, 14);
  Rng rng(15);
  const LinearModel m = fit_lasso_cv(data.x, data.y, GetParam(), rng);
  const auto pred = m.predict(data.x);
  EXPECT_LT(rmse(data.y, pred), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Folds, CvFoldSweep, ::testing::Values(2, 3, 5, 10));

}  // namespace
}  // namespace hpcp
