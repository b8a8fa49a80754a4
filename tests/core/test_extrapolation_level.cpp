#include "src/core/extrapolation_level.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/common/rng.hpp"

namespace hpcp {
namespace {

const std::vector<std::size_t> kSmall{1, 2, 4, 8, 16};
const std::vector<std::size_t> kTargets{64, 256};

/// Curves obeying t(p) = work/p + c·log2(p), one family.
Matrix make_family(std::size_t n, double comm, Rng& rng,
                   std::vector<double>* works = nullptr) {
  Matrix curves(n, kSmall.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double work = rng.uniform(5.0, 50.0);
    if (works != nullptr) works->push_back(work);
    for (std::size_t s = 0; s < kSmall.size(); ++s) {
      const double p = static_cast<double>(kSmall[s]);
      curves(i, s) = work / p + comm * std::log2(p);
    }
  }
  return curves;
}

TEST(ExtrapolationLevel, RecoversPerfectScalingLaw) {
  Rng data_rng(1);
  std::vector<double> works;
  const Matrix curves = make_family(60, 0.0, data_rng, &works);
  ExtrapolationLevel level({.num_clusters = 1});
  Rng rng(2);
  level.fit(curves, kSmall, kTargets, rng);
  EXPECT_TRUE(level.fitted());
  for (std::size_t i = 0; i < 10; ++i) {
    const auto pred = level.predict(curves.row(i));
    ASSERT_EQ(pred.size(), 2u);
    EXPECT_NEAR(pred[0], works[i] / 64.0, works[i] / 64.0 * 0.05);
    EXPECT_NEAR(pred[1], works[i] / 256.0, works[i] / 256.0 * 0.10);
  }
}

TEST(ExtrapolationLevel, RecoversMixedLaw) {
  Rng data_rng(3);
  const double comm = 0.05;
  std::vector<double> works;
  const Matrix curves = make_family(80, comm, data_rng, &works);
  ExtrapolationLevel level({.num_clusters = 1});
  Rng rng(4);
  level.fit(curves, kSmall, kTargets, rng);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto pred = level.predict(curves.row(i));
    const double truth = works[i] / 64.0 + comm * 6.0;
    EXPECT_NEAR(pred[0], truth, truth * 0.25) << "config " << i;
  }
}

TEST(ExtrapolationLevel, ClustersTwoScalingFamilies) {
  Rng data_rng(5);
  // Family A: near-perfect scaling. Family B: latency-dominated (flat-ish).
  Matrix curves(80, kSmall.size());
  for (std::size_t i = 0; i < 40; ++i) {
    const double work = data_rng.uniform(10.0, 40.0);
    for (std::size_t s = 0; s < kSmall.size(); ++s) {
      curves(i, s) = work / static_cast<double>(kSmall[s]);
    }
  }
  for (std::size_t i = 40; i < 80; ++i) {
    const double base = data_rng.uniform(1.0, 3.0);
    for (std::size_t s = 0; s < kSmall.size(); ++s) {
      curves(i, s) =
          base + 0.5 * std::log2(static_cast<double>(kSmall[s]) + 1.0);
    }
  }
  ExtrapolationLevel level({.num_clusters = 2});
  Rng rng(6);
  level.fit(curves, kSmall, kTargets, rng);
  EXPECT_EQ(level.num_clusters(), 2u);
  // All of family A in one cluster, all of family B in the other.
  const std::size_t label_a = level.clustering().labels[0];
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(level.clustering().labels[i], label_a);
  }
  for (std::size_t i = 40; i < 80; ++i) {
    EXPECT_NE(level.clustering().labels[i], label_a);
  }
  // And assignment of fresh curves matches their family.
  EXPECT_EQ(level.assign_cluster(curves.row(3)), label_a);
  EXPECT_NE(level.assign_cluster(curves.row(77)), label_a);
}

TEST(ExtrapolationLevel, AutoClusterSelectionFindsStructure) {
  Rng data_rng(7);
  Matrix curves(60, kSmall.size());
  for (std::size_t i = 0; i < 30; ++i) {
    const double work = data_rng.uniform(10.0, 40.0);
    for (std::size_t s = 0; s < kSmall.size(); ++s) {
      curves(i, s) = work / static_cast<double>(kSmall[s]);
    }
  }
  for (std::size_t i = 30; i < 60; ++i) {
    const double base = data_rng.uniform(1.0, 3.0);
    for (std::size_t s = 0; s < kSmall.size(); ++s) {
      curves(i, s) = base * (1.0 + 0.05 * static_cast<double>(kSmall[s]));
    }
  }
  ExtrapolationLevel level({.num_clusters = 0});  // automatic
  Rng rng(8);
  level.fit(curves, kSmall, kTargets, rng);
  EXPECT_GE(level.num_clusters(), 2u);
}

TEST(ExtrapolationLevel, SupportNamesExposed) {
  Rng data_rng(9);
  const Matrix curves = make_family(40, 0.0, data_rng);
  ExtrapolationLevel level({.num_clusters = 1});
  Rng rng(10);
  level.fit(curves, kSmall, kTargets, rng);
  const auto names = level.support_names(0);
  EXPECT_FALSE(names.empty());
  EXPECT_THROW((void)level.support_names(5), std::invalid_argument);
}

TEST(ExtrapolationLevel, PerfectScalingSelectsInverseP) {
  Rng data_rng(11);
  const Matrix curves = make_family(60, 0.0, data_rng);
  ExtrapolationLevel level({.num_clusters = 1});
  Rng rng(12);
  level.fit(curves, kSmall, kTargets, rng);
  const auto names = level.support_names(0);
  bool has_inverse = false;
  for (const auto& n : names) has_inverse |= n == "1/p";
  EXPECT_TRUE(has_inverse);
}

TEST(ExtrapolationLevel, SingleTaskModeWorks) {
  Rng data_rng(13);
  std::vector<double> works;
  const Matrix curves = make_family(30, 0.0, data_rng, &works);
  ExtrapolationLevel level({.multitask = false});
  Rng rng(14);
  level.fit(curves, kSmall, kTargets, rng);
  const auto pred = level.predict(curves.row(0));
  EXPECT_NEAR(pred[0], works[0] / 64.0, works[0] / 64.0 * 0.2);
}

TEST(ExtrapolationLevel, PredictAtScaleInterpolatesAndExtrapolates) {
  Rng data_rng(15);
  std::vector<double> works;
  const Matrix curves = make_family(50, 0.0, data_rng, &works);
  ExtrapolationLevel level({.num_clusters = 1});
  Rng rng(16);
  level.fit(curves, kSmall, kTargets, rng);
  // At a small scale the model should reproduce the curve itself.
  const double at8 = level.predict_at_scale(curves.row(0), 8);
  EXPECT_NEAR(at8, curves(0, 3), curves(0, 3) * 0.05);
  // Monotone decreasing continuation for a perfectly scaling config.
  EXPECT_GT(level.predict_at_scale(curves.row(0), 32),
            level.predict_at_scale(curves.row(0), 128));
}

/// predict_at_scales against one predict_at_scale call per scale, and
/// its returned cluster against assign_cluster.
void expect_multi_scale_parity(const ExtrapolationLevel& level,
                               std::span<const double> curve) {
  const std::vector<std::size_t> scales{256, 3, 64, 3, 1, 1000, 64};
  std::vector<double> out(scales.size());
  EXPECT_EQ(level.predict_at_scales(curve, scales, out),
            level.assign_cluster(curve));
  for (std::size_t i = 0; i < scales.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(
                  level.predict_at_scale(curve, scales[i])))
        << "scale " << scales[i];
  }
  const auto targets = level.predict(curve);
  ASSERT_EQ(targets.size(), level.target_scales().size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(targets[t]),
              std::bit_cast<std::uint64_t>(level.predict_at_scale(
                  curve, level.target_scales()[t])));
  }
}

TEST(ExtrapolationLevel, PredictAtScalesMatchesPerScaleCalls) {
  Rng data_rng(31);
  const Matrix curves = make_family(30, 0.0, data_rng);
  const Matrix comm = make_family(30, 2.0, data_rng);
  Matrix both(60, kSmall.size());
  for (std::size_t r = 0; r < 30; ++r) {
    both.set_row(r, curves.row(r));
    both.set_row(30 + r, comm.row(r));
  }
  for (const bool multitask : {true, false}) {
    ExtrapolationLevel level({.num_clusters = 2, .multitask = multitask});
    Rng rng(32);
    level.fit(both, kSmall, kTargets, rng);
    for (std::size_t r = 0; r < both.rows(); r += 7) {
      SCOPED_TRACE("multitask=" + std::to_string(multitask) +
                   " row " + std::to_string(r));
      expect_multi_scale_parity(level, both.row(r));
    }
    std::vector<double> short_out(1);
    const std::vector<std::size_t> two{64, 256};
    EXPECT_THROW((void)level.predict_at_scales(both.row(0), two, short_out),
                 std::invalid_argument);
  }
}

TEST(ExtrapolationLevel, PredictAtScalesPowerLawRung) {
  // Identical flat training curves leave every multitask support empty,
  // so the cluster trains on the per-configuration power law; a sloped
  // query curve then exercises its fit-once, evaluate-per-scale path.
  Matrix flat(12, kSmall.size());
  for (std::size_t r = 0; r < flat.rows(); ++r) {
    for (std::size_t c = 0; c < flat.cols(); ++c) flat(r, c) = 7.0;
  }
  ExtrapolationLevel level({.num_clusters = 1});
  Rng rng(33);
  level.fit(flat, kSmall, kTargets, rng);
  ASSERT_EQ(level.cluster_stage(0), FallbackStage::PerConfigOls);
  const std::vector<double> sloped{40.0, 21.0, 11.5, 6.0, 3.5};
  expect_multi_scale_parity(level, sloped);
}

TEST(ExtrapolationLevel, PredictionsArePositive) {
  Rng data_rng(17);
  const Matrix curves = make_family(40, 0.02, data_rng);
  ExtrapolationLevel level;
  Rng rng(18);
  level.fit(curves, kSmall, kTargets, rng);
  for (std::size_t i = 0; i < 40; ++i) {
    for (const double v : level.predict(curves.row(i))) EXPECT_GT(v, 0.0);
  }
}

TEST(ExtrapolationLevel, NoisyCurvesStillBounded) {
  Rng data_rng(19);
  std::vector<double> works;
  Matrix curves = make_family(100, 0.05, data_rng, &works);
  // 10% multiplicative noise on every point.
  for (std::size_t i = 0; i < curves.rows(); ++i) {
    for (std::size_t s = 0; s < curves.cols(); ++s) {
      curves(i, s) *= data_rng.lognormal_median(1.0, 0.1);
    }
  }
  ExtrapolationLevel level;
  Rng rng(20);
  level.fit(curves, kSmall, kTargets, rng);
  for (std::size_t i = 0; i < 20; ++i) {
    const double truth = works[i] / 64.0 + 0.05 * 6.0;
    const auto pred = level.predict(curves.row(i));
    EXPECT_GT(pred[0], truth * 0.3) << i;
    EXPECT_LT(pred[0], truth * 3.0) << i;
  }
}

TEST(ExtrapolationLevel, RejectsBadInput) {
  ExtrapolationLevel level;
  Rng rng(21);
  const Matrix curves(10, 5);
  const std::vector<std::size_t> one_scale{4};
  EXPECT_THROW(level.fit(curves, one_scale, kTargets, rng),
               std::invalid_argument);
  const std::vector<std::size_t> mismatch{1, 2};
  EXPECT_THROW(level.fit(curves, mismatch, kTargets, rng),
               std::invalid_argument);
  const std::vector<double> wrong_width{1.0};
  EXPECT_THROW((void)level.predict(wrong_width), std::invalid_argument);
}

TEST(ExtrapolationLevel, PredictBeforeFitThrows) {
  const ExtrapolationLevel level;
  const std::vector<double> curve{1.0, 2.0};
  EXPECT_THROW((void)level.predict(curve), std::invalid_argument);
}

class MaxSupportSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MaxSupportSweep, SupportSizeRespectsCap) {
  Rng data_rng(22);
  const Matrix curves = make_family(60, 0.05, data_rng);
  ExtrapolationLevel level(
      {.num_clusters = 1, .max_support = GetParam()});
  Rng rng(23);
  level.fit(curves, kSmall, kTargets, rng);
  EXPECT_LE(level.support_names(0).size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Caps, MaxSupportSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace hpcp
