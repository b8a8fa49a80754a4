/// FlatForest: the flattened inference layout every prediction path runs
/// on. Each batched walk must agree bit for bit with the pointer-style
/// per-node walk of the trees it was built from, and with the flat
/// per-row walk (predict_row_moments / predict_tree_row), across tree
/// shapes a real fit cannot even produce — deep chains, one-leaf stumps,
/// NaN thresholds, ragged feature widths — NaN feature values, and both
/// tile shapes.

#include "src/forest/flat_forest.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/forest/gbm.hpp"
#include "src/forest/random_forest.hpp"

namespace hpcp {
namespace {

struct Data {
  Matrix x;
  std::vector<double> y;
};

Data make_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Data data;
  data.x = Matrix(n, d);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      data.x(i, j) = rng.uniform(-2.0, 2.0);
      acc += std::sin(data.x(i, j)) * (static_cast<double>(j) + 1.0);
    }
    data.y[i] = acc + rng.normal(0.0, 0.1);
  }
  return data;
}

TEST(FlatForest, BatchedMeanMatchesPerTreeWalkBitwise) {
  const auto data = make_data(300, 4, 50);
  RandomForest forest({.num_trees = 25, .compute_oob = false});
  Rng rng(51);
  forest.fit(data.x, data.y, rng);

  const auto batched = forest.predict(data.x);
  ASSERT_EQ(batched.size(), data.x.rows());
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      acc += forest.tree(t).predict(data.x.row(r));
    }
    ASSERT_EQ(batched[r], acc / static_cast<double>(forest.num_trees()))
        << "row " << r;
  }
}

TEST(FlatForest, ScalarPredictMatchesBatched) {
  const auto data = make_data(200, 3, 52);
  RandomForest forest({.num_trees = 20, .compute_oob = false});
  Rng rng(53);
  forest.fit(data.x, data.y, rng);
  const auto batched = forest.predict(data.x);
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    EXPECT_EQ(forest.predict(data.x.row(r)), batched[r]);
  }
}

TEST(FlatForest, PredictStatsConsistentWithPerTreeSpread) {
  const auto data = make_data(150, 3, 54);
  RandomForest forest({.num_trees = 30, .compute_oob = false});
  Rng rng(55);
  forest.fit(data.x, data.y, rng);

  const auto row = data.x.row(7);
  const auto stats = forest.predict_stats(row);
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const double p = forest.tree(t).predict(row);
    sum += p;
    sum_sq += p * p;
  }
  const double n = static_cast<double>(forest.num_trees());
  const double mean = sum / n;
  EXPECT_EQ(stats.mean, mean);
  EXPECT_NEAR(stats.stddev,
              std::sqrt(std::max(0.0, sum_sq / n - mean * mean)), 1e-12);
}

TEST(FlatForest, SubsetRowsMatchFullWalk) {
  const auto data = make_data(120, 3, 56);
  RandomForest forest({.num_trees = 10, .compute_oob = false});
  Rng rng(57);
  forest.fit(data.x, data.y, rng);

  const std::vector<std::size_t> rows{3, 17, 45, 46, 99, 119};
  std::vector<double> out(rows.size());
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    forest.flat().predict_tree_rows(t, data.x, rows, out);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(out[k], forest.tree(t).predict(data.x.row(rows[k])))
          << "tree " << t << " row " << rows[k];
    }
  }
}

TEST(FlatForest, RejectsNarrowFeatureVector) {
  const auto data = make_data(100, 4, 58);
  RandomForest forest({.num_trees = 5, .compute_oob = false});
  Rng rng(59);
  forest.fit(data.x, data.y, rng);
  const std::vector<double> narrow{1.0, 2.0};
  EXPECT_THROW((void)forest.predict(narrow), std::invalid_argument);
}

TEST(FlatForest, GbmBatchedMatchesScalar) {
  const auto data = make_data(250, 3, 60);
  GradientBoostedTrees gbm({.num_rounds = 40});
  Rng rng(61);
  gbm.fit(data.x, data.y, rng);

  const auto batched = gbm.predict(data.x);
  ASSERT_EQ(batched.size(), data.x.rows());
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    EXPECT_NEAR(batched[r], gbm.predict(data.x.row(r)), 1e-12);
  }
}

TEST(FlatForest, GbmStagedPredictEndsAtFullModel) {
  const auto data = make_data(180, 3, 62);
  GradientBoostedTrees gbm({.num_rounds = 30});
  Rng rng(63);
  gbm.fit(data.x, data.y, rng);

  const Matrix staged = gbm.staged_predict(data.x, /*stride=*/7);
  // ceil(30 / 7) = 5 snapshots; the last one is the complete ensemble.
  ASSERT_EQ(staged.rows(), 5u);
  ASSERT_EQ(staged.cols(), data.x.rows());
  const auto full = gbm.predict(data.x);
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    EXPECT_EQ(staged(staged.rows() - 1, r), full[r]) << "row " << r;
  }
  // Training error is non-increasing along the staged snapshots here.
  std::vector<double> sse(staged.rows(), 0.0);
  for (std::size_t s = 0; s < staged.rows(); ++s) {
    for (std::size_t r = 0; r < data.x.rows(); ++r) {
      const double e = staged(s, r) - data.y[r];
      sse[s] += e * e;
    }
  }
  for (std::size_t s = 1; s < sse.size(); ++s) {
    EXPECT_LE(sse[s], sse[s - 1] * 1.05) << "stage " << s;
  }
}

using Nodes = std::vector<RegressionTree::Node>;

RegressionTree::Node leaf(double value) {
  RegressionTree::Node node;
  node.value = value;
  return node;
}

RegressionTree::Node split(int feature, double threshold,
                           std::int32_t left, std::int32_t right) {
  RegressionTree::Node node;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return node;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A deep left-leaning chain: internal at even indices, the kind of
/// worst-case depth that keeps some active-list entries walking long
/// after their neighbours parked at a leaf.
Nodes deep_chain(std::size_t depth, std::size_t features) {
  Nodes nodes;
  for (std::size_t level = 0; level < depth; ++level) {
    const auto base = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(split(static_cast<int>(level % features),
                          0.1 * static_cast<double>(level) - 0.5, base + 1,
                          base + 2));
    nodes.push_back(leaf(static_cast<double>(level) + 0.25));
    // The "left" slot is a leaf; the chain continues through "right",
    // which the next iteration fills... except we appended left first, so
    // swap the roles: left continues, right is the leaf.
    std::swap(nodes[static_cast<std::size_t>(base)].left,
              nodes[static_cast<std::size_t>(base)].right);
  }
  nodes.push_back(leaf(-3.5));  // the chain's final node
  return nodes;
}

/// Random full binary tree of the given depth over `features` features,
/// with a NaN threshold injected with probability nan_p.
Nodes random_tree(Rng& rng, std::size_t depth, std::size_t features,
                  double nan_p) {
  Nodes nodes;
  // Build recursively: node index returned.
  const auto build = [&](auto&& self, std::size_t level) -> std::int32_t {
    const auto idx = static_cast<std::int32_t>(nodes.size());
    if (level == depth || rng.uniform() < 0.25) {
      nodes.push_back(leaf(rng.uniform(-10.0, 10.0)));
      return idx;
    }
    nodes.push_back(split(
        static_cast<int>(rng.uniform_index(features)),
        rng.uniform() < nan_p ? kNaN : rng.uniform(-2.0, 2.0), -1, -1));
    const std::int32_t left = self(self, level + 1);
    const std::int32_t right = self(self, level + 1);
    nodes[static_cast<std::size_t>(idx)].left = left;
    nodes[static_cast<std::size_t>(idx)].right = right;
    return idx;
  };
  (void)build(build, 0);
  return nodes;
}

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols,
                     double nan_p) {
  Matrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x(r, c) = rng.uniform() < nan_p ? kNaN : rng.uniform(-3.0, 3.0);
    }
  }
  return x;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every batched entry point against the per-row walk, bit for bit:
/// predict_mean against predict_row_moments (one row's leaves summed in
/// tree order), and the one-tree paths
/// predict_tree_rows (the out-of-bag row subset, here unsorted with a
/// repeat) and accumulate_tree (GBM's contiguous path) against
/// predict_tree_row.
void expect_bitwise_parity(const FlatForest& flat, const Matrix& x) {
  const auto trees = static_cast<double>(flat.num_trees());
  const auto mean = flat.predict_mean(x);
  ASSERT_EQ(mean.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double ref_sum = 0.0;
    double ref_sq = 0.0;
    flat.predict_row_moments(x.row(r), ref_sum, ref_sq);
    ASSERT_EQ(bits(mean[r]), bits(ref_sum / trees))
        << "row " << r << ": " << mean[r] << " != " << ref_sum / trees;
  }

  std::vector<std::size_t> rows;
  for (std::size_t r = x.rows(); r-- > 0;) {
    if (r % 3 == 0) rows.push_back(r);
  }
  rows.push_back(0);
  std::vector<double> out(rows.size());
  constexpr double kScale = 0.3;
  for (std::size_t t = 0; t < flat.num_trees(); ++t) {
    flat.predict_tree_rows(t, x, rows, out);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ASSERT_EQ(bits(out[k]), bits(flat.predict_tree_row(t, x.row(rows[k]))))
          << "tree " << t << " row " << rows[k];
    }
    std::vector<double> acc(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      acc[r] = static_cast<double>(r) - 1.5;
    }
    flat.accumulate_tree(t, x, kScale, acc);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double ref = (static_cast<double>(r) - 1.5) +
                         kScale * flat.predict_tree_row(t, x.row(r));
      ASSERT_EQ(bits(acc[r]), bits(ref)) << "tree " << t << " row " << r;
    }
  }
}

TEST(ForestIsa, FittedForestParityAcrossKernels) {
  const auto data = make_data(240, 4, 91);
  RandomForest forest({.num_trees = 15, .compute_oob = false});
  Rng rng(92);
  forest.fit(data.x, data.y, rng);
  expect_bitwise_parity(forest.flat(), data.x);
}

TEST(ForestIsa, DeepAndStumpyShapesParity) {
  std::vector<Nodes> trees;
  trees.push_back(deep_chain(24, 3));
  trees.push_back({leaf(7.5)});                        // single-leaf tree
  trees.push_back({split(0, 0.0, 1, 2), leaf(-1.0), leaf(1.0)});  // stump
  const FlatForest flat = FlatForest::from_nodes(trees);
  Rng rng(93);
  // Row counts around the walk's four-entry unroll: 1..9 covers every
  // tail length.
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 9u, 64u}) {
    const Matrix x = random_matrix(rng, n, 3, 0.0);
    expect_bitwise_parity(flat, x);
  }
}

TEST(ForestIsa, NanThresholdsAndNanFeaturesParity) {
  Rng rng(94);
  std::vector<Nodes> trees;
  for (int t = 0; t < 6; ++t) {
    trees.push_back(random_tree(rng, 8, 5, /*nan_p=*/0.2));
  }
  const FlatForest flat = FlatForest::from_nodes(trees);
  // NaN thresholds in the trees AND NaN values in the rows: `x <= t` is
  // false for either, so both send the row right in every walk.
  const Matrix x = random_matrix(rng, 50, 5, 0.15);
  expect_bitwise_parity(flat, x);

  // The direction itself, not only agreement: a NaN threshold (tree 0)
  // and a NaN feature (tree 1) both go right.
  std::vector<Nodes> stumps;
  stumps.push_back({split(0, kNaN, 1, 2), leaf(-1.0), leaf(1.0)});
  stumps.push_back({split(0, 0.0, 1, 2), leaf(-2.0), leaf(2.0)});
  const FlatForest nan_flat = FlatForest::from_nodes(stumps);
  Matrix rows(2, 1);
  rows(0, 0) = kNaN;
  rows(1, 0) = -1.0;
  EXPECT_EQ(nan_flat.predict_tree_row(0, rows.row(0)), 1.0);
  EXPECT_EQ(nan_flat.predict_tree_row(1, rows.row(0)), 2.0);
  EXPECT_EQ(nan_flat.predict_tree_row(0, rows.row(1)), 1.0);
  EXPECT_EQ(nan_flat.predict_tree_row(1, rows.row(1)), -2.0);
  const auto mean = nan_flat.predict_mean(rows);
  EXPECT_EQ(mean[0], 1.5);
  EXPECT_EQ(mean[1], -0.5);
}

TEST(ForestIsa, RaggedWidthForestParity) {
  Rng rng(95);
  // Trees over different feature prefixes: min_feature_width comes from
  // the widest split, and narrow trees must gather the right columns of
  // the wide matrix.
  std::vector<Nodes> trees;
  trees.push_back(random_tree(rng, 6, 1, 0.0));
  trees.push_back(random_tree(rng, 6, 3, 0.0));
  trees.push_back(random_tree(rng, 6, 7, 0.1));
  const FlatForest flat = FlatForest::from_nodes(trees);
  EXPECT_EQ(flat.min_feature_width(), 7u);
  const Matrix x = random_matrix(rng, 33, 7, 0.0);
  expect_bitwise_parity(flat, x);
}

TEST(ForestIsa, TileShapesParity) {
  constexpr std::size_t kBudget = FlatForest::kTileEntries;
  for (const std::size_t num_trees : {100u, 300u}) {
    Rng rng(96 + num_trees);
    // Ragged feature widths (each tree splits on a prefix of 1..6
    // features), NaN thresholds, and single-leaf trees: explicit ones
    // plus random trees that stop at the root.
    std::vector<Nodes> trees;
    for (std::size_t t = 0; t < num_trees; ++t) {
      if (t % 17 == 5) {
        trees.push_back({leaf(0.5 * static_cast<double>(t))});
      } else {
        trees.push_back(random_tree(rng, 8, 1 + t % 6, /*nan_p=*/0.05));
      }
    }
    const FlatForest flat = FlatForest::from_nodes(trees);
    ASSERT_LE(flat.min_feature_width(), 6u);
    // Two shapes: one tile of every tree while n * trees fits the
    // budget, one tree at a time across the batch from the next row on.
    const std::size_t one_tile = kBudget / num_trees;
    EXPECT_EQ(flat.trees_per_tile(one_tile), num_trees);
    EXPECT_EQ(flat.trees_per_tile(one_tile + 1), 1u);
    EXPECT_EQ(flat.trees_per_tile(kBudget), 1u);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
          std::size_t{63}, std::size_t{64}, std::size_t{65}, one_tile,
          one_tile + 1, std::size_t{512}, kBudget}) {
      SCOPED_TRACE("trees=" + std::to_string(num_trees) +
                   " n=" + std::to_string(n));
      const Matrix x = random_matrix(rng, n, 6, /*nan_p=*/0.05);
      expect_bitwise_parity(flat, x);
    }
  }
}

TEST(ForestIsa, MalformedTreesAreRejectedNotTraversed) {
  // Out-of-range child link.
  std::vector<Nodes> bad_link{{split(0, 0.5, 1, 99), leaf(1.0), leaf(2.0)}};
  EXPECT_THROW((void)FlatForest::from_nodes(bad_link),
               std::invalid_argument);
  // A cycle: the node links to itself.
  std::vector<Nodes> cycle{{split(0, 0.5, 0, 1), leaf(1.0)}};
  EXPECT_THROW((void)FlatForest::from_nodes(cycle), std::invalid_argument);
  // Internal node with a negative feature.
  std::vector<Nodes> bad_feature{
      {split(-2, 0.5, 1, 2), leaf(1.0), leaf(2.0)}};
  EXPECT_THROW((void)FlatForest::from_nodes(bad_feature),
               std::invalid_argument);
}

}  // namespace
}  // namespace hpcp
