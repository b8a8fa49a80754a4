/// The SIMD parity contract: the SSE2 and AVX2 FlatForest kernels must
/// produce predictions bitwise identical to the scalar reference, across
/// tree shapes a real fit cannot even produce — deep chains, one-leaf
/// stumps, NaN thresholds, ragged feature widths — and NaN feature
/// values. Plus the dispatch ladder itself: HPCP_FOREST_ISA forces a
/// tier, clamped to what the CPU supports.

#include "src/forest/forest_isa.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/forest/flat_forest.hpp"
#include "src/forest/random_forest.hpp"

namespace hpcp {
namespace {

using Nodes = std::vector<RegressionTree::Node>;

/// Scoped HPCP_FOREST_ISA override; restores the previous value.
class IsaGuard {
 public:
  explicit IsaGuard(const char* value) {
    const char* old = std::getenv("HPCP_FOREST_ISA");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("HPCP_FOREST_ISA", value, 1);
    } else {
      ::unsetenv("HPCP_FOREST_ISA");
    }
  }
  ~IsaGuard() {
    if (had_) {
      ::setenv("HPCP_FOREST_ISA", saved_.c_str(), 1);
    } else {
      ::unsetenv("HPCP_FOREST_ISA");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

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
/// worst-case depth that keeps some SIMD lanes walking long after their
/// neighbours parked at a leaf.
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

/// Predicts under each forced ISA and requires bitwise identity with the
/// scalar reference — mean, moments, and per-tree row subsets.
void expect_bitwise_parity(const FlatForest& flat, const Matrix& x) {
  std::vector<double> ref_mean;
  std::vector<double> ref_sum(x.rows()), ref_sq(x.rows());
  {
    const IsaGuard guard("scalar");
    ASSERT_EQ(resolve_forest_isa(), ForestIsa::kScalar);
    ref_mean = flat.predict_mean(x);
    flat.predict_moments(x, ref_sum, ref_sq);
  }
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < x.rows(); r += 3) rows.push_back(r);
  std::vector<double> ref_rows(rows.size());

  for (const char* isa : {"sse2", "avx2", "auto"}) {
    const IsaGuard guard(isa);
    const auto mean = flat.predict_mean(x);
    ASSERT_EQ(mean.size(), ref_mean.size());
    for (std::size_t r = 0; r < mean.size(); ++r) {
      ASSERT_EQ(bits(mean[r]), bits(ref_mean[r]))
          << "isa=" << isa << " row " << r << ": " << mean[r]
          << " != " << ref_mean[r];
    }
    std::vector<double> sum(x.rows()), sq(x.rows());
    flat.predict_moments(x, sum, sq);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      ASSERT_EQ(bits(sum[r]), bits(ref_sum[r])) << "isa=" << isa;
      ASSERT_EQ(bits(sq[r]), bits(ref_sq[r])) << "isa=" << isa;
    }
    std::vector<double> out(rows.size());
    for (std::size_t t = 0; t < flat.num_trees(); ++t) {
      {
        const IsaGuard scalar_guard("scalar");
        flat.predict_tree_rows(t, x, rows, ref_rows);
      }
      flat.predict_tree_rows(t, x, rows, out);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        ASSERT_EQ(bits(out[k]), bits(ref_rows[k]))
            << "isa=" << isa << " tree " << t << " row " << rows[k];
      }
    }
  }
}

TEST(ForestIsa, DispatchHonorsEnvOverrideClampedToCpu) {
  const ForestIsa widest = detect_forest_isa();
  {
    const IsaGuard guard("scalar");
    EXPECT_EQ(resolve_forest_isa(), ForestIsa::kScalar);
  }
  {
    const IsaGuard guard("auto");
    EXPECT_EQ(resolve_forest_isa(), widest);
  }
  {
    const IsaGuard guard(nullptr);  // unset
    EXPECT_EQ(resolve_forest_isa(), widest);
  }
  {
    // A request wider than the CPU must clamp, never SIGILL.
    const IsaGuard guard("avx2");
    EXPECT_LE(static_cast<int>(resolve_forest_isa()),
              static_cast<int>(widest));
  }
  {
    // Unrecognised values degrade to the reference path.
    const IsaGuard guard("avx512-typo");
    EXPECT_EQ(resolve_forest_isa(), ForestIsa::kScalar);
  }
  EXPECT_STREQ(forest_isa_name(ForestIsa::kScalar), "scalar");
  EXPECT_STREQ(forest_isa_name(ForestIsa::kSse2), "sse2");
  EXPECT_STREQ(forest_isa_name(ForestIsa::kAvx2), "avx2");
}

TEST(ForestIsa, FittedForestParityAcrossKernels) {
  Rng rng(91);
  Matrix x(240, 4);
  std::vector<double> y(240);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = rng.uniform(-2.0, 2.0);
      acc += std::sin(x(i, j)) * (static_cast<double>(j) + 1.0);
    }
    y[i] = acc + rng.normal(0.0, 0.1);
  }
  RandomForest forest({.num_trees = 15, .compute_oob = false});
  Rng fit_rng(92);
  forest.fit(x, y, fit_rng);
  expect_bitwise_parity(forest.flat(), x);
}

TEST(ForestIsa, DeepAndStumpyShapesParity) {
  std::vector<Nodes> trees;
  trees.push_back(deep_chain(24, 3));
  trees.push_back({leaf(7.5)});                        // single-leaf tree
  trees.push_back({split(0, 0.0, 1, 2), leaf(-1.0), leaf(1.0)});  // stump
  const FlatForest flat = FlatForest::from_nodes(trees);
  Rng rng(93);
  // Row counts around the SIMD block width: 1..9 covers every tail shape
  // of the 2-lane and 4-lane kernels.
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
  // NaN thresholds in the trees AND NaN values in the rows: both must
  // send rows right under scalar `<=` and the vector tiers'
  // `_mm_cmpnle_pd` (not-less-or-equal, true when unordered) alike.
  const Matrix x = random_matrix(rng, 50, 5, 0.15);
  expect_bitwise_parity(flat, x);
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

/// Every tier's batched mean and moments against the per-row walk
/// (predict_row_moments), which sums one row's leaves in tree order.
void expect_row_reference_parity(const FlatForest& flat, const Matrix& x) {
  const auto trees = static_cast<double>(flat.num_trees());
  for (const char* isa : {"scalar", "sse2", "avx2", "auto"}) {
    const IsaGuard guard(isa);
    const auto mean = flat.predict_mean(x);
    std::vector<double> sum(x.rows()), sq(x.rows());
    flat.predict_moments(x, sum, sq);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double ref_sum = 0.0;
      double ref_sq = 0.0;
      flat.predict_row_moments(x.row(r), ref_sum, ref_sq);
      ASSERT_EQ(bits(sum[r]), bits(ref_sum)) << "isa=" << isa << " row " << r;
      ASSERT_EQ(bits(sq[r]), bits(ref_sq)) << "isa=" << isa << " row " << r;
      ASSERT_EQ(bits(mean[r]), bits(ref_sum / trees))
          << "isa=" << isa << " row " << r;
    }
  }
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
      expect_row_reference_parity(flat, x);
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
