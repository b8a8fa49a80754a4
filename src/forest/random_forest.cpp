#include "src/forest/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.hpp"
#include "src/forest/binning.hpp"
#include "src/obs/obs.hpp"

namespace hpcp {

void RandomForest::fit(const Matrix& x, std::span<const double> y, Rng& rng,
                       ThreadPool* pool) {
  const obs::Span span("forest.fit");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  HPCP_REQUIRE(x.rows() > 0, "cannot fit on empty data");
  HPCP_REQUIRE(opts_.num_trees > 0, "need at least one tree");

  num_features_ = x.cols();
  TreeOptions tree_opts = opts_.tree;
  if (tree_opts.mtry == 0 && opts_.mtry_ratio < 1.0) {
    tree_opts.mtry = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(opts_.mtry_ratio * static_cast<double>(x.cols()))));
  }

  const std::size_t n = x.rows();
  const std::size_t t = opts_.num_trees;
  trees_.assign(t, RegressionTree{});

  // Quantile-bin the feature columns once and share the bins across all
  // trees (bootstrap samples draw from the same rows, so per-tree binning
  // would rediscover near-identical boundaries t times over).
  const bool want_hist =
      tree_opts.split_mode == SplitMode::kHistogram ||
      (tree_opts.split_mode == SplitMode::kAuto && n > tree_opts.exact_cutoff);
  obs::count("forest.split_mode", 1,
             {{"engine", want_hist ? "hist" : "exact"}});
  BinnedMatrix bins;
  if (want_hist) bins = BinnedMatrix::build(x, tree_opts.max_bins);
  const BinnedMatrix* shared_bins = want_hist ? &bins : nullptr;

  // Pre-draw per-tree RNGs and bootstrap samples on the caller's thread so
  // results do not depend on worker scheduling.
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(t);
  std::vector<std::vector<std::size_t>> samples(t);
  for (std::size_t i = 0; i < t; ++i) {
    tree_rngs.push_back(rng.fork());
    if (opts_.bootstrap) {
      samples[i] = tree_rngs.back().bootstrap_indices(n);
    } else {
      samples[i].resize(n);
      std::iota(samples[i].begin(), samples[i].end(), std::size_t{0});
    }
  }

  parallel_for(
      t,
      [&](std::size_t i) {
        trees_[i].fit(x, y, samples[i], tree_opts, tree_rngs[i], shared_bins);
      },
      pool);

  flat_ = FlatForest::build(trees_);

  oob_mse_.reset();
  if (opts_.bootstrap && opts_.compute_oob) {
    // Per-tree OOB predictions computed in parallel, then merged serially
    // in tree order — bit-identical results for any pool size.
    struct OobPart {
      std::vector<std::size_t> rows;
      std::vector<double> preds;
    };
    const auto parts = parallel_map(
        t,
        [&](std::size_t i) {
          OobPart part;
          std::vector<char> in_bag(n, 0);
          for (const std::size_t r : samples[i]) in_bag[r] = 1;
          for (std::size_t r = 0; r < n; ++r) {
            if (!in_bag[r]) part.rows.push_back(r);
          }
          part.preds.resize(part.rows.size());
          flat_.predict_tree_rows(i, x, part.rows, part.preds);
          return part;
        },
        pool);

    std::vector<double> oob_sum(n, 0.0);
    std::vector<std::size_t> oob_count(n, 0);
    for (const OobPart& part : parts) {
      for (std::size_t k = 0; k < part.rows.size(); ++k) {
        oob_sum[part.rows[k]] += part.preds[k];
        ++oob_count[part.rows[k]];
      }
    }
    double mse = 0.0;
    std::size_t covered = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (oob_count[r] == 0) continue;
      const double pred = oob_sum[r] / static_cast<double>(oob_count[r]);
      mse += (pred - y[r]) * (pred - y[r]);
      ++covered;
    }
    if (covered == n) {
      oob_mse_ = mse / static_cast<double>(n);
    }
  }
}

bool RandomForest::warm_fit(const RandomForest& prior, const Matrix& x,
                            std::span<const double> y, ThreadPool* pool) {
  const obs::Span span("forest.warm_fit");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  if (!prior.fitted() || x.rows() == 0 ||
      prior.num_features_ != x.cols() ||
      prior.trees_.size() != opts_.num_trees) {
    return false;
  }
  // Route every row through every prior tree and recompute node values.
  // Ensemble diversity is inherited from the prior structure (which came
  // from bootstrapped fits); the refit itself is a pure function of the
  // data, so it needs no RNG and stays thread-count invariant.
  const std::size_t t = prior.trees_.size();
  auto refits = parallel_map(
      t,
      [&](std::size_t i) { return prior.trees_[i].refit_leaves(x, y); },
      pool);
  for (const auto& refit : refits) {
    if (!refit) return false;
  }
  obs::count("forest.warm_fits");
  trees_.clear();
  trees_.reserve(t);
  for (auto& refit : refits) trees_.push_back(std::move(*refit));
  num_features_ = x.cols();
  flat_ = FlatForest::build(trees_);
  oob_mse_.reset();
  return true;
}

double RandomForest::predict(std::span<const double> features) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  double sum = 0.0;
  double sum_sq = 0.0;
  flat_.predict_row_moments(features, sum, sum_sq);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::predict(const Matrix& x) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  return flat_.predict_mean(x);
}

RandomForest::PredictionStats RandomForest::predict_stats(
    std::span<const double> features) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  double sum = 0.0;
  double sum_sq = 0.0;
  flat_.predict_row_moments(features, sum, sum_sq);
  const auto t = static_cast<double>(trees_.size());
  const double mean = sum / t;
  const double var = std::max(0.0, sum_sq / t - mean * mean);
  return {.mean = mean, .stddev = std::sqrt(var)};
}

std::vector<double> RandomForest::feature_importance() const {
  HPCP_REQUIRE(fitted(), "importance before fit");
  std::vector<double> total(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto& imp = tree.impurity_importance();
    for (std::size_t f = 0; f < num_features_; ++f) total[f] += imp[f];
  }
  const double sum = std::accumulate(total.begin(), total.end(), 0.0);
  if (sum > 0.0) {
    for (auto& v : total) v /= sum;
  }
  return total;
}

void RandomForest::save(Serializer& out) const {
  out.tag("forest");
  out.write(num_features_);
  out.write(oob_mse_.has_value());
  out.write(oob_mse_.value_or(0.0));
  out.write(static_cast<std::size_t>(trees_.size()));
  for (const auto& tree : trees_) tree.save(out);
}

RandomForest RandomForest::load(Deserializer& in) {
  in.expect_tag("forest");
  RandomForest forest;
  forest.num_features_ = in.read_size();
  const bool has_oob = in.read_bool();
  const double oob = in.read_double();
  if (has_oob) forest.oob_mse_ = oob;
  // A tree is at least its tag, node count and importance count.
  forest.trees_.resize(in.read_count(4 * sizeof(std::uint64_t)));
  for (auto& tree : forest.trees_) tree = RegressionTree::load(in);
  forest.flat_ = FlatForest::build(forest.trees_);
  return forest;
}

}  // namespace hpcp
