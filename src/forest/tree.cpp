#include "src/forest/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/check.hpp"

namespace hpcp {

namespace {

struct BestSplit {
  std::size_t feature = 0;
  double threshold = 0.0;
  double gain = -1.0;  ///< SSE reduction; negative = no valid split found
  std::uint16_t bin = 0;
  bool from_hist = false;
};

/// One pending node of the explicit work stack (iterative DFS replaces
/// recursion, so adversarial inputs with max_depth == 0 cannot overflow the
/// call stack however deep the tree gets). `hist`, when non-empty, is the
/// node's per-feature (count, Σy) histogram, laid out
/// [(f * stride + bin) * 2].
struct WorkItem {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t depth = 0;
  std::int32_t parent = -1;
  bool is_left = false;
  std::vector<double> hist;
};

/// Single-fit builder. Gathers the fit rows into dense local arrays
/// (targets; column-major raw values for exact scans; row-major bin codes
/// for histogram accumulation) and grows the node vector in pre-order, the
/// same numbering the recursive builder produced.
class TreeBuilder {
 public:
  TreeBuilder(const Matrix& x, std::span<const double> y,
              std::span<const std::size_t> row_idx, const TreeOptions& opts,
              Rng& rng, const BinnedMatrix* shared_bins,
              std::vector<RegressionTree::Node>& nodes,
              std::vector<double>& importance)
      : opts_(opts),
        rng_(rng),
        nodes_(nodes),
        importance_(importance),
        n_(row_idx.size()),
        d_(x.cols()) {
    switch (opts.split_mode) {
      case SplitMode::kExact:
        hist_tree_ = false;
        break;
      case SplitMode::kHistogram:
        hist_tree_ = true;
        exact_fallback_ = false;
        break;
      case SplitMode::kAuto:
        hist_tree_ = n_ > opts.exact_cutoff;
        break;
    }

    ys_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) ys_[i] = y[row_idx[i]];

    if (!hist_tree_ || exact_fallback_) {
      lx_.resize(n_ * d_);
      for (std::size_t f = 0; f < d_; ++f) {
        double* col = lx_.data() + f * n_;
        for (std::size_t i = 0; i < n_; ++i) col[i] = x(row_idx[i], f);
      }
    }

    if (hist_tree_) {
      if (shared_bins != nullptr) {
        HPCP_REQUIRE(shared_bins->rows() == x.rows() &&
                         shared_bins->cols() == x.cols(),
                     "shared bins must cover the full training matrix");
        bins_ = shared_bins;
      } else {
        owned_bins_ =
            BinnedMatrix::build(x.select_rows(row_idx), opts.max_bins);
        bins_ = &owned_bins_;
      }
      stride_ = bins_->max_bins();
      lc_.resize(n_ * d_);
      for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t src = shared_bins != nullptr ? row_idx[i] : i;
        for (std::size_t f = 0; f < d_; ++f) {
          lc_[i * d_ + f] = bins_->code(src, f);
        }
      }
    }

    idx_.resize(n_);
    std::iota(idx_.begin(), idx_.end(), std::size_t{0});
  }

  void run() {
    stack_.push_back(
        WorkItem{.begin = 0, .end = n_, .depth = 0, .hist = {}});
    while (!stack_.empty()) {
      WorkItem item = std::move(stack_.back());
      stack_.pop_back();
      process(std::move(item));
    }
  }

 private:
  [[nodiscard]] bool depth_ok(std::size_t depth) const noexcept {
    return opts_.max_depth == 0 || depth < opts_.max_depth;
  }

  /// Histogram engine applies to this node (vs the exact fallback).
  [[nodiscard]] bool node_uses_hist(std::size_t n) const noexcept {
    return hist_tree_ && (!exact_fallback_ || n > opts_.exact_cutoff);
  }

  /// A child node is worth a histogram only if it can still split.
  [[nodiscard]] bool child_wants_hist(std::size_t n, std::size_t depth) const
      noexcept {
    return node_uses_hist(n) && depth_ok(depth) &&
           n >= opts_.min_samples_split && n >= 2 * opts_.min_samples_leaf;
  }

  [[nodiscard]] std::vector<double> make_hist(std::size_t begin,
                                              std::size_t end) const {
    std::vector<double> h(d_ * stride_ * 2, 0.0);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t pos = idx_[i];
      const double yv = ys_[pos];
      const std::uint16_t* codes = lc_.data() + pos * d_;
      for (std::size_t f = 0; f < d_; ++f) {
        double* cell = h.data() + (f * stride_ + codes[f]) * 2;
        cell[0] += 1.0;
        cell[1] += yv;
      }
    }
    return h;
  }

  [[nodiscard]] BestSplit best_hist_split(
      const std::vector<double>& hist, std::size_t n,
      std::span<const std::size_t> features) const {
    BestSplit best;
    const auto nn = static_cast<double>(n);
    const auto min_leaf = static_cast<double>(opts_.min_samples_leaf);
    for (const std::size_t f : features) {
      const auto& bounds = bins_->boundaries(f);
      if (bounds.empty()) continue;
      const double* hf = hist.data() + f * stride_ * 2;
      double total = 0.0;
      for (std::size_t b = 0; b <= bounds.size(); ++b) total += hf[2 * b + 1];
      // gain = SSE(parent) - SSE(children); with fixed parent SSE, maximise
      // sum_l²/n_l + sum_r²/n_r (standard CART identity). The parent score
      // is loop-invariant, so it is computed once per feature.
      const double parent_score = total * total / nn;
      double cnt = 0.0;
      double sum = 0.0;
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        cnt += hf[2 * b];
        sum += hf[2 * b + 1];
        if (cnt == 0.0) continue;  // leading empty bins
        if (cnt == nn) break;      // nothing remains on the right
        if (cnt < min_leaf || nn - cnt < min_leaf) continue;
        const double right_sum = total - sum;
        const double score =
            sum * sum / cnt + right_sum * right_sum / (nn - cnt);
        const double gain = score - parent_score;
        if (gain > best.gain) {
          best.feature = f;
          best.threshold = bounds[b];
          best.gain = gain;
          best.bin = static_cast<std::uint16_t>(b);
          best.from_hist = true;
        }
      }
    }
    return best;
  }

  [[nodiscard]] BestSplit best_exact_split(
      std::size_t begin, std::size_t end,
      std::span<const std::size_t> features) {
    const std::size_t n = end - begin;
    const auto nn = static_cast<double>(n);
    BestSplit best;
    order_.assign(idx_.begin() + static_cast<std::ptrdiff_t>(begin),
                  idx_.begin() + static_cast<std::ptrdiff_t>(end));
    for (const std::size_t f : features) {
      const double* col = lx_.data() + f * n_;
      std::sort(order_.begin(), order_.end(),
                [col](std::size_t a, std::size_t b) { return col[a] < col[b]; });
      // Scan split positions with running prefix sums; split between
      // distinct adjacent feature values only.
      double left_sum = 0.0;
      double total_sum = 0.0;
      for (const std::size_t i : order_) total_sum += ys_[i];
      const double parent_score = total_sum * total_sum / nn;  // invariant
      for (std::size_t pos = 1; pos < n; ++pos) {
        left_sum += ys_[order_[pos - 1]];
        if (col[order_[pos - 1]] == col[order_[pos]]) continue;
        if (pos < opts_.min_samples_leaf ||
            n - pos < opts_.min_samples_leaf) {
          continue;
        }
        const auto nl = static_cast<double>(pos);
        const auto nr = static_cast<double>(n - pos);
        const double right_sum = total_sum - left_sum;
        const double score =
            left_sum * left_sum / nl + right_sum * right_sum / nr;
        const double gain = score - parent_score;
        if (gain > best.gain) {
          best.feature = f;
          best.threshold = 0.5 * (col[order_[pos - 1]] + col[order_[pos]]);
          best.gain = gain;
          best.from_hist = false;
        }
      }
    }
    return best;
  }

  void process(WorkItem item) {
    const std::size_t n = item.end - item.begin;
    double sum = 0.0;
    for (std::size_t i = item.begin; i < item.end; ++i) sum += ys_[idx_[i]];
    const double mean = sum / static_cast<double>(n);
    double sse = 0.0;
    for (std::size_t i = item.begin; i < item.end; ++i) {
      const double dev = ys_[idx_[i]] - mean;
      sse += dev * dev;
    }

    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(RegressionTree::Node{.value = mean});
    if (item.parent >= 0) {
      auto& parent = nodes_[static_cast<std::size_t>(item.parent)];
      (item.is_left ? parent.left : parent.right) = node_id;
    }

    if (!depth_ok(item.depth) || n < opts_.min_samples_split ||
        n < 2 * opts_.min_samples_leaf || sse <= 1e-24) {
      return;
    }

    // Candidate features: all, or an mtry-sized random subset (random
    // forest). Pre-order processing keeps the rng consumption order
    // identical to the old recursive builder.
    std::vector<std::size_t> features;
    if (opts_.mtry == 0 || opts_.mtry >= d_) {
      features.resize(d_);
      std::iota(features.begin(), features.end(), std::size_t{0});
    } else {
      features = rng_.sample_without_replacement(d_, opts_.mtry);
    }

    const bool use_hist = node_uses_hist(n);
    BestSplit best;
    if (use_hist) {
      if (item.hist.empty()) item.hist = make_hist(item.begin, item.end);
      best = best_hist_split(item.hist, n, features);
    } else {
      best = best_exact_split(item.begin, item.end, features);
    }
    if (best.gain <= 0.0) return;

    // Partition local positions around the chosen split.
    const auto first = idx_.begin() + static_cast<std::ptrdiff_t>(item.begin);
    const auto last = idx_.begin() + static_cast<std::ptrdiff_t>(item.end);
    std::vector<std::size_t>::iterator mid_it;
    if (best.from_hist) {
      const std::size_t f = best.feature;
      const std::uint16_t bin = best.bin;
      const std::size_t d = d_;
      const std::uint16_t* lc = lc_.data();
      mid_it = std::partition(first, last, [lc, d, f, bin](std::size_t i) {
        return lc[i * d + f] <= bin;
      });
    } else {
      const double* col = lx_.data() + best.feature * n_;
      const double thr = best.threshold;
      mid_it = std::partition(
          first, last, [col, thr](std::size_t i) { return col[i] <= thr; });
    }
    const auto mid = static_cast<std::size_t>(mid_it - idx_.begin());
    HPCP_ASSERT(mid > item.begin && mid < item.end, "degenerate partition");

    importance_[best.feature] += best.gain;
    auto& node = nodes_[static_cast<std::size_t>(node_id)];
    node.feature = static_cast<std::int32_t>(best.feature);
    node.threshold = best.threshold;

    WorkItem left{.begin = item.begin,
                  .end = mid,
                  .depth = item.depth + 1,
                  .parent = node_id,
                  .is_left = true,
                  .hist = {}};
    WorkItem right{.begin = mid,
                   .end = item.end,
                   .depth = item.depth + 1,
                   .parent = node_id,
                   .is_left = false,
                   .hist = {}};

    if (use_hist) {
      // Parent − sibling subtraction: accumulate only the smaller child's
      // histogram and derive the larger one by reusing the parent's buffer.
      WorkItem& small = left.end - left.begin <= right.end - right.begin
                            ? left
                            : right;
      WorkItem& big = &small == &left ? right : left;
      const bool small_wants =
          child_wants_hist(small.end - small.begin, small.depth);
      const bool big_wants = child_wants_hist(big.end - big.begin, big.depth);
      if (big_wants) {
        small.hist = make_hist(small.begin, small.end);
        auto& ph = item.hist;
        for (std::size_t k = 0; k < ph.size(); ++k) ph[k] -= small.hist[k];
        big.hist = std::move(item.hist);
        if (!small_wants) small.hist.clear();
      } else if (small_wants) {
        small.hist = make_hist(small.begin, small.end);
      }
    }

    // LIFO: right first so the left child is processed next (pre-order).
    stack_.push_back(std::move(right));
    stack_.push_back(std::move(left));
  }

  const TreeOptions& opts_;
  Rng& rng_;
  std::vector<RegressionTree::Node>& nodes_;
  std::vector<double>& importance_;
  std::size_t n_;
  std::size_t d_;
  bool hist_tree_ = false;
  bool exact_fallback_ = true;
  const BinnedMatrix* bins_ = nullptr;
  BinnedMatrix owned_bins_;
  std::size_t stride_ = 0;
  std::vector<double> ys_;          ///< local targets, one per fit row
  std::vector<double> lx_;          ///< column-major raw values [f * n_ + i]
  std::vector<std::uint16_t> lc_;   ///< row-major bin codes [i * d_ + f]
  std::vector<std::size_t> idx_;    ///< local positions, partitioned in place
  std::vector<std::size_t> order_;  ///< scratch for exact-scan sorting
  std::vector<WorkItem> stack_;
};

}  // namespace

void RegressionTree::fit(const Matrix& x, std::span<const double> y,
                         const TreeOptions& opts, Rng& rng) {
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  fit(x, y, idx, opts, rng);
}

void RegressionTree::fit(const Matrix& x, std::span<const double> y,
                         std::span<const std::size_t> row_idx,
                         const TreeOptions& opts, Rng& rng,
                         const BinnedMatrix* shared_bins) {
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  HPCP_REQUIRE(!row_idx.empty(), "cannot fit a tree on zero rows");
  HPCP_REQUIRE(opts.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
  HPCP_REQUIRE(opts.max_bins >= 2, "max_bins must be >= 2");
  nodes_.clear();
  importance_.assign(x.cols(), 0.0);
  TreeBuilder builder(x, y, row_idx, opts, rng, shared_bins, nodes_,
                      importance_);
  builder.run();
}

double RegressionTree::predict(std::span<const double> features) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  std::size_t node = 0;
  for (;;) {
    const Node& cur = nodes_[node];
    if (cur.left < 0) return cur.value;
    HPCP_REQUIRE(static_cast<std::size_t>(cur.feature) < features.size(),
                 "feature width mismatch");
    node = static_cast<std::size_t>(
        features[static_cast<std::size_t>(cur.feature)] <= cur.threshold
            ? cur.left
            : cur.right);
  }
}

std::vector<double> RegressionTree::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict(x.row(r));
  return out;
}

std::optional<RegressionTree> RegressionTree::refit_leaves(
    const Matrix& x, std::span<const double> y) const {
  HPCP_REQUIRE(fitted(), "refit before fit");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  std::vector<double> sum(nodes_.size(), 0.0);
  std::vector<std::size_t> count(nodes_.size(), 0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    std::size_t node = 0;
    for (;;) {
      sum[node] += y[r];
      ++count[node];
      const Node& cur = nodes_[node];
      if (cur.left < 0) break;
      HPCP_REQUIRE(static_cast<std::size_t>(cur.feature) < row.size(),
                   "feature width mismatch");
      node = static_cast<std::size_t>(
          row[static_cast<std::size_t>(cur.feature)] <= cur.threshold
              ? cur.left
              : cur.right);
    }
  }
  RegressionTree out = *this;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (out.nodes_[i].left < 0 && count[i] == 0) return std::nullopt;
    if (count[i] > 0) {
      out.nodes_[i].value = sum[i] / static_cast<double>(count[i]);
    }
  }
  return out;
}

std::size_t RegressionTree::num_leaves() const noexcept {
  std::size_t count = 0;
  for (const auto& n : nodes_) count += n.left < 0 ? 1 : 0;
  return count;
}

std::size_t RegressionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& cur = nodes_[node];
    if (cur.left >= 0) {
      stack.emplace_back(static_cast<std::size_t>(cur.left), d + 1);
      stack.emplace_back(static_cast<std::size_t>(cur.right), d + 1);
    }
  }
  return best;
}

void RegressionTree::save(Serializer& out) const {
  out.tag("tree");
  out.write(static_cast<std::size_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    out.write(static_cast<std::int64_t>(n.left));
    out.write(static_cast<std::int64_t>(n.right));
    out.write(static_cast<std::int64_t>(n.feature));
    out.write(n.threshold);
    out.write(n.value);
  }
  out.write(importance_);
}

RegressionTree RegressionTree::load(Deserializer& in) {
  in.expect_tag("tree");
  RegressionTree tree;
  // A node is three int64 links and two doubles.
  tree.nodes_.resize(in.read_count(5 * sizeof(std::uint64_t)));
  for (Node& n : tree.nodes_) {
    n.left = static_cast<std::int32_t>(in.read_int());
    n.right = static_cast<std::int32_t>(in.read_int());
    n.feature = static_cast<std::int32_t>(in.read_int());
    n.threshold = in.read_double();
    n.value = in.read_double();
  }
  tree.importance_ = in.read_doubles();
  return tree;
}

}  // namespace hpcp
