#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/forest/tree.hpp"
#include "src/linear/matrix.hpp"

/// \file flat_forest.hpp
/// Cache-blocked tree ensemble for batched inference.
///
/// FlatForest packs any number of fitted RegressionTrees into one
/// contiguous array of 16-byte nodes (threshold + feature + left-child
/// index; four nodes per cache line) with per-tree root offsets. Nodes
/// are renumbered breadth-first with sibling children adjacent, so
///   - `right == left + 1` always: the traversal step is branchless
///     index arithmetic (`left + (x > threshold)`), and
///   - one tree level occupies one contiguous run, which is exactly the
///     access pattern of the level-synchronous walk below.
/// A leaf stores its prediction in the threshold slot (feature < 0), so
/// the hot loop touches a single array.
///
/// Batched prediction walks *tiles* of (tree, row) slots level by level:
/// every pass advances every still-active slot one level. A batch has one
/// of two shapes (trees_per_tile). A small batch, at most kTileEntries
/// slots (the cold serving path predicts one row per call), is one tile
/// of every tree over every row, so the trees' independent node-load
/// chains overlap their cache misses instead of running one tree after
/// another; a larger batch walks one tree across the whole batch, so that
/// tree's upper levels stay cache-resident while the rows stream through.
/// One portable kernel runs every batch on every platform: a compaction
/// walk that keeps a packed active list of (node, slot) entries, so slots
/// already parked at a leaf are never revisited — on unbalanced
/// unlimited-depth trees that halves the visit count against a sweep of
/// the whole tile (see flat_forest.cpp for the kernel anatomy and the
/// rejected alternatives, intrinsic builds included).
/// Leaves are summed per row in tree order whatever the shape.
/// The per-row walk behind predict_row_moments and predict_tree_row is
/// the reference: every batched entry point must agree with it bit for
/// bit, NaN thresholds and NaN features included (the parity suite in
/// test_flat_forest.cpp and the forest bench both check it).
///
/// RandomForest and GradientBoostedTrees build a FlatForest after fitting
/// and route predict / predict_stats / OOB / staged prediction through it;
/// the node-based trees remain the canonical fitted representation (and the
/// serialization format).

namespace hpcp {

class FlatForest {
 public:
  /// One packed traversal node. Internal: feature >= 0, `threshold` is the
  /// split, children live at `left` and `left + 1` (rows with
  /// x[feature] <= threshold go left; a NaN threshold or NaN feature value
  /// goes right, matching IEEE `<=`). Leaf: feature < 0, `threshold`
  /// holds the prediction, `left` is unused (-1).
  struct alignas(16) Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t left = -1;
  };
  static_assert(sizeof(Node) == 16, "traversal node must pack to 16 bytes");

  FlatForest() = default;

  /// Flatten an ensemble; all trees must be fitted.
  [[nodiscard]] static FlatForest build(std::span<const RegressionTree> trees);

  /// Builds directly from raw per-tree node lists. Test/fuzz entry point
  /// for shapes a real fit cannot produce (NaN thresholds, degenerate
  /// one-leaf trees); semantics identical to build().
  [[nodiscard]] static FlatForest from_nodes(
      std::span<const std::vector<RegressionTree::Node>> trees);

  [[nodiscard]] std::size_t num_trees() const noexcept {
    return roots_.empty() ? 0 : roots_.size() - 1;
  }
  [[nodiscard]] bool empty() const noexcept { return num_trees() == 0; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  /// Minimum feature-vector width accepted by predict calls.
  [[nodiscard]] std::size_t min_feature_width() const noexcept {
    return min_width_;
  }

  /// Entry budget of the all-trees tile: a batch of n rows is one tile of
  /// every tree when n * num_trees() <= kTileEntries.
  static constexpr std::size_t kTileEntries = 1024;

  /// Trees per tile for a batch of n rows: num_trees() when the batch
  /// fits one tile of kTileEntries slots, else 1 (one tree at a time
  /// across the whole batch).
  [[nodiscard]] std::size_t trees_per_tile(std::size_t n) const noexcept;

  /// Mean per-tree prediction for every row of x (the ensemble average).
  [[nodiscard]] std::vector<double> predict_mean(const Matrix& x) const;

  /// Per-row path: sum and sum-of-squares over trees for one feature
  /// vector, summed in tree order. The reference for the batched walk.
  void predict_row_moments(std::span<const double> features, double& sum,
                           double& sum_sq) const;

  /// Prediction of tree t for one feature vector.
  [[nodiscard]] double predict_tree_row(std::size_t t,
                                        std::span<const double> features) const;

  /// Batched prediction of tree t over a row subset: out[k] = tree t's
  /// prediction for x.row(rows[k]). Used by the out-of-bag pass.
  void predict_tree_rows(std::size_t t, const Matrix& x,
                         std::span<const std::size_t> rows,
                         std::span<double> out) const;

  /// acc[r] += scale * (tree t's prediction for row r), for every row of x.
  /// Used by GBM's staged residual updates and staged prediction.
  void accumulate_tree(std::size_t t, const Matrix& x, double scale,
                       std::span<double> acc) const;

 private:
  void check_width(std::size_t width) const;
  void append_tree(std::span<const RegressionTree::Node> nodes);

  /// Walks the tile of trees [t0, t0 + nt) over n rows, leaving slot
  /// tt * n + r of cur (>= nt * n entries) at tree t0 + tt's leaf for row
  /// r; the walk seeds every slot from its tree's root itself, so cur
  /// needs no prefill by the caller. Slot s reads its features at
  /// xd + xbase[s]; a null xbase means one tree over contiguous rows
  /// (offset s * d). A table is needed exactly when the tile holds more
  /// than one tree or a row subset. `act` is the active-list scratch
  /// (>= nt * n entries, reusable across tiles).
  void walk_tile(std::size_t t0, std::size_t nt, const double* xd,
                 const std::int32_t* xbase, std::int32_t d,
                 std::int32_t* cur, std::size_t n, std::int64_t* act) const;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> roots_;  ///< tree t's nodes: [roots_[t], roots_[t+1])
  std::size_t min_width_ = 0;
};

}  // namespace hpcp
