#include "src/forest/flat_forest.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/common/check.hpp"

namespace hpcp {

namespace {

/// Per-row walk: advances one row to its leaf. It is the reference the
/// batched kernel is held to bit for bit, and it serves the single-row
/// entry points. Go left iff x <= threshold; a NaN threshold or NaN
/// feature value compares false and sends the row right.
inline std::int32_t walk_one(const FlatForest::Node* nodes, std::int32_t nd,
                             const double* xd, std::int32_t xbase) {
  while (nodes[nd].feature >= 0) {
    const FlatForest::Node& node = nodes[nd];
    nd = node.left + (xd[xbase + node.feature] <= node.threshold ? 0 : 1);
  }
  return nd;
}

/// The batched kernel: active-list compaction. A level-synchronous sweep
/// over every slot of a tile revisits parked slots on every pass, so an
/// unbalanced tree (unlimited depth, the production configuration) costs
/// n * max_depth slot visits although only n * mean_depth of them do
/// work; on measured fitted forests max_depth is roughly twice
/// mean_depth. The compaction walk keeps a packed list of still-active
/// (node, slot) entries (node index in the high 32 bits, slot in the low
/// 32), steps every entry one level per sweep, and writes survivors back
/// densely, so parked slots are never touched again and each sweep is a
/// straight streaming pass with branch-free bookkeeping. The eager
/// survivor test (an entry is appended only while its next node is
/// internal) keeps the step itself clamp-free: entries are never leaves,
/// which is why walk_tile seeds only internal roots.
///
/// A slot is one (tree, row) pair of a tile (see FlatForest::walk_tile):
/// entries of different trees are independent dependency chains, so a
/// tile of every tree over a one-row batch keeps ~100 node loads in
/// flight where a tree-at-a-time walk would follow one chain at a time.
/// The walk is bound by memory-level parallelism, not arithmetic: the
/// four-entry unroll exists to keep many independent node loads in
/// flight. The step is the per-row walk's own compare in portable C++, the
/// same on every platform: intrinsic builds of this loop (a pairwise
/// `_mm_cmpnle_pd` compare, an AVX2 encoding) measured no faster, and
/// 4-lane compares and hardware gathers measured slower (DESIGN.md).
///
/// Slot offsets: a one-tree tile over contiguous rows folds the offset
/// multiply into the step (kContiguous, xb = slot * d) instead of loading
/// a table; the all-trees tile and the out-of-bag row subset pass their
/// slot-to-row offset table.
template <bool kContiguous>
void walk_active(const FlatForest::Node* nodes, const double* xd,
                 const std::int32_t* xbase, std::int32_t d, std::int32_t* cur,
                 std::int64_t* act, std::size_t m) {
  while (m) {
    std::size_t w = 0;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      // All four steps are computed before the first store: a store to
      // cur may alias a node's int32 fields as far as the compiler knows,
      // so interleaving stores would serialise the independent node loads.
      const std::int64_t e0 = act[i];
      const std::int64_t e1 = act[i + 1];
      const std::int64_t e2 = act[i + 2];
      const std::int64_t e3 = act[i + 3];
      const auto k0 = static_cast<std::int32_t>(e0);
      const auto k1 = static_cast<std::int32_t>(e1);
      const auto k2 = static_cast<std::int32_t>(e2);
      const auto k3 = static_cast<std::int32_t>(e3);
      const FlatForest::Node& n0 = nodes[static_cast<std::int32_t>(e0 >> 32)];
      const FlatForest::Node& n1 = nodes[static_cast<std::int32_t>(e1 >> 32)];
      const FlatForest::Node& n2 = nodes[static_cast<std::int32_t>(e2 >> 32)];
      const FlatForest::Node& n3 = nodes[static_cast<std::int32_t>(e3 >> 32)];
      const std::int32_t xb0 = kContiguous ? k0 * d : xbase[k0];
      const std::int32_t xb1 = kContiguous ? k1 * d : xbase[k1];
      const std::int32_t xb2 = kContiguous ? k2 * d : xbase[k2];
      const std::int32_t xb3 = kContiguous ? k3 * d : xbase[k3];
      const std::int32_t x0 =
          n0.left + (xd[xb0 + n0.feature] <= n0.threshold ? 0 : 1);
      const std::int32_t x1 =
          n1.left + (xd[xb1 + n1.feature] <= n1.threshold ? 0 : 1);
      const std::int32_t x2 =
          n2.left + (xd[xb2 + n2.feature] <= n2.threshold ? 0 : 1);
      const std::int32_t x3 =
          n3.left + (xd[xb3 + n3.feature] <= n3.threshold ? 0 : 1);
      cur[k0] = x0;
      cur[k1] = x1;
      cur[k2] = x2;
      cur[k3] = x3;
      act[w] = static_cast<std::int64_t>(x0) << 32 |
               static_cast<std::uint32_t>(k0);
      w += nodes[x0].feature >= 0 ? 1 : 0;
      act[w] = static_cast<std::int64_t>(x1) << 32 |
               static_cast<std::uint32_t>(k1);
      w += nodes[x1].feature >= 0 ? 1 : 0;
      act[w] = static_cast<std::int64_t>(x2) << 32 |
               static_cast<std::uint32_t>(k2);
      w += nodes[x2].feature >= 0 ? 1 : 0;
      act[w] = static_cast<std::int64_t>(x3) << 32 |
               static_cast<std::uint32_t>(k3);
      w += nodes[x3].feature >= 0 ? 1 : 0;
    }
    for (; i < m; ++i) {
      const std::int64_t e = act[i];
      const auto k = static_cast<std::int32_t>(e);
      const FlatForest::Node& nd = nodes[static_cast<std::int32_t>(e >> 32)];
      const std::int32_t xb = kContiguous ? k * d : xbase[k];
      const std::int32_t nxt =
          nd.left + (xd[xb + nd.feature] <= nd.threshold ? 0 : 1);
      cur[k] = nxt;
      act[w] = static_cast<std::int64_t>(nxt) << 32 |
               static_cast<std::uint32_t>(k);
      w += nodes[nxt].feature >= 0 ? 1 : 0;
    }
    m = w;
  }
}

/// Slot-to-row offset table of a tile of `trees` trees over n contiguous
/// rows: slot t * n + r reads row r. The size guard in the predict entry
/// points bounds rows*cols, so the cast cannot truncate.
std::vector<std::int32_t> make_xbase(std::size_t trees, std::size_t n,
                                     std::size_t d) {
  std::vector<std::int32_t> xbase(trees * n);
  for (std::size_t t = 0; t < trees; ++t) {
    for (std::size_t r = 0; r < n; ++r) {
      xbase[t * n + r] = static_cast<std::int32_t>(r * d);
    }
  }
  return xbase;
}

void require_traversable(const Matrix& x) {
  HPCP_REQUIRE(x.data().size() <=
                   static_cast<std::size_t>(
                       (std::numeric_limits<std::int32_t>::max)()),
               "matrix too large for flat traversal");
}

}  // namespace

void FlatForest::append_tree(std::span<const RegressionTree::Node> tree) {
  // Renumber breadth-first with sibling children adjacent: right ==
  // left + 1 (the branchless step relies on it) and each level is one
  // contiguous run. The queue pairs (source index, packed index); both
  // child slots are claimed when the parent is written.
  const auto base = static_cast<std::int32_t>(nodes_.size());
  const auto size = static_cast<std::int32_t>(tree.size());
  nodes_.resize(nodes_.size() + tree.size());
  std::vector<std::pair<std::int32_t, std::int32_t>> queue;
  queue.reserve(tree.size());
  queue.emplace_back(0, base);
  std::int32_t next = base + 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [src, dst] = queue[head];
    const RegressionTree::Node& node = tree[static_cast<std::size_t>(src)];
    Node packed;
    if (node.left < 0) {
      packed.threshold = node.value;  // leaf: prediction rides here
    } else {
      // Corrupt archives reach this path via load(); reject malformed
      // links (out-of-range children, shared subtrees / cycles that
      // would claim more slots than the tree has nodes) instead of
      // scribbling past the packed array.
      HPCP_REQUIRE(node.left < size && node.right >= 0 &&
                       node.right < size && node.feature >= 0,
                   "malformed tree: child link out of range");
      HPCP_REQUIRE(next + 2 <= base + size,
                   "malformed tree: node linked more than once");
      packed.threshold = node.threshold;
      packed.feature = node.feature;
      packed.left = next;
      queue.emplace_back(node.left, next);
      queue.emplace_back(node.right, next + 1);
      next += 2;
      min_width_ = std::max(min_width_,
                            static_cast<std::size_t>(node.feature) + 1);
    }
    nodes_[static_cast<std::size_t>(dst)] = packed;
  }
  roots_.push_back(static_cast<std::int32_t>(nodes_.size()));
}

FlatForest FlatForest::build(std::span<const RegressionTree> trees) {
  FlatForest flat;
  std::size_t total = 0;
  for (const auto& tree : trees) {
    HPCP_REQUIRE(tree.fitted(), "cannot flatten an unfitted tree");
    total += tree.num_nodes();
  }
  HPCP_REQUIRE(total < (std::numeric_limits<std::int32_t>::max)() / 16,
               "ensemble too large for 32-bit traversal indices");
  flat.nodes_.reserve(total);
  flat.roots_.reserve(trees.size() + 1);
  flat.roots_.push_back(0);
  for (const auto& tree : trees) flat.append_tree(tree.nodes());
  return flat;
}

FlatForest FlatForest::from_nodes(
    std::span<const std::vector<RegressionTree::Node>> trees) {
  FlatForest flat;
  std::size_t total = 0;
  for (const auto& tree : trees) {
    HPCP_REQUIRE(!tree.empty(), "cannot flatten an empty node list");
    total += tree.size();
  }
  HPCP_REQUIRE(total < (std::numeric_limits<std::int32_t>::max)() / 16,
               "ensemble too large for 32-bit traversal indices");
  flat.nodes_.reserve(total);
  flat.roots_.reserve(trees.size() + 1);
  flat.roots_.push_back(0);
  for (const auto& tree : trees) flat.append_tree(tree);
  return flat;
}

void FlatForest::check_width(std::size_t width) const {
  HPCP_REQUIRE(width >= min_width_, "feature width mismatch");
}

std::size_t FlatForest::trees_per_tile(std::size_t n) const noexcept {
  const std::size_t trees = num_trees();
  if (n == 0 || trees == 0 || n > kTileEntries / trees) return 1;
  return trees;
}

void FlatForest::walk_tile(std::size_t t0, std::size_t nt, const double* xd,
                           const std::int32_t* xbase, std::int32_t d,
                           std::int32_t* cur, std::size_t n,
                           std::int64_t* act) const {
  const Node* nodes = nodes_.data();
  // Seeding: every slot starts at its tree's root, so cur reports the
  // root of a single-leaf tree without a walk; the active list gets one
  // (root, slot) entry per slot whose root is internal. Slots that leave
  // the list have had their final leaf written to cur by the walk, so one
  // scratch list serves every tile of a batch.
  std::size_t m = 0;
  for (std::size_t tt = 0; tt < nt; ++tt) {
    const std::int32_t root = roots_[t0 + tt];
    std::int32_t* slots = cur + tt * n;
    std::fill(slots, slots + n, root);
    if (nodes[root].feature < 0) continue;
    const auto base = static_cast<std::uint32_t>(tt * n);
    for (std::size_t r = 0; r < n; ++r) {
      act[m++] = static_cast<std::int64_t>(root) << 32 |
                 (base + static_cast<std::uint32_t>(r));
    }
  }
  if (xbase == nullptr) {
    walk_active<true>(nodes, xd, nullptr, d, cur, act, m);
  } else {
    walk_active<false>(nodes, xd, xbase, d, cur, act, m);
  }
}

std::vector<double> FlatForest::predict_mean(const Matrix& x) const {
  HPCP_REQUIRE(!empty(), "predict before build");
  check_width(x.cols());
  require_traversable(x);
  const std::size_t n = x.rows();
  const auto d = static_cast<std::int32_t>(x.cols());
  const double* xd = x.data().data();
  const std::size_t per_tile = trees_per_tile(n);
  // A tile of several trees needs the slot-to-row table; one tree over
  // contiguous rows computes its offsets in the walk.
  std::vector<std::int32_t> xbase;
  if (per_tile > 1) xbase = make_xbase(per_tile, n, x.cols());
  const std::int32_t* xb = xbase.empty() ? nullptr : xbase.data();
  // One slot and one active-list scratch buffer shared by every tile.
  std::vector<std::int32_t> cur(per_tile * n);
  std::vector<std::int64_t> act(per_tile * n);
  std::vector<double> acc(n, 0.0);
  for (std::size_t t0 = 0; t0 < num_trees(); t0 += per_tile) {
    const std::size_t nt = std::min(per_tile, num_trees() - t0);
    walk_tile(t0, nt, xd, xb, d, cur.data(), n, act.data());
    // Tree-major within the tile, tiles in tree order: every row sums its
    // leaves in tree order, the accumulation order of the per-row walk.
    for (std::size_t tt = 0; tt < nt; ++tt) {
      const std::int32_t* slots = cur.data() + tt * n;
      for (std::size_t r = 0; r < n; ++r) {
        acc[r] += nodes_[static_cast<std::size_t>(slots[r])].threshold;
      }
    }
  }
  // Divide (don't multiply by a reciprocal): bitwise identical to the
  // per-row reference walk, which the parity tests require.
  const auto trees = static_cast<double>(num_trees());
  for (auto& v : acc) v /= trees;
  return acc;
}

void FlatForest::predict_row_moments(std::span<const double> features,
                                     double& sum, double& sum_sq) const {
  HPCP_REQUIRE(!empty(), "predict before build");
  check_width(features.size());
  sum = 0.0;
  sum_sq = 0.0;
  for (std::size_t t = 0; t < num_trees(); ++t) {
    const std::int32_t nd =
        walk_one(nodes_.data(), roots_[t], features.data(), 0);
    const double p = nodes_[static_cast<std::size_t>(nd)].threshold;
    sum += p;
    sum_sq += p * p;
  }
}

double FlatForest::predict_tree_row(std::size_t t,
                                    std::span<const double> features) const {
  HPCP_REQUIRE(t < num_trees(), "tree index out of range");
  check_width(features.size());
  const std::int32_t nd =
      walk_one(nodes_.data(), roots_[t], features.data(), 0);
  return nodes_[static_cast<std::size_t>(nd)].threshold;
}

void FlatForest::predict_tree_rows(std::size_t t, const Matrix& x,
                                   std::span<const std::size_t> rows,
                                   std::span<double> out) const {
  HPCP_REQUIRE(t < num_trees(), "tree index out of range");
  check_width(x.cols());
  HPCP_REQUIRE(out.size() == rows.size(), "output span must match row list");
  require_traversable(x);
  const std::size_t d = x.cols();
  // A row subset is not contiguous: it takes the offset table.
  std::vector<std::int32_t> xbase(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    xbase[k] = static_cast<std::int32_t>(rows[k] * d);
  }
  std::vector<std::int64_t> act(rows.size());
  std::vector<std::int32_t> cur(rows.size());
  walk_tile(t, 1, x.data().data(), xbase.data(), static_cast<std::int32_t>(d),
            cur.data(), rows.size(), act.data());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    out[k] = nodes_[static_cast<std::size_t>(cur[k])].threshold;
  }
}

void FlatForest::accumulate_tree(std::size_t t, const Matrix& x, double scale,
                                 std::span<double> acc) const {
  HPCP_REQUIRE(t < num_trees(), "tree index out of range");
  check_width(x.cols());
  HPCP_REQUIRE(acc.size() == x.rows(), "accumulator must match row count");
  require_traversable(x);
  const std::size_t n = x.rows();
  std::vector<std::int64_t> act(n);
  std::vector<std::int32_t> cur(n);
  walk_tile(t, 1, x.data().data(), nullptr,
            static_cast<std::int32_t>(x.cols()), cur.data(), n, act.data());
  for (std::size_t r = 0; r < n; ++r) {
    acc[r] += scale * nodes_[static_cast<std::size_t>(cur[r])].threshold;
  }
}

}  // namespace hpcp
