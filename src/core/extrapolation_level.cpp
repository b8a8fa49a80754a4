#include "src/core/extrapolation_level.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "src/cluster/curve_features.hpp"
#include "src/common/check.hpp"
#include "src/linear/lasso.hpp"
#include "src/linear/multitask_lasso.hpp"
#include "src/linear/nnls.hpp"
#include "src/obs/obs.hpp"

namespace hpcp {

namespace {

/// Select columns of a matrix.
Matrix select_columns(const Matrix& m, std::span<const std::size_t> cols) {
  Matrix out(m.rows(), cols.size());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      out(r, c) = m(r, cols[c]);
    }
  }
  return out;
}

/// Indices of the `limit` largest-norm rows of W, sorted ascending.
std::vector<std::size_t> cap_support(const Matrix& w,
                                     std::vector<std::size_t> support,
                                     std::size_t limit) {
  if (support.size() <= limit) return support;
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(support.size());
  for (const std::size_t j : support) {
    double norm = 0.0;
    for (const double v : w.row(j)) norm += v * v;
    scored.emplace_back(norm, j);
  }
  std::sort(scored.begin(), scored.end(), std::greater<>());
  scored.resize(limit);
  std::vector<std::size_t> out;
  out.reserve(limit);
  for (const auto& [norm, j] : scored) out.push_back(j);
  std::sort(out.begin(), out.end());
  return out;
}

/// Outcome of one multitask shared-support selection. `ok == false` means
/// the fallback chain must advance; `fail_reason` says why.
struct SupportAttempt {
  bool ok = false;
  std::vector<std::size_t> support;
  double lambda = 0.0;
  std::string fail_reason;
};

/// Shared-support selection for one set of configurations (a cluster, or
/// all of them pooled): normalise each member curve by its geometric mean,
/// pick λ by leave-largest-scale-out, fit, cap the support. Reports — not
/// throws — solver non-convergence and degeneracy so callers can degrade.
/// The λ-grid search batches over `pool`; the result is bitwise independent
/// of the pool size (indexed error slots, serial grid-order selection).
SupportAttempt attempt_multitask_support(
    const Matrix& design, const Matrix& small_times,
    const std::vector<std::size_t>& members, std::size_t max_support,
    const ExtrapolationLevelOptions& opts, ThreadPool* pool) {
  SupportAttempt out;
  const std::size_t k = small_times.cols();

  // Task matrix: rows = small scales (samples), columns = configurations
  // (tasks). Runtimes enter raw so the basis terms combine additively,
  // exactly like the cost mechanisms they model. Each task is normalised by
  // its geometric mean so large configurations do not dominate the
  // shared-support selection.
  Matrix y(k, members.size());
  for (std::size_t t = 0; t < members.size(); ++t) {
    double log_mean = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      log_mean += std::log(std::max(small_times(members[t], s), 1e-12));
    }
    const double scale = std::exp(log_mean / static_cast<double>(k));
    for (std::size_t s = 0; s < k; ++s) {
      y(s, t) = small_times(members[t], s) / scale;
    }
  }

  // λ by leave-largest-scale-out: fit on the k−1 smallest scales, validate
  // the prediction of the largest — a direct proxy for the extrapolation
  // use of the model.
  const double lmax = multitask_lambda_max(design, y);
  if (!std::isfinite(lmax)) {
    out.fail_reason = "lambda_max is non-finite (degenerate task matrix)";
    return out;
  }
  double best_lambda = std::max(lmax, 1e-12) * 1e-2;
  if (k >= 3 && lmax > 0.0) {
    std::vector<std::size_t> fit_rows(k - 1);
    std::iota(fit_rows.begin(), fit_rows.end(), std::size_t{0});
    const Matrix phi_fit = design.select_rows(fit_rows);
    const Matrix y_fit = y.select_rows(fit_rows);
    const auto held_phi = design.row(k - 1);
    const auto grid = lambda_grid(lmax, opts.lambda_grid_size);
    // Each grid point's fit + held-out validation is independent of the
    // others; errors land in grid-indexed slots, and the best-error scan
    // plus the sparsest-λ selection below run serially in grid order.
    const auto errs = parallel_map(
        grid.size(),
        [&](std::size_t g) {
          const auto model =
              fit_multitask_lasso(phi_fit, y_fit, {.lambda = grid[g]});
          const auto pred = model.predict(held_phi);
          double err = 0.0;
          for (std::size_t t = 0; t < members.size(); ++t) {
            const double truth = y(k - 1, t);
            const double rel = (pred[t] - truth) / truth;
            err += rel * rel;
          }
          return std::isfinite(err)
                     ? err
                     : std::numeric_limits<double>::infinity();
        },
        pool);
    double best_err = std::numeric_limits<double>::infinity();
    for (const double err : errs) best_err = std::min(best_err, err);
    if (!std::isfinite(best_err)) {
      out.fail_reason =
          "lambda search degenerate: no finite validation error on the "
          "held-out scale";
      return out;
    }
    // One-standard-error-style rule: the grid is descending in λ, so the
    // first λ within (1 + slack) of the best error is the sparsest
    // acceptable scaling law.
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (errs[g] <= best_err * (1.0 + opts.lambda_slack)) {
        best_lambda = grid[g];
        break;
      }
    }
  }

  // The final fit runs once per cluster on a tiny design (|scales| rows),
  // so it gets a generous iteration budget and a tolerance matched to
  // support selection (the coefficients only need to be settled enough that
  // the active set is stable). Failing to converge under *these* limits
  // marks a genuinely stuck solver, not an impatient caller.
  MultiTaskFitInfo info;
  const auto model = fit_multitask_lasso(
      design, y, {.lambda = best_lambda, .max_iter = 100'000, .tol = 1e-5},
      &info);
  if (!info.converged) {
    out.fail_reason = "multitask lasso hit its iteration cap (" +
                      std::to_string(info.iterations) + " iterations)";
    return out;
  }
  auto support = model.support();
  support = cap_support(model.weights(), std::move(support), max_support);
  if (support.empty()) {
    out.fail_reason = "l2,1 penalty shrank every basis term to zero";
    return out;
  }
  out.ok = true;
  out.support = std::move(support);
  out.lambda = best_lambda;
  return out;
}

/// The per-config power-law fallback needs at least two distinct scales to
/// identify an exponent.
std::size_t count_distinct(std::span<const std::size_t> values) {
  std::vector<std::size_t> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  return static_cast<std::size_t>(
      std::distance(v.begin(), std::unique(v.begin(), v.end())));
}

}  // namespace

void ExtrapolationLevel::fit(const Matrix& small_times,
                             std::span<const std::size_t> small_scales,
                             std::span<const std::size_t> target_scales,
                             Rng& rng, TrainReport* report,
                             ThreadPool* pool) {
  const obs::Span fit_span("extrap.fit");
  HPCP_REQUIRE(small_times.rows() >= 1, "need at least one configuration");
  HPCP_REQUIRE(small_scales.size() >= 2, "need at least two small scales");
  HPCP_REQUIRE(small_times.cols() == small_scales.size(),
               "curve width must match small-scale count");
  HPCP_REQUIRE(!target_scales.empty(), "need at least one target scale");

  small_scales_.assign(small_scales.begin(), small_scales.end());
  target_scales_.assign(target_scales.begin(), target_scales.end());
  design_ = basis_.design(small_scales_);

  const std::size_t n = small_times.rows();
  const std::size_t k = small_scales_.size();
  const std::size_t max_support =
      opts_.max_support == 0 ? std::min<std::size_t>(3, k - 1)
                             : opts_.max_support;

  // --- cluster configurations by curve shape ---
  const obs::Stopwatch cluster_watch;
  {
    const obs::Span cluster_span("extrap.cluster");
    const Matrix shapes = normalize_curve_shapes(small_times);
    std::size_t num_clusters = opts_.num_clusters;
    const std::size_t feasible_max = std::max<std::size_t>(
        1, std::min(opts_.max_clusters,
                    n / std::max<std::size_t>(1, opts_.min_cluster_size)));
    if (num_clusters == 0) {
      num_clusters =
          n >= 2 ? select_k_silhouette(shapes, 1, feasible_max, rng, 0.2, pool)
                 : 1;
    }
    num_clusters = std::clamp<std::size_t>(num_clusters, 1, n);
    for (;;) {
      clustering_ = kmeans(shapes, {.k = num_clusters}, rng, pool);
      if (num_clusters == 1) break;
      const auto sizes = clustering_.cluster_sizes();
      if (*std::min_element(sizes.begin(), sizes.end()) >=
          std::min<std::size_t>(opts_.min_cluster_size,
                                n / num_clusters / 2 + 1)) {
        break;
      }
      --num_clusters;
    }
  }
  obs::gauge_set("extrap.clusters", static_cast<double>(clustering_.k()));

  if (report != nullptr) {
    *report = TrainReport{};
    report->num_configs = n;
    report->num_clusters = clustering_.k();
    report->clustering_converged = clustering_.converged;
    report->timings.push_back({"extrapolation.cluster",
                               cluster_watch.seconds()});
    if (!clustering_.converged) {
      report->warnings.push_back("k-means hit its iteration cap");
    }
  }

  // --- per-cluster shared-support selection (multitask lasso) ---
  cluster_supports_.assign(clustering_.k(), {});
  cluster_lambdas_.assign(clustering_.k(), 0.0);
  cluster_stages_.assign(clustering_.k(), FallbackStage::ClusterMultitask);
  if (!opts_.multitask) {
    // Single-task mode selects supports per curve at prediction time.
    if (report != nullptr) {
      for (std::size_t c = 0; c < clustering_.k(); ++c) {
        ClusterTrainInfo info;
        info.cluster = c;
        info.num_members = clustering_.cluster_sizes()[c];
        info.reason = "single-task ablation: support chosen per curve at "
                      "prediction time";
        report->clusters.push_back(std::move(info));
      }
    }
    fitted_ = true;
    return;
  }

  const bool power_law_feasible = count_distinct(small_scales_) >= 2;

  const obs::Stopwatch support_watch;

  // Member lists per cluster, built serially (labels are fixed by now).
  std::vector<std::vector<std::size_t>> cluster_members(clustering_.k());
  for (std::size_t i = 0; i < n; ++i) {
    cluster_members[clustering_.labels[i]].push_back(i);
  }

  // Phase 1 — every cluster's own support selection, into cluster-indexed
  // slots. Attempts are pure functions of (design, times, members, opts),
  // so running them concurrently changes nothing but wall time. Fan-out
  // policy: with more workers than clusters, keep the outer loop serial so
  // each attempt's λ-grid spreads across the whole pool; with few workers,
  // fan out over clusters (the grid then runs inline on the worker).
  const auto attempt_own = [&](std::size_t c) {
    const obs::Span cluster_span("extrap.cluster_fit");
    HPCP_ASSERT(!cluster_members[c].empty(),
                "kmeans produced an empty cluster");
    return attempt_multitask_support(design_, small_times, cluster_members[c],
                                     max_support, opts_, pool);
  };
  std::vector<SupportAttempt> own_attempts(clustering_.k());
  if (parallel_width(pool) > clustering_.k()) {
    for (std::size_t c = 0; c < clustering_.k(); ++c) {
      own_attempts[c] = attempt_own(c);
    }
  } else {
    own_attempts = parallel_map(clustering_.k(), attempt_own, pool);
  }

  // Phase 2 — pooled fallback support (one multitask lasso over *all*
  // configurations), computed once iff some cluster's own attempt failed.
  std::optional<SupportAttempt> pooled;
  const bool any_failed =
      std::any_of(own_attempts.begin(), own_attempts.end(),
                  [](const SupportAttempt& a) { return !a.ok; });
  if (any_failed) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    pooled = attempt_multitask_support(design_, small_times, all, max_support,
                                       opts_, pool);
  }

  // Phase 3 — resolve the degradation ladder serially in cluster order:
  // own multitask → pooled multitask → per-config power law → Amdahl
  // preset. Keeping this merge serial pins the report/metric order and
  // makes the fitted level bitwise independent of the pool size.
  for (std::size_t c = 0; c < clustering_.k(); ++c) {
    ClusterTrainInfo info;
    info.cluster = c;
    info.num_members = cluster_members[c].size();

    const SupportAttempt& own = own_attempts[c];
    if (own.ok) {
      info.stage = FallbackStage::ClusterMultitask;
      info.support = own.support;
      info.lambda = own.lambda;
    } else if (pooled->ok) {
      info.stage = FallbackStage::PooledMultitask;
      info.support = pooled->support;
      info.lambda = pooled->lambda;
      info.reason = own.fail_reason + "; reusing the pooled support";
    } else if (power_law_feasible) {
      info.stage = FallbackStage::PerConfigOls;
      info.reason = own.fail_reason + "; pooled fit also failed (" +
                    pooled->fail_reason + ")";
    } else {
      info.stage = FallbackStage::AmdahlPreset;
      info.support = {0};  // "1/p" plus intercept
      info.reason = own.fail_reason +
                    "; power law unidentifiable with a single distinct "
                    "small scale";
    }

    obs::count("fallback.rung", 1, {{"stage", fallback_stage_name(info.stage)}});
    cluster_supports_[c] = info.support;
    cluster_lambdas_[c] = info.lambda;
    cluster_stages_[c] = info.stage;
    if (report != nullptr) report->clusters.push_back(std::move(info));
  }
  if (report != nullptr) {
    report->timings.push_back({"extrapolation.support",
                               support_watch.seconds()});
  }
  fitted_ = true;
}

std::size_t ExtrapolationLevel::assign_cluster(
    std::span<const double> small_curve) const {
  HPCP_REQUIRE(fitted_, "assign before fit");
  if (obs::metrics_enabled()) {
    // Resolved once: a registry lookup takes a lock, add() does not.
    static obs::Counter& assignments =
        obs::global_metrics().counter("extrap.assign_cluster");
    assignments.add();
  }
  std::vector<double> positive(small_curve.begin(), small_curve.end());
  for (auto& v : positive) v = std::max(v, 1e-12);
  const auto shape = normalize_curve_shape(positive);
  return clustering_.assign(shape);
}

ExtrapolationLevel::CurveFit ExtrapolationLevel::fit_curve(
    std::span<const double> curve,
    std::span<const std::size_t> support) const {
  if (obs::metrics_enabled()) {
    static obs::Counter& fits =
        obs::global_metrics().counter("extrap.fit_curve");
    fits.add();
  }
  // Weighted *non-negative* least squares: basis coefficients are costs and
  // cannot be negative (an unconstrained fit lets collinear terms cancel
  // inside the small-scale range and diverge outside it), and 1/t weights
  // make the fit minimise relative error, matching how the model is judged.
  const Matrix phi = select_columns(design_, support);
  std::vector<double> weights(curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    weights[i] = 1.0 / std::max(curve[i] * curve[i], 1e-24);
  }
  const NnlsModel ls = fit_nnls(phi, curve, weights);
  CurveFit fit;
  fit.intercept = ls.intercept;
  fit.coef = ls.coef;
  fit.support.assign(support.begin(), support.end());
  return fit;
}

std::vector<std::size_t> ExtrapolationLevel::select_support_single(
    std::span<const double> curve) const {
  // Per-curve lasso over the full basis, λ by leave-largest-scale-out.
  const std::size_t k = small_scales_.size();
  const std::size_t max_support =
      opts_.max_support == 0 ? std::min<std::size_t>(3, k - 1)
                             : opts_.max_support;
  const double lmax = lasso_lambda_max(design_, curve);
  if (lmax <= 0.0) return {0};
  double best_lambda = lmax * 1e-2;
  if (k >= 3) {
    std::vector<std::size_t> fit_rows(k - 1);
    std::iota(fit_rows.begin(), fit_rows.end(), std::size_t{0});
    const Matrix phi_fit = design_.select_rows(fit_rows);
    std::vector<double> y_fit(curve.begin(), curve.end() - 1);
    const auto grid = lambda_grid(lmax, opts_.lambda_grid_size);
    std::vector<double> errs(grid.size());
    double best_err = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const auto model = fit_lasso(phi_fit, y_fit, {.lambda = grid[g]});
      const double pred = model.predict(design_.row(k - 1));
      const double rel = (pred - curve[k - 1]) / curve[k - 1];
      errs[g] = rel * rel;
      best_err = std::min(best_err, errs[g]);
    }
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (errs[g] <= best_err * (1.0 + opts_.lambda_slack)) {
        best_lambda = grid[g];
        break;
      }
    }
  }
  const auto model = fit_lasso(design_, curve, {.lambda = best_lambda});
  std::vector<std::size_t> support;
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t j = 0; j < model.coef.size(); ++j) {
    if (model.coef[j] != 0.0) scored.emplace_back(std::abs(model.coef[j]), j);
  }
  std::sort(scored.begin(), scored.end(), std::greater<>());
  if (scored.size() > max_support) scored.resize(max_support);
  for (const auto& [mag, j] : scored) support.push_back(j);
  std::sort(support.begin(), support.end());
  if (support.empty()) support.push_back(0);
  return support;
}

double ExtrapolationLevel::eval_fit(const CurveFit& fit, double p) const {
  const auto phi = basis_.eval(p);
  double acc = fit.intercept;
  for (std::size_t j = 0; j < fit.support.size(); ++j) {
    acc += fit.coef[j] * phi[fit.support[j]];
  }
  // Runtimes are positive; an extrapolated scalability model that crosses
  // zero has left its region of validity — clamp to a tiny positive floor.
  return std::max(acc, 1e-9);
}

ExtrapolationLevel::PowerLaw ExtrapolationLevel::fit_power_law(
    std::span<const double> curve) const {
  // Log–log OLS of the query curve: log t = log a + b·log p. The weakest
  // model that still extrapolates — used only when every multitask support
  // selection failed (FallbackStage::PerConfigOls).
  const std::size_t k = small_scales_.size();
  PowerLaw law;
  for (std::size_t i = 0; i < k; ++i) {
    law.mean_x += std::log(static_cast<double>(small_scales_[i]));
    law.mean_y += std::log(std::max(curve[i], 1e-12));
  }
  law.mean_x /= static_cast<double>(k);
  law.mean_y /= static_cast<double>(k);
  double var = 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double dx =
        std::log(static_cast<double>(small_scales_[i])) - law.mean_x;
    const double dy = std::log(std::max(curve[i], 1e-12)) - law.mean_y;
    var += dx * dx;
    cov += dx * dy;
  }
  law.slope = var > 0.0 ? cov / var : 0.0;
  return law;
}

double ExtrapolationLevel::eval_power_law(const PowerLaw& law, double p) {
  const double log_pred = law.mean_y + law.slope * (std::log(p) - law.mean_x);
  return std::max(std::exp(log_pred), 1e-9);
}

std::size_t ExtrapolationLevel::predict_at_scales(
    std::span<const double> small_curve, std::span<const std::size_t> scales,
    std::span<double> out) const {
  HPCP_REQUIRE(fitted_, "predict before fit");
  HPCP_REQUIRE(small_curve.size() == small_scales_.size(),
               "curve width must match small-scale count");
  HPCP_REQUIRE(out.size() == scales.size(),
               "output span must match scale count");
  // The cluster is assigned in single-task mode too: callers key their
  // calibration on it.
  const std::size_t c = assign_cluster(small_curve);
  if (opts_.multitask && cluster_stages_[c] == FallbackStage::PerConfigOls) {
    const PowerLaw law = fit_power_law(small_curve);
    for (std::size_t i = 0; i < scales.size(); ++i) {
      out[i] = eval_power_law(law, static_cast<double>(scales[i]));
    }
    return c;
  }
  const CurveFit fit =
      opts_.multitask
          ? fit_curve(small_curve, cluster_supports_[c])
          : fit_curve(small_curve, select_support_single(small_curve));
  for (std::size_t i = 0; i < scales.size(); ++i) {
    out[i] = eval_fit(fit, static_cast<double>(scales[i]));
  }
  return c;
}

std::vector<double> ExtrapolationLevel::predict(
    std::span<const double> small_curve) const {
  std::vector<double> pred(target_scales_.size());
  (void)predict_at_scales(small_curve, target_scales_, pred);
  return pred;
}

double ExtrapolationLevel::predict_at_scale(
    std::span<const double> small_curve, std::size_t nprocs) const {
  double pred = 0.0;
  (void)predict_at_scales(small_curve, {&nprocs, 1}, {&pred, 1});
  return pred;
}

std::vector<std::string> ExtrapolationLevel::support_names(
    std::size_t c) const {
  HPCP_REQUIRE(fitted_, "support_names before fit");
  HPCP_REQUIRE(c < cluster_supports_.size(), "cluster index out of range");
  std::vector<std::string> names;
  for (const std::size_t j : cluster_supports_[c]) {
    names.push_back(basis_.term_name(j));
  }
  return names;
}

FallbackStage ExtrapolationLevel::cluster_stage(std::size_t c) const {
  HPCP_REQUIRE(fitted_, "cluster_stage before fit");
  HPCP_REQUIRE(c < cluster_stages_.size(), "cluster index out of range");
  return cluster_stages_[c];
}

void ExtrapolationLevel::save(Serializer& out) const {
  out.tag("extrapolation-level");
  out.write(fitted_);
  out.write(opts_.multitask);
  out.write(opts_.max_support);
  out.write(opts_.lambda_grid_size);
  out.write(opts_.lambda_slack);
  std::vector<std::string> terms;
  for (std::size_t j = 0; j < basis_.size(); ++j) {
    terms.push_back(basis_.term_name(j));
  }
  out.write(terms);
  out.write(small_scales_);
  out.write(target_scales_);
  clustering_.centroids.save(out);
  out.write(static_cast<std::size_t>(cluster_supports_.size()));
  for (const auto& support : cluster_supports_) out.write(support);
  out.write(cluster_lambdas_);
  std::vector<std::size_t> stages;
  stages.reserve(cluster_stages_.size());
  for (const FallbackStage s : cluster_stages_) {
    stages.push_back(static_cast<std::size_t>(s));
  }
  out.write(stages);
}

ExtrapolationLevel ExtrapolationLevel::load(Deserializer& in) {
  in.expect_tag("extrapolation-level");
  ExtrapolationLevel level;
  level.fitted_ = in.read_bool();
  level.opts_.multitask = in.read_bool();
  level.opts_.max_support = in.read_size();
  level.opts_.lambda_grid_size = in.read_size();
  level.opts_.lambda_slack = in.read_double();
  level.opts_.basis_terms = in.read_strings();
  level.basis_ = ScalingBasis(level.opts_.basis_terms);
  level.small_scales_ = in.read_sizes();
  level.target_scales_ = in.read_sizes();
  level.clustering_.centroids = Matrix::load(in);
  // A support is at least its u64 count.
  level.cluster_supports_.resize(in.read_count(sizeof(std::uint64_t)));
  for (auto& support : level.cluster_supports_) {
    support = in.read_sizes();
    for (const std::size_t j : support) {
      Deserializer::check(j < level.basis_.size(),
                          "support index outside the scaling basis");
    }
  }
  level.cluster_lambdas_ = in.read_doubles();
  const auto stage_codes = in.read_sizes();
  level.cluster_stages_.reserve(stage_codes.size());
  for (const std::size_t code : stage_codes) {
    Deserializer::check(
        code <= static_cast<std::size_t>(FallbackStage::AmdahlPreset),
        "unknown fallback stage");
    level.cluster_stages_.push_back(static_cast<FallbackStage>(code));
  }
  // One centroid, support, λ and stage per cluster; a centroid is a
  // normalised small-scale curve.
  const std::size_t k = level.clustering_.k();
  Deserializer::check(level.cluster_supports_.size() == k &&
                          level.cluster_lambdas_.size() == k &&
                          level.cluster_stages_.size() == k,
                      "per-cluster lists do not match the centroid count");
  Deserializer::check(k == 0 || level.clustering_.centroids.cols() ==
                                    level.small_scales_.size(),
                      "centroid width does not match the small-scale count");
  if (level.fitted_) {
    level.design_ = level.basis_.design(level.small_scales_);
  }
  return level;
}

}  // namespace hpcp
