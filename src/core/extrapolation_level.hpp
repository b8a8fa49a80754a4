#pragma once

#include <span>
#include <vector>

#include "src/cluster/kmeans.hpp"
#include "src/common/rng.hpp"
#include "src/core/scaling_basis.hpp"
#include "src/core/train_report.hpp"
#include "src/linear/matrix.hpp"

/// \file extrapolation_level.hpp
/// The paper's extrapolation level: per-cluster scalability models built
/// with the multitask lasso, trained from small-scale data only.
///
/// For a fixed configuration, runtime as a function of scale is modelled as
/// an intercept plus a sparse combination of scaling basis terms
/// (see scaling_basis.hpp). The regression's *samples* are the small
/// scales, its *tasks* are the configurations: one multitask lasso per
/// cluster selects, via the ℓ2,1 penalty, a single sparse set of basis
/// terms shared by every configuration in the cluster — the cluster's
/// scaling law. Sharing the functional form across many configurations is
/// what damps per-configuration interpolation noise: a noisy curve cannot
/// drag in a spurious basis term on its own.
///
/// Clustering (k-means on log-normalised curve shapes) exists because one
/// global scaling law cannot fit both compute-bound and communication-bound
/// regions of the parameter space.
///
/// Prediction for a new configuration: assign its (predicted) small-scale
/// curve to the nearest cluster, least-squares-fit the curve on that
/// cluster's selected basis terms, and evaluate the fitted scalability
/// model at the target scales.

namespace hpcp {

struct ExtrapolationLevelOptions {
  /// 0 = choose the cluster count automatically by silhouette score.
  std::size_t num_clusters = 0;
  std::size_t max_clusters = 6;
  /// k is reduced until every cluster has at least this many configurations
  /// (a cluster needs enough tasks for a stable shared support).
  std::size_t min_cluster_size = 8;
  /// false = no shared support: each configuration's curve is fitted
  /// independently by a single-task lasso at prediction time (the ablation
  /// and the per-configuration curve-fitting baseline).
  bool multitask = true;
  /// Upper bound on the shared-support size; 0 = min(3, |small scales|−1)
  /// (keeps the prediction-time least-squares fit overdetermined and the
  /// scaling law parsimonious).
  std::size_t max_support = 0;
  std::size_t lambda_grid_size = 25;
  /// One-standard-error-style rule: among λ whose leave-largest-scale-out
  /// error is within (1 + slack) of the best, pick the *largest* λ (the
  /// sparsest scaling law). Guards the extrapolation against marginal
  /// growing terms that happen to fit interpolation noise.
  double lambda_slack = 0.15;
  /// Scaling-basis terms to fit over; empty = ScalingBasis defaults.
  std::vector<std::string> basis_terms{};
};

class ExtrapolationLevel {
 public:
  ExtrapolationLevel() = default;
  explicit ExtrapolationLevel(ExtrapolationLevelOptions opts)
      : opts_(std::move(opts)),
        basis_(opts_.basis_terms.empty()
                   ? ScalingBasis()
                   : ScalingBasis(opts_.basis_terms)) {}

  /// Fit from training curves (rows = configurations, columns = small
  /// scales, all positive). Requires at least 2 small scales.
  ///
  /// Each cluster walks the FallbackStage chain (cluster multitask →
  /// pooled multitask → per-config log–log OLS → Amdahl preset) instead of
  /// failing when its multitask lasso is unusable; pass `report` to learn
  /// which stage each cluster landed on and why.
  ///
  /// Parallelism & determinism: the per-cluster support selections (and the
  /// λ-grid search inside each) batch over `pool` (nullptr = the global
  /// pool). Every attempt lands in a cluster-indexed slot and the fallback
  /// ladder is resolved serially in cluster order afterwards, so the fitted
  /// level — supports, λs, stages, report entries — is bitwise identical to
  /// a serial fit for any pool size. All Rng draws (clustering) happen on
  /// the calling thread before any parallel work.
  void fit(const Matrix& small_times,
           std::span<const std::size_t> small_scales,
           std::span<const std::size_t> target_scales, Rng& rng,
           TrainReport* report = nullptr, ThreadPool* pool = nullptr);

  /// Predicted target-scale runtimes for one small-scale curve.
  [[nodiscard]] std::vector<double> predict(
      std::span<const double> small_curve) const;

  /// Fitted scalability curve evaluated at an arbitrary scale (useful for
  /// plotting whole speedup curves).
  [[nodiscard]] double predict_at_scale(std::span<const double> small_curve,
                                        std::size_t nprocs) const;

  /// One curve's predicted runtimes at every scale in `scales` (any order,
  /// repeats allowed) into `out` (same length); returns the curve's
  /// cluster. One cluster assignment, one fallback-rung resolution and
  /// one curve fit serve every scale, so out[i] is bitwise equal to
  /// predict_at_scale(small_curve, scales[i]). predict and
  /// predict_at_scale are this call at the target scales and at one scale.
  std::size_t predict_at_scales(std::span<const double> small_curve,
                                std::span<const std::size_t> scales,
                                std::span<double> out) const;

  /// Cluster a curve would be assigned to.
  [[nodiscard]] std::size_t assign_cluster(
      std::span<const double> small_curve) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return clustering_.k();
  }
  [[nodiscard]] const KMeansResult& clustering() const noexcept {
    return clustering_;
  }
  /// Names of the basis terms in cluster c's shared support.
  [[nodiscard]] std::vector<std::string> support_names(std::size_t c) const;
  /// Fallback stage cluster c's scaling law was trained with.
  [[nodiscard]] FallbackStage cluster_stage(std::size_t c) const;
  [[nodiscard]] const ExtrapolationLevelOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const ScalingBasis& basis() const noexcept { return basis_; }
  [[nodiscard]] const std::vector<std::size_t>& small_scales() const noexcept {
    return small_scales_;
  }
  [[nodiscard]] const std::vector<std::size_t>& target_scales()
      const noexcept {
    return target_scales_;
  }

  /// Serialization of the fitted level (clustering centroids, supports,
  /// options relevant to prediction).
  void save(Serializer& out) const;
  [[nodiscard]] static ExtrapolationLevel load(Deserializer& in);

 private:
  struct CurveFit {
    double intercept = 0.0;
    std::vector<double> coef;          ///< over the support terms
    std::vector<std::size_t> support;  ///< basis-term indices
  };

  /// Least-squares fit of one curve restricted to a support set.
  [[nodiscard]] CurveFit fit_curve(std::span<const double> curve,
                                   std::span<const std::size_t> support) const;

  /// Single-task path: per-curve lasso support selection.
  [[nodiscard]] std::vector<std::size_t> select_support_single(
      std::span<const double> curve) const;

  [[nodiscard]] double eval_fit(const CurveFit& fit, double p) const;

  /// PerConfigOls fallback: log–log power law t ≈ a·p^b of one curve,
  /// kept as the least-squares line through (log p, log t).
  struct PowerLaw {
    double mean_x = 0.0;  ///< mean log scale
    double mean_y = 0.0;  ///< mean log runtime
    double slope = 0.0;   ///< b
  };
  [[nodiscard]] PowerLaw fit_power_law(std::span<const double> curve) const;
  [[nodiscard]] static double eval_power_law(const PowerLaw& law, double p);

  ExtrapolationLevelOptions opts_{};
  ScalingBasis basis_{};
  bool fitted_ = false;
  std::vector<std::size_t> small_scales_;
  std::vector<std::size_t> target_scales_;
  Matrix design_;  ///< |small scales| × |basis|
  KMeansResult clustering_;
  std::vector<std::vector<std::size_t>> cluster_supports_;
  std::vector<double> cluster_lambdas_;  ///< chosen λ per cluster (diagnostic)
  /// Which rung of the degradation ladder each cluster trained on. Empty
  /// supports are only legal for PerConfigOls (support chosen per query).
  std::vector<FallbackStage> cluster_stages_;
};

}  // namespace hpcp
