#pragma once

#include <string>

#include "src/common/error.hpp"
#include "src/core/extrapolation_level.hpp"
#include "src/core/extrapolation_model.hpp"
#include "src/core/interpolation_level.hpp"
#include "src/core/train_report.hpp"

/// \file two_level_model.hpp
/// The paper's contribution: the two-level performance-extrapolation model.
///
/// Level 1 (interpolation) — one random forest per small scale predicts a
/// configuration's small-scale runtimes from its input parameters.
/// Level 2 (extrapolation) — per-cluster multitask-lasso scalability models
/// map the small-scale runtime curve to the target-scale runtimes.
///
/// The extrapolation level is trained on the interpolation level's
/// *predictions* for the training configurations (not on their measured
/// small-scale runtimes), so the statistical character of its inputs is the
/// same at training and deployment — the paper's stated defence against
/// interpolation error. Both that choice and the curve source at prediction
/// time are configurable for ablation.

namespace hpcp {

struct TwoLevelOptions {
  ForestOptions forest{};
  /// Fit the interpolation forests on log-runtime (recommended; see
  /// InterpolationLevel).
  bool log_interpolation_target = true;
  ExtrapolationLevelOptions extrapolation{};
  /// Train level 2 on level-1 predictions (paper) or measured small-scale
  /// runtimes (ablation).
  bool train_on_predictions = true;
  /// At prediction time, use the configuration's measured small-scale
  /// runtimes when the caller supplies them instead of level-1 predictions.
  bool prefer_measured_curve = false;
  /// Monte-Carlo samples for predict_with_uncertainty.
  std::size_t uncertainty_samples = 64;
  /// Quantiles of the sampled predictions reported as the interval.
  double interval_lo_quantile = 0.05;
  double interval_hi_quantile = 0.95;
  std::string display_name = "two-level";
};

/// A point prediction with a model-uncertainty interval.
struct PredictionInterval {
  double value = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

/// Execution options for TwoLevelModel::fit_checked — orthogonal to the
/// statistical options in TwoLevelOptions. `threads == 0` runs the parallel
/// fit stages on the process-global pool (sized to the hardware);
/// `threads >= 1` builds a dedicated pool of exactly that size for the
/// fit. The fitted model is bitwise identical for every setting (see
/// DESIGN.md, "Parallel training & determinism contract").
class TwoLevelModel;

struct TwoLevelFitOptions {
  std::size_t threads = 0;
  /// Warm-start source for the interpolation forests: when it matches the
  /// problem (same small scales, feature width, and tree count) each
  /// scale's forest reuses the prior split structure and only recomputes
  /// node values (RandomForest::warm_fit); mismatched or stale scales fall
  /// back to a cold fit. The extrapolation level always refits from
  /// scratch. Must outlive the fit call; nullptr = fully cold fit.
  const TwoLevelModel* warm_start = nullptr;
};

class TwoLevelModel final : public ExtrapolationModel {
 public:
  TwoLevelModel() = default;
  explicit TwoLevelModel(TwoLevelOptions opts) : opts_(std::move(opts)) {}

  [[nodiscard]] std::string name() const override {
    return opts_.display_name;
  }

  using FitOptions = TwoLevelFitOptions;

  /// Throwing wrapper over fit_checked (ExtrapolationModel contract).
  void fit(const ExtrapolationProblem& problem, Rng& rng) override;

  /// Fit without throwing on bad *data*: returns BadData for non-finite
  /// parameters or non-positive small-scale runtimes, Degenerate when no
  /// training configurations survive, and otherwise a TrainReport saying
  /// which fallback stage every scaling-behaviour cluster landed on.
  /// Programming errors (shape mismatches between already-validated
  /// members) still assert.
  [[nodiscard]] Expected<TrainReport> fit_checked(
      const ExtrapolationProblem& problem, Rng& rng,
      const FitOptions& fit_opts = {});

  /// Training account of the last successful fit (default-constructed
  /// before any fit; not persisted by save/load).
  [[nodiscard]] const TrainReport& train_report() const noexcept {
    return train_report_;
  }

  using ExtrapolationModel::predict;
  [[nodiscard]] std::vector<double> predict(
      std::span<const double> params,
      std::span<const double> measured_small_times) const override;

  /// Point predictions with model-uncertainty intervals, one per target
  /// scale. The interpolation forests' ensemble spread (a log-space σ per
  /// small scale) is propagated through the scalability fit by Monte
  /// Carlo: perturbed curves are refitted and the configured quantiles of
  /// the resulting target predictions form the interval. Deterministic
  /// given the model and input. Captures *model* uncertainty only — the
  /// platform's run-to-run noise is on top.
  [[nodiscard]] std::vector<PredictionInterval> predict_with_uncertainty(
      std::span<const double> params) const;

  /// The small-scale curve the model would use for this input (level-1
  /// predictions, or the measured curve when preferred and available).
  [[nodiscard]] std::vector<double> small_scale_curve(
      std::span<const double> params,
      std::span<const double> measured_small_times) const;

  /// Fitted scalability curve of a configuration evaluated at arbitrary
  /// scales (not just the configured targets) — for plotting speedup
  /// curves or sweeping candidate job widths. Calibration is applied.
  [[nodiscard]] std::vector<double> predict_scaling_curve(
      std::span<const double> params,
      std::span<const std::size_t> scales) const;

  /// Level-2 half of predict_scaling_curve for an *already predicted*
  /// small-scale curve: cluster assignment, calibration, and the fitted
  /// scalability model evaluated at `scales` — one assignment and one
  /// curve fit for all of them (ExtrapolationLevel::predict_at_scales),
  /// the assigned cluster also keying the calibration. The prediction
  /// server's batched hot path obtains many curves in one
  /// InterpolationLevel::predict_curves call and finishes each row here;
  /// predict_scaling_curve(params, scales) is bitwise-equal to
  /// predict_curve_at_scales(predict_curve(params), scales).
  [[nodiscard]] std::vector<double> predict_curve_at_scales(
      std::span<const double> small_curve,
      std::span<const std::size_t> scales) const;

  /// Few-shot calibration: fold a *measured* large-scale run back into the
  /// model. Ratios between measurement and (uncalibrated) prediction are
  /// pooled per scaling-behaviour cluster, and predictions for that
  /// cluster are rescaled by the geometric-mean ratio. This is the cheap
  /// online fix for systematic bias the small-scale window cannot reveal
  /// (e.g. communication terms that only dominate beyond it): one or two
  /// production runs recalibrate all future predictions in the same
  /// regime.
  void calibrate(std::span<const double> params, std::size_t nprocs,
                 double measured_runtime);

  /// Drop all calibration observations.
  void clear_calibration();
  [[nodiscard]] std::size_t num_calibration_points() const noexcept;

  [[nodiscard]] const InterpolationLevel& interpolation() const noexcept {
    return interpolation_;
  }
  [[nodiscard]] const ExtrapolationLevel& extrapolation() const noexcept {
    return extrapolation_;
  }
  [[nodiscard]] const TwoLevelOptions& options() const noexcept {
    return opts_;
  }

  /// Persist the fitted model ("train once, predict later"). The model
  /// carries everything the prediction path needs — forests, clustering,
  /// scaling-law supports, calibration — but not fit-time options. Files
  /// are `.hpcp` archives: registry::write_model_archive and
  /// registry::load_model_any (src/registry/archive.hpp) wrap these.
  void save(Serializer& s) const;
  [[nodiscard]] static TwoLevelModel load(Deserializer& d);

 private:
  /// The parity tests compute the per-scale reference with the private
  /// calibration_factor.
  friend struct TwoLevelModelTestPeer;

  /// Multiplicative correction for one cluster (1.0 when uncalibrated).
  [[nodiscard]] double calibration_factor(std::size_t cluster) const;

  TwoLevelOptions opts_{};
  InterpolationLevel interpolation_;
  ExtrapolationLevel extrapolation_;
  TrainReport train_report_;
  /// Per-cluster log-ratios log(measured / predicted) from calibrate().
  std::vector<std::vector<double>> calibration_log_ratios_;
};

}  // namespace hpcp
