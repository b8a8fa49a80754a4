#include "src/core/two_level_model.hpp"

#include <bit>
#include <cmath>
#include <optional>

#include "src/common/check.hpp"
#include "src/common/stats.hpp"
#include "src/obs/obs.hpp"

namespace hpcp {

void TwoLevelModel::fit(const ExtrapolationProblem& problem, Rng& rng) {
  auto result = fit_checked(problem, rng);
  if (!result) throw_error(result.error());
}

Expected<TrainReport> TwoLevelModel::fit_checked(
    const ExtrapolationProblem& problem, Rng& rng,
    const FitOptions& fit_opts) {
  const obs::Span fit_span("twolevel.fit");
  obs::count("twolevel.fits");
  const obs::Stopwatch total_watch;
  std::vector<StageTiming> timings;

  // threads == 0 → the shared hardware-sized pool; otherwise a dedicated
  // pool of exactly the requested width, torn down when the fit returns.
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = nullptr;
  if (fit_opts.threads > 0) {
    local_pool.emplace(fit_opts.threads);
    pool = &*local_pool;
  }
  const std::size_t effective_threads =
      pool != nullptr ? pool->size() : global_thread_pool().size();

  {
    const obs::Span span("twolevel.validate");
    const obs::Stopwatch watch;
    // The problem sits at the trust boundary (it is distilled from history
    // files): shape and value defects come back as typed errors, not throws.
    try {
      problem.validate();
    } catch (const std::exception& e) {
      return Error{ErrorCode::BadData, e.what(), "problem validation"};
    }
    if (problem.num_configs() == 0) {
      return Error{ErrorCode::Degenerate,
                   "no complete training configurations survived ingestion",
                   ""};
    }
    for (std::size_t r = 0; r < problem.train_configs.rows(); ++r) {
      for (std::size_t c = 0; c < problem.train_configs.cols(); ++c) {
        if (!std::isfinite(problem.train_configs(r, c))) {
          return Error{ErrorCode::BadData, "non-finite input parameter",
                       "config " + std::to_string(r) + ", param " +
                           std::to_string(c)};
        }
      }
      for (std::size_t s = 0; s < problem.train_small_times.cols(); ++s) {
        const double t = problem.train_small_times(r, s);
        if (!std::isfinite(t) || t <= 0.0) {
          return Error{ErrorCode::BadData,
                       "small-scale runtime must be finite and positive",
                       "config " + std::to_string(r) + ", scale index " +
                           std::to_string(s)};
        }
      }
    }
    timings.push_back({"twolevel.validate", watch.seconds()});
  }

  std::size_t warm_scales = 0;
  {
    const obs::Span span("interpolation.fit");
    const obs::Stopwatch watch;
    interpolation_ =
        InterpolationLevel(opts_.forest, opts_.log_interpolation_target);
    const InterpolationLevel* warm =
        fit_opts.warm_start != nullptr &&
                fit_opts.warm_start->interpolation().fitted()
            ? &fit_opts.warm_start->interpolation()
            : nullptr;
    warm_scales = interpolation_.fit(problem, rng, pool, warm);
    timings.push_back({"interpolation.fit", watch.seconds()});
  }

  // The extrapolation level learns its per-cluster scaling laws from the
  // interpolation level's *predicted* curves (paper) so that its inputs
  // have the same statistical character at training and deployment, or
  // from measured curves (ablation).
  Matrix curves;
  {
    const obs::Span span("interpolation.predict_curves");
    const obs::Stopwatch watch;
    curves = opts_.train_on_predictions
                 ? interpolation_.predict_curves(problem.train_configs)
                 : problem.train_small_times;
    timings.push_back({"interpolation.predict_curves", watch.seconds()});
  }

  {
    const obs::Span span("extrapolation.fit");
    const obs::Stopwatch watch;
    extrapolation_ = ExtrapolationLevel(opts_.extrapolation);
    extrapolation_.fit(curves, problem.small_scales, problem.target_scales,
                       rng, &train_report_, pool);
    timings.push_back({"extrapolation.fit", watch.seconds()});
  }
  calibration_log_ratios_.assign(extrapolation_.num_clusters(), {});

  // The extrapolation fit appended its sub-stage timings to the (reset)
  // report; put the outer stages first and close with the fit total.
  train_report_.threads = effective_threads;
  train_report_.warm_scales = warm_scales;
  obs::gauge_set("train.threads", static_cast<double>(effective_threads));
  timings.insert(timings.end(), train_report_.timings.begin(),
                 train_report_.timings.end());
  timings.push_back({"total", total_watch.seconds()});
  train_report_.timings = std::move(timings);
  if (obs::metrics_enabled()) {
    for (const auto& t : train_report_.timings) {
      obs::observe("twolevel.stage_seconds", t.seconds,
                   obs::default_time_bounds(), {{"stage", t.stage}});
    }
  }
  return train_report_;
}

double TwoLevelModel::calibration_factor(std::size_t cluster) const {
  if (cluster >= calibration_log_ratios_.size() ||
      calibration_log_ratios_[cluster].empty()) {
    return 1.0;
  }
  // Robust, conservative correction: the *median* log-ratio (one outlier
  // run must not swing the factor), shrunk toward no-correction while
  // observations are few — n/(n+2) weighting, i.e. one observation moves a
  // third of the way, five observations ~70%.
  const auto& ratios = calibration_log_ratios_[cluster];
  const double med = median(ratios);
  const auto n = static_cast<double>(ratios.size());
  return std::exp(med * n / (n + 2.0));
}

void TwoLevelModel::calibrate(std::span<const double> params,
                              std::size_t nprocs, double measured_runtime) {
  HPCP_REQUIRE(extrapolation_.fitted(), "calibrate before fit");
  HPCP_REQUIRE(measured_runtime > 0.0, "measured runtime must be positive");
  const auto curve = interpolation_.predict_curve(params);
  double raw = 0.0;
  const std::size_t cluster =
      extrapolation_.predict_at_scales(curve, {&nprocs, 1}, {&raw, 1});
  calibration_log_ratios_[cluster].push_back(
      std::log(measured_runtime / raw));
}

void TwoLevelModel::clear_calibration() {
  for (auto& ratios : calibration_log_ratios_) ratios.clear();
}

std::size_t TwoLevelModel::num_calibration_points() const noexcept {
  std::size_t n = 0;
  for (const auto& ratios : calibration_log_ratios_) n += ratios.size();
  return n;
}

std::vector<double> TwoLevelModel::predict_scaling_curve(
    std::span<const double> params,
    std::span<const std::size_t> scales) const {
  HPCP_REQUIRE(extrapolation_.fitted(), "predict before fit");
  const auto curve = interpolation_.predict_curve(params);
  return predict_curve_at_scales(curve, scales);
}

std::vector<double> TwoLevelModel::predict_curve_at_scales(
    std::span<const double> small_curve,
    std::span<const std::size_t> scales) const {
  HPCP_REQUIRE(extrapolation_.fitted(), "predict before fit");
  std::vector<double> out(scales.size());
  const double factor = calibration_factor(
      extrapolation_.predict_at_scales(small_curve, scales, out));
  for (auto& v : out) v = factor * v;
  return out;
}

std::vector<double> TwoLevelModel::small_scale_curve(
    std::span<const double> params,
    std::span<const double> measured_small_times) const {
  HPCP_REQUIRE(interpolation_.fitted(), "predict before fit");
  if (opts_.prefer_measured_curve && !measured_small_times.empty()) {
    HPCP_REQUIRE(measured_small_times.size() == interpolation_.num_scales(),
                 "measured curve width mismatch");
    return {measured_small_times.begin(), measured_small_times.end()};
  }
  return interpolation_.predict_curve(params);
}

std::vector<double> TwoLevelModel::predict(
    std::span<const double> params,
    std::span<const double> measured_small_times) const {
  const obs::Span span("twolevel.predict");
  obs::count("twolevel.predictions");
  const auto curve = small_scale_curve(params, measured_small_times);
  std::vector<double> pred(extrapolation_.target_scales().size());
  const double factor = calibration_factor(extrapolation_.predict_at_scales(
      curve, extrapolation_.target_scales(), pred));
  if (factor != 1.0) {
    for (auto& v : pred) v *= factor;
  }
  return pred;
}

void TwoLevelModel::save(Serializer& s) const {
  HPCP_REQUIRE(interpolation_.fitted() && extrapolation_.fitted(),
               "cannot save an unfitted model");
  s.tag("hpcpredict-two-level-v1");
  s.write(opts_.display_name);
  s.write(opts_.prefer_measured_curve);
  s.write(opts_.train_on_predictions);
  s.write(opts_.uncertainty_samples);
  s.write(opts_.interval_lo_quantile);
  s.write(opts_.interval_hi_quantile);
  interpolation_.save(s);
  extrapolation_.save(s);
  s.write(static_cast<std::size_t>(calibration_log_ratios_.size()));
  for (const auto& ratios : calibration_log_ratios_) s.write(ratios);
}

TwoLevelModel TwoLevelModel::load(Deserializer& d) {
  d.expect_tag("hpcpredict-two-level-v1");
  TwoLevelModel model;
  model.opts_.display_name = d.read_string();
  model.opts_.prefer_measured_curve = d.read_bool();
  model.opts_.train_on_predictions = d.read_bool();
  model.opts_.uncertainty_samples = d.read_size();
  model.opts_.interval_lo_quantile = d.read_double();
  model.opts_.interval_hi_quantile = d.read_double();
  model.interpolation_ = InterpolationLevel::load(d);
  model.extrapolation_ = ExtrapolationLevel::load(d);
  model.opts_.log_interpolation_target = model.interpolation_.log_target();
  model.opts_.extrapolation = model.extrapolation_.options();
  // Calibration is kept per cluster, and every list is at least its count.
  model.calibration_log_ratios_.resize(d.read_count(sizeof(std::uint64_t)));
  Deserializer::check(model.calibration_log_ratios_.size() ==
                          model.extrapolation_.num_clusters(),
                      "calibration lists do not match the cluster count");
  for (auto& ratios : model.calibration_log_ratios_) {
    ratios = d.read_doubles();
  }
  return model;
}

std::vector<PredictionInterval> TwoLevelModel::predict_with_uncertainty(
    std::span<const double> params) const {
  const obs::Span span("twolevel.predict_with_uncertainty");
  obs::count("twolevel.predictions");
  HPCP_REQUIRE(interpolation_.fitted() && extrapolation_.fitted(),
               "predict before fit");
  HPCP_REQUIRE(opts_.uncertainty_samples >= 2, "need at least 2 samples");
  HPCP_REQUIRE(opts_.interval_lo_quantile < opts_.interval_hi_quantile,
               "interval quantiles must be ordered");

  const auto stats = interpolation_.predict_curve_stats(params);
  std::vector<double> point(extrapolation_.target_scales().size());
  const double factor = calibration_factor(extrapolation_.predict_at_scales(
      stats.curve, extrapolation_.target_scales(), point));
  for (auto& v : point) v *= factor;
  const std::size_t m = opts_.uncertainty_samples;
  const std::size_t k = stats.curve.size();

  // Deterministic per input: seed the perturbations from the parameters.
  std::uint64_t h = 0x5ca1ab1e;
  for (const double v : params) {
    h ^= std::bit_cast<std::uint64_t>(v);
    (void)splitmix64(h);
  }
  Rng rng(h);

  // Sample perturbed curves consistent with the forests' ensemble spread
  // and refit each; the spread of the refits is the model uncertainty.
  std::vector<std::vector<double>> samples(point.size());
  std::vector<double> curve(k);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < k; ++i) {
      curve[i] =
          stats.curve[i] * std::exp(rng.normal(0.0, stats.log_spread[i]));
    }
    const auto pred = extrapolation_.predict(curve);
    for (std::size_t t = 0; t < pred.size(); ++t) {
      samples[t].push_back(factor * pred[t]);
    }
  }

  std::vector<PredictionInterval> out(point.size());
  for (std::size_t t = 0; t < point.size(); ++t) {
    out[t].value = point[t];
    out[t].lower = quantile(samples[t], opts_.interval_lo_quantile);
    out[t].upper = quantile(samples[t], opts_.interval_hi_quantile);
    // The point prediction (from the unperturbed curve) belongs inside its
    // own interval even if the sampled quantiles land slightly off-centre.
    out[t].lower = std::min(out[t].lower, point[t]);
    out[t].upper = std::max(out[t].upper, point[t]);
  }
  return out;
}

}  // namespace hpcp
