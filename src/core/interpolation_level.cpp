#include "src/core/interpolation_level.hpp"

#include <cmath>

#include "src/common/check.hpp"
#include "src/obs/obs.hpp"

namespace hpcp {

std::size_t InterpolationLevel::fit(const ExtrapolationProblem& problem,
                                    Rng& rng, ThreadPool* pool,
                                    const InterpolationLevel* warm) {
  const obs::Span span("interp.fit");
  problem.validate();
  scales_ = problem.small_scales;
  forests_.assign(scales_.size(), RandomForest(forest_options_));

  // A warm source is usable only when it models the exact same scale set
  // with the same feature width — otherwise per-scale structures would be
  // paired with the wrong data and the whole fit goes cold.
  const bool warm_usable =
      warm != nullptr && warm->fitted() && warm->scales_ == scales_ &&
      warm->num_features() == problem.train_configs.cols();

  // One anchor draw from the caller's stream, then a scale-derived (not
  // order-derived) seed per forest: scale s mixes (anchor, scale value, s)
  // through splitmix64, so its randomness is fixed before any fit starts
  // and identical under any scheduling of the fits below.
  const std::uint64_t anchor = rng.next();
  std::vector<Rng> scale_rngs;
  scale_rngs.reserve(scales_.size());
  for (std::size_t s = 0; s < scales_.size(); ++s) {
    std::uint64_t state =
        anchor + 0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(scales_[s]) + 1);
    (void)splitmix64(state);
    state ^= static_cast<std::uint64_t>(s);
    scale_rngs.emplace_back(splitmix64(state));
  }

  std::vector<char> warm_hits(scales_.size(), 0);
  const auto fit_scale = [&](std::size_t s) {
    const obs::Span scale_span("interp.fit_scale");
    auto y = problem.train_small_times.column(s);
    if (log_target_) {
      for (auto& v : y) {
        HPCP_REQUIRE(v > 0.0, "runtimes must be positive");
        v = std::log(v);
      }
    }
    if (warm_usable &&
        forests_[s].warm_fit(warm->forests_[s], problem.train_configs, y,
                             pool)) {
      warm_hits[s] = 1;
      return;
    }
    forests_[s].fit(problem.train_configs, y, scale_rngs[s], pool);
  };

  // Fan-out policy: with more workers than scales, keep the outer loop
  // serial so each forest spreads its trees across the whole pool; with
  // few workers, fan out over scales (tree fits then run inline on the
  // worker). The per-scale seeds above make both branches bitwise equal.
  if (parallel_width(pool) > scales_.size()) {
    for (std::size_t s = 0; s < scales_.size(); ++s) fit_scale(s);
  } else {
    parallel_for(scales_.size(), fit_scale, pool);
  }
  std::size_t warm_scales = 0;
  for (const char hit : warm_hits) warm_scales += hit != 0 ? 1 : 0;
  return warm_scales;
}

std::vector<double> InterpolationLevel::predict_curve(
    std::span<const double> params) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  std::vector<double> curve(forests_.size());
  for (std::size_t s = 0; s < forests_.size(); ++s) {
    const double raw = forests_[s].predict(params);
    curve[s] = log_target_ ? std::exp(raw) : raw;
  }
  return curve;
}

InterpolationLevel::CurveWithSpread InterpolationLevel::predict_curve_stats(
    std::span<const double> params) const {
  HPCP_REQUIRE(fitted(), "predict before fit");
  CurveWithSpread out;
  out.curve.resize(forests_.size());
  out.log_spread.resize(forests_.size());
  for (std::size_t s = 0; s < forests_.size(); ++s) {
    const auto stats = forests_[s].predict_stats(params);
    if (log_target_) {
      out.curve[s] = std::exp(stats.mean);
      out.log_spread[s] = stats.stddev;
    } else {
      out.curve[s] = stats.mean;
      // Convert the absolute ensemble spread to a relative (log) spread.
      out.log_spread[s] =
          stats.mean > 0.0 ? stats.stddev / stats.mean : 0.0;
    }
  }
  return out;
}

Matrix InterpolationLevel::predict_curves(const Matrix& configs) const {
  const obs::Span span("interp.predict_curves");
  obs::count("interp.curve_rows", configs.rows());
  HPCP_REQUIRE(fitted(), "predict before fit");
  // One batched FlatForest pass per scale instead of a scalar tree walk per
  // (configuration, scale) — the hot path of every experiment driver.
  Matrix out(configs.rows(), forests_.size());
  for (std::size_t s = 0; s < forests_.size(); ++s) {
    const auto col = forests_[s].predict(configs);
    for (std::size_t r = 0; r < configs.rows(); ++r) {
      out(r, s) = log_target_ ? std::exp(col[r]) : col[r];
    }
  }
  return out;
}

void InterpolationLevel::save(Serializer& out) const {
  out.tag("interpolation-level");
  out.write(log_target_);
  out.write(scales_);
  out.write(static_cast<std::size_t>(forests_.size()));
  for (const auto& forest : forests_) forest.save(out);
}

InterpolationLevel InterpolationLevel::load(Deserializer& in) {
  in.expect_tag("interpolation-level");
  InterpolationLevel level;
  level.log_target_ = in.read_bool();
  level.scales_ = in.read_sizes();
  // A forest is at least its tag, feature count, OOB pair and tree count.
  level.forests_.resize(in.read_count(5 * sizeof(std::uint64_t)));
  Deserializer::check(level.forests_.size() == level.scales_.size(),
                      "forest count does not match the scale count");
  for (auto& forest : level.forests_) {
    forest = RandomForest::load(in);
    // num_features() is the first forest's count; every forest is walked
    // with a row of that width.
    Deserializer::check(
        forest.num_features() == level.forests_.front().num_features(),
        "forests disagree on the feature count");
  }
  return level;
}

}  // namespace hpcp
