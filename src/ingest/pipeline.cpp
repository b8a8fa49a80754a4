#include "src/ingest/pipeline.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "src/common/rng.hpp"
#include "src/core/problem.hpp"
#include "src/obs/obs.hpp"

namespace hpcp::ingest {

namespace {

const ConfigRecord* find_config(std::span<const LogEntry> entries) {
  for (const auto& entry : entries) {
    if (entry.kind == LogEntry::Kind::kConfig) return &entry.config;
  }
  return nullptr;
}

}  // namespace

std::uint64_t retrain_seed(const std::string& tenant,
                           std::uint64_t records) {
  // A pure hash of (tenant, records): the same retrain point in the log
  // always fits with the same randomness, which is half of the replay
  // byte-identity contract (the other half is the thread-invariant fit).
  std::uint64_t state = 0x1095ead5c0f1ab1eULL ^ records;
  for (const unsigned char c : tenant) {
    state ^= c;
    (void)splitmix64(state);
  }
  state ^= records * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

Expected<CandidateFit> fit_candidate(std::span<const LogEntry> entries,
                                     std::size_t records,
                                     const std::string& tenant,
                                     const TwoLevelModel* warm_start,
                                     const RetrainOptions& opts) {
  const obs::Span span("ingest.fit_candidate");
  const ConfigRecord* config = find_config(entries);
  if (config == nullptr) {
    return Error{ErrorCode::Degenerate, "ingest log has no config record",
                 tenant};
  }
  HistoryStore store(tenant, config->param_names);
  std::size_t consumed = 0;
  std::size_t structural_drops = 0;
  for (const auto& entry : entries) {
    if (entry.kind != LogEntry::Kind::kRun) continue;
    if (consumed >= records) break;
    ++consumed;
    // A run record of the wrong parameter width cannot be represented in
    // the store at all; drop it here and account for it alongside the
    // quarantine (everything else the validation layer judges).
    if (entry.run.params.size() != config->param_names.size()) {
      ++structural_drops;
      continue;
    }
    store.append_unchecked(entry.run);
  }
  if (store.size() == 0) {
    return Error{ErrorCode::Degenerate,
                 "no representable run records in the ingest log", tenant};
  }
  auto validated = validate_history(store, opts.validation);
  if (!validated) return validated.error();
  const auto scales = validated.value().store.scales();
  if (scales.size() < 3) {
    return Error{ErrorCode::Degenerate,
                 "need at least 3 distinct scales (2 to train + 1 holdout)",
                 tenant};
  }

  CandidateFit out;
  out.consumed = consumed;
  out.quarantined =
      validated.value().report.num_quarantined() + structural_drops;
  out.holdout_scale = scales.back();

  // The holdout slice: configurations measured at *every* surviving scale
  // (repeats averaged), judged at the largest one — which the candidate
  // below never trains on.
  const auto table = build_scaling_table(validated.value().store, scales);
  if (table.size() == 0) {
    return Error{ErrorCode::Degenerate,
                 "no configuration covers every scale", tenant};
  }
  out.holdout_configs = table.configs;
  out.holdout_times = table.times.column(scales.size() - 1);

  const std::vector<std::size_t> train_scales(scales.begin(),
                                              scales.end() - 1);
  try {
    const auto problem = make_problem(validated.value().store, train_scales,
                                      config->target_scales);
    TwoLevelModel candidate(opts.model);
    Rng rng(retrain_seed(tenant, consumed));
    TwoLevelFitOptions fit_opts;
    fit_opts.threads = opts.threads;
    fit_opts.warm_start = warm_start;
    auto report = candidate.fit_checked(problem, rng, fit_opts);
    if (!report) return report.error();
    out.warm_scales = report.value().warm_scales;
    out.model = std::move(candidate);
  } catch (const std::exception& e) {
    return Error{ErrorCode::BadData, e.what(), tenant};
  }
  return out;
}

double holdout_mape(const TwoLevelModel& model, const Matrix& configs,
                    std::span<const double> actual, std::size_t scale) {
  const std::size_t scales[1] = {scale};
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < configs.rows(); ++r) {
    if (actual[r] <= 0.0) continue;
    const double pred =
        model.predict_scaling_curve(configs.row(r), scales)[0];
    sum += std::abs(pred - actual[r]) / actual[r];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n)
               : std::numeric_limits<double>::infinity();
}

ShadowOutcome judge_candidate(Expected<CandidateFit> fit,
                              std::size_t records_attempted,
                              const TwoLevelModel* incumbent) {
  const obs::Span span("ingest.judge");
  obs::count("ingest.retrains");
  ShadowOutcome out;
  out.marker.records = records_attempted;

  if (!fit) {
    out.marker.verdict = fit.error().code == ErrorCode::Degenerate
                             ? "insufficient-data"
                             : "fit-error";
    return out;
  }
  CandidateFit& cand = fit.value();
  out.marker.records = cand.consumed;
  out.marker.holdout_scale = cand.holdout_scale;
  out.quarantined = cand.quarantined;
  out.warm_scales = cand.warm_scales;
  out.marker.candidate_mape =
      holdout_mape(cand.model, cand.holdout_configs, cand.holdout_times,
                   cand.holdout_scale);

  // The incumbent shadows the exact same held-out slice. An incumbent that
  // cannot judge it (wrong feature width, unfitted, a throwing predict)
  // cannot gate anything either: the candidate bootstraps the tenant.
  bool have_incumbent = false;
  if (incumbent != nullptr && incumbent->interpolation().fitted() &&
      incumbent->interpolation().num_features() ==
          cand.holdout_configs.cols()) {
    try {
      out.marker.incumbent_mape =
          holdout_mape(*incumbent, cand.holdout_configs, cand.holdout_times,
                       cand.holdout_scale);
      have_incumbent = true;
    } catch (const std::exception&) {
      have_incumbent = false;
    }
  }
  if (have_incumbent) {
    // Strictly better or the incumbent stays — a tie (and a NaN) is a loss.
    out.promoted = out.marker.candidate_mape < out.marker.incumbent_mape;
    out.marker.verdict = out.promoted ? "promoted" : "rejected";
  } else {
    out.marker.incumbent_mape = 0.0;
    out.promoted = true;
    out.marker.verdict = "no-incumbent";
  }
  out.candidate = std::move(cand.model);
  obs::count(out.promoted ? "ingest.promotions" : "ingest.rejections");
  return out;
}

Expected<ReplayResult> replay_log(std::span<const LogEntry> entries,
                                  const std::string& tenant,
                                  const RetrainOptions& opts) {
  const obs::Span span("ingest.replay");
  ReplayResult out;
  std::optional<TwoLevelModel> chain;
  for (const auto& entry : entries) {
    if (entry.kind != LogEntry::Kind::kPromote) continue;
    if (entry.promote.version == 0) {
      ++out.rejections;
      continue;
    }
    // Refit the candidate exactly as the live scheduler did: same log
    // prefix, same seed, warm-started from the previous link of the chain.
    auto fit = fit_candidate(entries, entry.promote.records, tenant,
                             chain ? &*chain : nullptr, opts);
    if (!fit) return fit.error();
    chain = std::move(fit.value().model);
    out.version = entry.promote.version;
    ++out.promotions;
  }
  if (!chain) {
    return Error{ErrorCode::Degenerate,
                 "ingest log holds no promoted retrain", tenant};
  }
  out.model = std::move(*chain);
  return out;
}

}  // namespace hpcp::ingest
