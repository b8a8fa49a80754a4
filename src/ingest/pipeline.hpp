#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "src/common/error.hpp"
#include "src/core/two_level_model.hpp"
#include "src/data/validation.hpp"
#include "src/ingest/run_log.hpp"

/// \file pipeline.hpp (ingest)
/// The deterministic half of the continuous-learning loop: everything
/// between "here are the log entries" and "here is the candidate model and
/// its shadow verdict" is a pure function, so the served model can be
/// rebuilt bit-for-bit from the log alone (`replay_log`), at any thread
/// count — the serving layer only adds *when* retrains happen and *which*
/// incumbent the candidate shadows.
///
/// Retrain recipe (fit_candidate):
///   1. run records (the first `records` of them) → HistoryStore with the
///      config record's parameter names;
///   2. validate_history quarantines the semantically bad records;
///   3. leave-largest-scale-out: the largest surviving scale becomes the
///      holdout, the rest train the candidate (so the shadow comparison
///      happens on measurements the candidate never saw);
///   4. the fit seeds from (tenant, records) and optionally warm-starts
///      from the previous promoted candidate's forest structure.
///
/// Shadow gate (judge_candidate): candidate and incumbent both predict the
/// holdout scale through predict_scaling_curve; the candidate is promoted
/// only when its holdout MAPE is strictly better — a tie keeps the
/// incumbent. With no usable incumbent the candidate bootstraps the tenant
/// ("no-incumbent"). Every attempt yields a PromoteRecord for the log.
///
/// Warm-start chain: candidates warm-start strictly from the *previous
/// log-derived promoted candidate* (the chain replay_log reconstructs),
/// never from an externally seeded incumbent — otherwise a rebuild from
/// the log could not reproduce the served bytes.

namespace hpcp::ingest {

/// Statistical and execution options of a retrain; one value of this
/// must be shared by the live scheduler and any replay for byte-identity.
struct RetrainOptions {
  TwoLevelOptions model{};         ///< candidate model options
  ValidationOptions validation{};  ///< quarantine policy
  std::size_t threads = 0;         ///< fit width (result is bitwise
                                   ///< identical for every value)
};

/// Deterministic fit seed: a pure hash of (tenant, records).
[[nodiscard]] std::uint64_t retrain_seed(const std::string& tenant,
                                         std::uint64_t records);

/// A fitted candidate plus the held-out slice it must be judged on.
struct CandidateFit {
  TwoLevelModel model;
  std::size_t consumed = 0;     ///< run records consumed from the log
  std::size_t quarantined = 0;  ///< records the validation layer removed
  std::size_t warm_scales = 0;  ///< forests that took the warm path
  std::size_t holdout_scale = 0;
  Matrix holdout_configs;             ///< rows complete at every scale
  std::vector<double> holdout_times;  ///< measured mean runtime per row
};

/// Trains a candidate on the first `records` run records of `entries`
/// (SIZE_MAX = all). Degenerate when the log has no config record, too few
/// distinct scales (< 3: training needs at least two plus the holdout), or
/// nothing survives quarantine.
[[nodiscard]] Expected<CandidateFit> fit_candidate(
    std::span<const LogEntry> entries, std::size_t records,
    const std::string& tenant, const TwoLevelModel* warm_start,
    const RetrainOptions& opts);

/// Mean absolute percentage error of `model` on the holdout slice.
[[nodiscard]] double holdout_mape(const TwoLevelModel& model,
                                  const Matrix& configs,
                                  std::span<const double> actual,
                                  std::size_t scale);

/// One retrain attempt end to end: fit + shadow comparison + verdict.
struct ShadowOutcome {
  PromoteRecord marker;   ///< log record of the attempt (version still 0 —
                          ///< the caller fills it in after publishing)
  bool promoted = false;  ///< candidate won (or bootstrapped) the gate
  std::size_t quarantined = 0;
  std::size_t warm_scales = 0;
  std::optional<TwoLevelModel> candidate;  ///< present when a fit succeeded
};

/// The judging half of a retrain: the background scheduler runs
/// fit_candidate off-thread and judges at completion time, so the
/// comparison always shadows the incumbent actually live at promotion
/// time. `records_attempted` labels the marker when the fit itself failed.
/// Never fails: fit errors become verdicts ("insufficient-data",
/// "fit-error") with promoted == false, because a bad batch of site data
/// must degrade one retrain, not the serving loop.
[[nodiscard]] ShadowOutcome judge_candidate(Expected<CandidateFit> fit,
                                            std::size_t records_attempted,
                                            const TwoLevelModel* incumbent);

/// The final promoted model reconstructed purely from the log.
struct ReplayResult {
  TwoLevelModel model;
  std::uint64_t version = 0;   ///< registry version of the last promotion
  std::size_t promotions = 0;  ///< promote markers with version > 0
  std::size_t rejections = 0;  ///< promote markers with version == 0
};

/// Folds over the promote markers: at each promoted marker the candidate
/// is refitted from the marker's log prefix (warm-started from the
/// previous link of the chain) and adopted. Degenerate when the log holds
/// no promotion yet; an error refitting at a marker propagates (the log
/// no longer supports its own markers — corruption, not a data fault).
[[nodiscard]] Expected<ReplayResult> replay_log(
    std::span<const LogEntry> entries, const std::string& tenant,
    const RetrainOptions& opts);

}  // namespace hpcp::ingest
