#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/ingest/pipeline.hpp"
#include "src/ingest/run_log.hpp"
#include "src/registry/residency.hpp"

/// \file scheduler.hpp (ingest)
/// The serving-side half of the continuous-learning loop: appends run
/// records to per-tenant logs, triggers background retrains on the shared
/// thread pool, and completes shadow-gated promotions into the registry.
///
/// Confinement mirrors ModelPool: every method runs on the serving thread.
/// The only off-thread work is the candidate *fit* (a pure function of a
/// log snapshot, submitted to the global pool with at most one in flight
/// per tenant); judging, the promote marker, the registry publish, the
/// manifest annotation, and the epoch-swap reload all happen back on the
/// serving thread inside pump()/retrain_now(), so the predict path is
/// never blocked and never races.
///
/// Trigger: a record threshold (`retrain_records` run records since the
/// last attempt). It defaults to off — an explicit {"cmd":"retrain"}
/// always works.

namespace hpcp::ingest {

struct SchedulerOptions {
  RetrainOptions retrain{};
  /// Run records since the last retrain attempt that trigger a background
  /// retrain; 0 disables the threshold trigger.
  std::size_t retrain_records = 0;
};

/// Per-tenant counters surfaced through health/stats. All counters are
/// per-process (the log itself is the durable account), which keeps
/// replayed response streams byte-identical regardless of what an earlier
/// run already appended to the same store.
struct TenantIngestStats {
  std::uint64_t appended = 0;  ///< run records appended this session
  std::uint64_t retrains = 0;  ///< attempts judged this session
  std::uint64_t promotions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t quarantined = 0;  ///< summed over this session's attempts
  std::size_t warm_scales = 0;    ///< of the last fitted candidate
  std::string last_verdict;       ///< "" until the first attempt
  std::uint64_t last_version = 0;
  std::size_t last_holdout_scale = 0;
  double last_candidate_mape = 0.0;
  double last_incumbent_mape = 0.0;
  bool in_flight = false;
};

class IngestScheduler {
 public:
  /// The pool supplies incumbents, the registry to publish into, and the
  /// epoch swap; it must outlive the scheduler.
  IngestScheduler(registry::ModelPool& pool, SchedulerOptions opts);

  /// Appends one run record to `tenant`'s log (creating it, config record
  /// first, on first use — the config derives from the tenant's resident
  /// model, so an unknown tenant cannot ingest). Returns this session's
  /// appended-record count for the ack.
  [[nodiscard]] Expected<std::uint64_t> append(const std::string& tenant,
                                               const ExecutionRecord& record);

  /// Synchronous retrain + shadow judgement + (on promotion) publish,
  /// marker, annotation, and reload. Rejected while a background retrain
  /// for the tenant is in flight.
  [[nodiscard]] Expected<ShadowOutcome> retrain_now(
      const std::string& tenant);

  /// The serving-loop pump: completes finished background fits (judging,
  /// publishing, reloading) and fires due triggers. Returns the tenants
  /// whose model was promoted (already reloaded in the pool).
  std::vector<std::string> pump();

  /// True when any tenant has a background fit in flight.
  [[nodiscard]] bool busy() const;

  [[nodiscard]] const SchedulerOptions& options() const noexcept {
    return opts_;
  }
  /// Sorted per-tenant stats (only tenants that ingested this session).
  [[nodiscard]] std::vector<std::pair<std::string, TenantIngestStats>>
  stats() const;
  /// Aggregate counters, e.g. for the health line.
  struct Totals {
    std::uint64_t appended = 0;
    std::uint64_t retrains = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rejections = 0;
    std::size_t in_flight = 0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  struct TenantState {
    RunLog log;
    TenantIngestStats stats;
    std::uint64_t runs_since_attempt = 0;
    /// Warm-start chain: the last *log-derived* promoted candidate (never
    /// the externally seeded incumbent), shared with the in-flight task.
    std::shared_ptr<const TwoLevelModel> chain;
    std::future<Expected<CandidateFit>> pending;
    std::size_t pending_records = 0;
  };

  [[nodiscard]] Expected<TenantState*> state_for(const std::string& tenant);
  /// Judges a finished fit and completes the promotion protocol.
  ShadowOutcome finish_attempt(const std::string& tenant, TenantState& state,
                               Expected<CandidateFit> fit,
                               std::size_t records);
  [[nodiscard]] Expected<void> start_background(const std::string& tenant,
                                                TenantState& state);

  registry::ModelPool& pool_;
  SchedulerOptions opts_;
  std::map<std::string, TenantState> tenants_;
};

}  // namespace hpcp::ingest
