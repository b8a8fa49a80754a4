#include "src/ingest/scheduler.hpp"

#include <chrono>
#include <utility>

#include "src/common/thread_pool.hpp"
#include "src/obs/obs.hpp"

namespace hpcp::ingest {

IngestScheduler::IngestScheduler(registry::ModelPool& pool,
                                 SchedulerOptions opts)
    : pool_(pool), opts_(std::move(opts)) {}

Expected<IngestScheduler::TenantState*> IngestScheduler::state_for(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return &it->second;

  // First touch: the config record (parameter width + target scales)
  // derives from the tenant's resident model, so ingesting requires a
  // model to improve on — an unknown tenant is a typed error, not a
  // silently growing orphan log.
  auto resident = pool_.acquire(tenant);
  if (!resident) return resident.error();

  auto log = RunLog::open(pool_.registry().root(), tenant);
  if (!log) return log.error();

  auto existing = RunLog::read_file(log.value().path());
  if (!existing) return existing.error();
  const bool has_config = [&] {
    for (const auto& entry : existing.value().entries) {
      if (entry.kind == LogEntry::Kind::kConfig) return true;
    }
    return false;
  }();
  if (!has_config) {
    LogEntry config;
    config.kind = LogEntry::Kind::kConfig;
    for (std::size_t i = 0; i < resident.value()->num_features; ++i) {
      config.config.param_names.push_back("p" + std::to_string(i));
    }
    config.config.target_scales = resident.value()->default_scales;
    if (auto appended = log.value().append(config); !appended) {
      return appended.error();
    }
  }

  auto [pos, inserted] = tenants_.try_emplace(tenant);
  pos->second.log = std::move(log.value());
  return &pos->second;
}

Expected<std::uint64_t> IngestScheduler::append(
    const std::string& tenant, const ExecutionRecord& record) {
  auto state = state_for(tenant);
  if (!state) return state.error();
  LogEntry entry;
  entry.kind = LogEntry::Kind::kRun;
  entry.run = record;
  if (auto appended = state.value()->log.append(entry); !appended) {
    return appended.error();
  }
  obs::count("ingest.appends");
  ++state.value()->stats.appended;
  ++state.value()->runs_since_attempt;
  return state.value()->stats.appended;
}

ShadowOutcome IngestScheduler::finish_attempt(const std::string& tenant,
                                              TenantState& state,
                                              Expected<CandidateFit> fit,
                                              std::size_t records) {
  // The incumbent is whatever is live *now* — the true shadow comparison.
  const TwoLevelModel* incumbent = nullptr;
  std::shared_ptr<const registry::ResidentModel> pin;
  if (auto resident = pool_.acquire(tenant)) {
    pin = resident.value();
    incumbent = &pin->model;
  }
  ShadowOutcome outcome = judge_candidate(std::move(fit), records, incumbent);

  if (outcome.promoted && outcome.candidate.has_value()) {
    auto version = pool_.registry().add_model(tenant, *outcome.candidate);
    if (version) {
      outcome.marker.version = version.value();
    } else {
      // The archive could not be published: the incumbent keeps serving
      // and the marker records a rejection-by-publish-failure.
      outcome.promoted = false;
      outcome.marker.verdict = "publish-failed";
    }
  }
  // The marker is the durable account of the attempt — promoted or not —
  // and the replay anchor, so it is appended before the epoch swap.
  (void)state.log.append([&] {
    LogEntry entry;
    entry.kind = LogEntry::Kind::kPromote;
    entry.promote = outcome.marker;
    return entry;
  }());
  (void)pool_.registry().annotate(tenant, "shadow_verdict",
                                  outcome.marker.verdict);

  if (outcome.promoted && outcome.candidate.has_value()) {
    state.chain =
        std::make_shared<const TwoLevelModel>(*outcome.candidate);
    (void)pool_.reload(tenant);
  }

  ++state.stats.retrains;
  state.stats.quarantined += outcome.quarantined;
  state.stats.warm_scales = outcome.warm_scales;
  state.stats.last_verdict = outcome.marker.verdict;
  state.stats.last_version = outcome.marker.version;
  state.stats.last_holdout_scale = outcome.marker.holdout_scale;
  state.stats.last_candidate_mape = outcome.marker.candidate_mape;
  state.stats.last_incumbent_mape = outcome.marker.incumbent_mape;
  if (outcome.promoted) {
    ++state.stats.promotions;
  } else {
    ++state.stats.rejections;
  }
  state.runs_since_attempt = 0;
  return outcome;
}

Expected<ShadowOutcome> IngestScheduler::retrain_now(
    const std::string& tenant) {
  auto state = state_for(tenant);
  if (!state) return state.error();
  TenantState& t = *state.value();
  if (t.stats.in_flight) {
    return Error{ErrorCode::Degenerate,
                 "a background retrain is already in flight", tenant};
  }
  auto snapshot = RunLog::read_file(t.log.path());
  if (!snapshot) return snapshot.error();
  const auto& entries = snapshot.value().entries;
  std::size_t records = 0;
  for (const auto& entry : entries) {
    records += entry.kind == LogEntry::Kind::kRun ? 1 : 0;
  }
  auto fit = fit_candidate(entries, records, tenant, t.chain.get(),
                           opts_.retrain);
  return finish_attempt(tenant, t, std::move(fit), records);
}

Expected<void> IngestScheduler::start_background(const std::string& tenant,
                                                 TenantState& state) {
  auto snapshot = RunLog::read_file(state.log.path());
  if (!snapshot) return snapshot.error();
  auto entries = std::make_shared<const std::vector<LogEntry>>(
      std::move(snapshot.value().entries));
  std::size_t records = 0;
  for (const auto& entry : *entries) {
    records += entry.kind == LogEntry::Kind::kRun ? 1 : 0;
  }
  // The task captures only immutable snapshots (entries, warm chain,
  // options) — a pure function computed off-thread.
  auto chain = state.chain;
  auto opts = opts_.retrain;
  state.pending = global_thread_pool().submit(
      [entries, chain, tenant, records, opts]() {
        return fit_candidate(*entries, records, tenant, chain.get(), opts);
      });
  state.pending_records = records;
  state.stats.in_flight = true;
  state.runs_since_attempt = 0;
  obs::count("ingest.background_retrains");
  return {};
}

std::vector<std::string> IngestScheduler::pump() {
  std::vector<std::string> promoted;
  for (auto& [tenant, state] : tenants_) {
    if (state.stats.in_flight &&
        state.pending.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      state.stats.in_flight = false;
      const ShadowOutcome outcome = finish_attempt(
          tenant, state, state.pending.get(), state.pending_records);
      if (outcome.promoted) promoted.push_back(tenant);
    }
    if (state.stats.in_flight) continue;

    if (opts_.retrain_records > 0 &&
        state.runs_since_attempt >= opts_.retrain_records) {
      (void)start_background(tenant, state);
    }
  }
  return promoted;
}

bool IngestScheduler::busy() const {
  for (const auto& [tenant, state] : tenants_) {
    if (state.stats.in_flight) return true;
  }
  return false;
}

std::vector<std::pair<std::string, TenantIngestStats>>
IngestScheduler::stats() const {
  std::vector<std::pair<std::string, TenantIngestStats>> out;
  out.reserve(tenants_.size());
  for (const auto& [tenant, state] : tenants_) {
    out.emplace_back(tenant, state.stats);
  }
  return out;
}

IngestScheduler::Totals IngestScheduler::totals() const {
  Totals t;
  for (const auto& [tenant, state] : tenants_) {
    t.appended += state.stats.appended;
    t.retrains += state.stats.retrains;
    t.promotions += state.stats.promotions;
    t.rejections += state.stats.rejections;
    t.in_flight += state.stats.in_flight ? 1 : 0;
  }
  return t;
}

}  // namespace hpcp::ingest
