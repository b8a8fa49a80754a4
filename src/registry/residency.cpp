#include "src/registry/residency.hpp"

#include <utility>

#include "src/obs/obs.hpp"
#include "src/registry/archive.hpp"

namespace hpcp::registry {

ModelPool::ModelPool(Registry registry, PoolOptions opts)
    : registry_(std::move(registry)), opts_(opts) {
  if (opts_.max_resident_models == 0) opts_.max_resident_models = 1;
}

bool ModelPool::known(const std::string& tenant) const {
  return registry_.has_tenant(tenant);
}

std::size_t ModelPool::resident_count() const noexcept {
  return resident_.size();
}

TenantStats& ModelPool::stats_for(const std::string& tenant) {
  TenantStats& s = stats_[tenant];
  if (s.tenant.empty()) s.tenant = tenant;
  return s;
}

Expected<std::shared_ptr<const ResidentModel>> ModelPool::load_version(
    const std::string& tenant, std::uint64_t version) {
  const obs::Span span("registry.load", tenant);
  const std::string path = registry_.version_path(tenant, version);
  auto archive = ModelArchive::open(path);
  if (!archive) return archive.error();
  auto model = archive->load_model();
  if (!model) return model.error();
  auto resident = std::make_shared<ResidentModel>();
  resident->tenant = tenant;
  resident->version = version;
  resident->bytes = static_cast<std::uint64_t>(archive->file_bytes());
  resident->model = std::move(*model);
  resident->default_scales =
      resident->model.extrapolation().target_scales();
  resident->num_features =
      resident->model.interpolation().num_features();
  return std::shared_ptr<const ResidentModel>(std::move(resident));
}

void ModelPool::install(const std::string& tenant,
                        std::shared_ptr<const ResidentModel> model) {
  const auto it = resident_.find(tenant);
  if (it != resident_.end()) {
    // Epoch swap: the old shared_ptr stays alive for any in-flight pins
    // and is freed when the last of them releases.
    resident_bytes_ -= std::min(resident_bytes_, it->second.model->bytes);
    lru_.erase(it->second.lru_pos);
    resident_.erase(it);
  }
  resident_bytes_ += model->bytes;
  lru_.push_front(tenant);
  resident_.emplace(tenant, Resident{std::move(model), lru_.begin()});
  evict_down(tenant);
  obs::gauge_set("registry.resident_models",
                 static_cast<double>(resident_.size()));
  obs::gauge_set("registry.resident_bytes",
                 static_cast<double>(resident_bytes_));
}

void ModelPool::evict_down(const std::string& protect) {
  const auto over_budget = [this] {
    if (resident_.size() > opts_.max_resident_models) return true;
    return opts_.max_resident_bytes > 0 && resident_.size() > 1 &&
           resident_bytes_ > opts_.max_resident_bytes;
  };
  // Walk coldest-first; a pinned entry (an in-flight batch still holds
  // the shared_ptr) is skipped — it would keep its memory alive anyway,
  // so evicting it frees nothing and only forces a pointless reload.
  while (over_budget()) {
    bool evicted = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const std::string tenant = *it;
      if (tenant == protect) continue;
      const auto rit = resident_.find(tenant);
      if (rit == resident_.end()) continue;
      if (rit->second.model.use_count() > 1) continue;  // pinned in-flight
      resident_bytes_ -= std::min(resident_bytes_, rit->second.model->bytes);
      ++total_evictions_;
      TenantStats& stats = stats_for(tenant);
      ++stats.evictions;
      stats.resident = false;
      obs::count("registry.evictions");
      resident_.erase(rit);
      lru_.erase(std::next(it).base());
      evicted = true;
      break;
    }
    // Everything else is pinned or protected: over budget is the lesser
    // evil versus evicting a model mid-batch.
    if (!evicted) break;
  }
}

Expected<std::shared_ptr<const ResidentModel>> ModelPool::acquire(
    const std::string& tenant) {
  const auto it = resident_.find(tenant);
  if (it != resident_.end()) {
    TenantStats& stats = stats_for(tenant);
    ++stats.hits;
    // Refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    obs::count("registry.residency_hit");
    return it->second.model;
  }
  if (!registry_.has_tenant(tenant)) {
    return Error{ErrorCode::BadData, "unknown tenant", tenant};
  }
  TenantStats& stats = stats_for(tenant);
  ++stats.loads;
  obs::count("registry.residency_miss");
  auto loaded = load_version(tenant, registry_.latest_version(tenant));
  if (!loaded) {
    ++stats.load_failures;
    stats.last_error = loaded.error().to_string();
    obs::count("registry.load_failures");
    return loaded.error();
  }
  stats.version = (*loaded)->version;
  stats.resident = true;
  stats.last_error.clear();
  std::shared_ptr<const ResidentModel> model = *loaded;
  install(tenant, *loaded);
  return model;
}

Expected<std::uint64_t> ModelPool::reload(const std::string& tenant) {
  // Pick up tenants and versions published since the last scan (e.g. by
  // `hpcpredict_cli registry add` in another process).
  (void)registry_.rescan();
  if (!registry_.has_tenant(tenant)) {
    return Error{ErrorCode::BadData, "unknown tenant", tenant};
  }
  TenantStats& stats = stats_for(tenant);
  ++stats.loads;
  auto loaded = load_version(tenant, registry_.latest_version(tenant));
  if (!loaded) {
    // Old resident model (if any) keeps serving; only this tenant is
    // marked degraded.
    ++stats.load_failures;
    stats.last_error = loaded.error().to_string();
    obs::count("registry.load_failures");
    return loaded.error();
  }
  const std::uint64_t version = (*loaded)->version;
  stats.version = version;
  stats.resident = true;
  stats.last_error.clear();
  install(tenant, std::move(*loaded));
  obs::count("registry.reloads");
  return version;
}

void ModelPool::reload_all_resident() {
  std::vector<std::string> tenants;
  tenants.reserve(resident_.size());
  for (const auto& [tenant, _] : resident_) tenants.push_back(tenant);
  for (const std::string& tenant : tenants) (void)reload(tenant);
}

Expected<void> ModelPool::refresh() { return registry_.rescan(); }

std::vector<TenantStats> ModelPool::stats() const {
  // Union of touched tenants and on-disk tenants, keyed (sorted) by name.
  std::map<std::string, TenantStats> merged = stats_;
  for (const TenantInfo& info : registry_.list()) {
    TenantStats& s = merged[info.tenant];
    if (s.tenant.empty()) s.tenant = info.tenant;
  }
  std::vector<TenantStats> out;
  out.reserve(merged.size());
  for (auto& [_, s] : merged) out.push_back(s);
  return out;
}

}  // namespace hpcp::registry
