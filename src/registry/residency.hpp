#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/two_level_model.hpp"
#include "src/registry/registry.hpp"

/// \file residency.hpp (registry)
/// The serving-side pool of resident models over a Registry.
///
/// Thousands of tenants cannot all be resident; the pool keeps an LRU of
/// loaded models under two caps — a count (`max_resident_models`) and a
/// byte budget (`max_resident_bytes`, archive bytes on disk as the proxy
/// for resident footprint). `acquire` returns a shared_ptr: the pool's own
/// reference is the *residency*, the caller's reference is the *pin*. An
/// eviction only drops the pool's reference, so a model pinned by an
/// in-flight batch finishes serving untouched and is freed when the last
/// pin releases — RCU by shared_ptr. Eviction additionally skips entries
/// whose use_count shows a live pin, so a tenant mid-batch is never the
/// victim while a colder one exists.
///
/// Per-tenant epoch swap: `reload(tenant)` loads the registry's latest
/// archive *fully* before swapping the resident entry, so readers see
/// either the old model or the new one, never a torn state. A
/// failed load (missing/corrupt archive) keeps the old resident model
/// serving, records the failure in that tenant's stats, and degrades only
/// that tenant; every other tenant is structurally unaffected.
///
/// The pool is confined to the serving thread (like the Server's own
/// resilience state): calls happen serially in request order, which is
/// what makes hit/evict accounting — and therefore `stats` output —
/// deterministic under replay.

namespace hpcp::registry {

/// The tenant every request without a "model" field resolves to.
inline constexpr const char* kDefaultTenant = "default";

/// One resident (loaded) model plus the serving metadata the hot path
/// needs without touching the model object.
struct ResidentModel {
  std::string tenant;
  std::uint64_t version = 0;
  std::uint64_t bytes = 0;  ///< archive size on disk (budget accounting)
  TwoLevelModel model;
  std::vector<std::size_t> default_scales;
  std::size_t num_features = 0;
};

struct PoolOptions {
  /// Resident-model count cap (>= 1; 0 is clamped to 1 — a pool that can
  /// hold nothing cannot serve).
  std::size_t max_resident_models = 4;
  /// Resident byte budget across all tenants; 0 = unlimited. A single
  /// model larger than the budget is still admitted alone (the cap
  /// bounds *hoarding*, not service).
  std::uint64_t max_resident_bytes = 0;
};

/// Per-tenant counters for health/stats.
struct TenantStats {
  std::string tenant;
  std::uint64_t version = 0;  ///< resident version (0 = never loaded)
  bool resident = false;
  std::uint64_t hits = 0;       ///< acquires served by a resident model
  std::uint64_t loads = 0;      ///< cold loads (residency misses)
  std::uint64_t evictions = 0;  ///< times this tenant was evicted
  std::uint64_t load_failures = 0;
  std::string last_error;  ///< last load failure ("" = healthy)
};

class ModelPool {
 public:
  ModelPool(Registry registry, PoolOptions opts);

  [[nodiscard]] const Registry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const PoolOptions& options() const noexcept { return opts_; }

  /// True when the registry has any version of `tenant` on disk.
  [[nodiscard]] bool known(const std::string& tenant) const;

  /// The resident model for `tenant`, loading (and possibly evicting)
  /// on a residency miss. Unknown tenant or a failed load is a typed
  /// error; a load failure is also recorded in the tenant's stats.
  [[nodiscard]] Expected<std::shared_ptr<const ResidentModel>> acquire(
      const std::string& tenant);

  /// Epoch swap to the latest version on disk (the store is rescanned
  /// first, so versions other processes published are picked up): the
  /// new archive is loaded fully, then swapped in; in-flight pins keep the
  /// old model alive. On failure the old resident model (if any) keeps
  /// serving and only this tenant is degraded. Returns the new resident
  /// version.
  [[nodiscard]] Expected<std::uint64_t> reload(const std::string& tenant);

  /// Reloads every currently resident tenant (the SIGHUP path).
  /// Per-tenant failures degrade only their tenant.
  void reload_all_resident();

  /// Rescans the registry directory (new tenants/versions published by
  /// another process become visible).
  [[nodiscard]] Expected<void> refresh();

  [[nodiscard]] std::size_t resident_count() const noexcept;
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return resident_bytes_;
  }
  [[nodiscard]] std::uint64_t total_evictions() const noexcept {
    return total_evictions_;
  }
  /// All tenants ever touched plus all tenants on disk, sorted by name.
  [[nodiscard]] std::vector<TenantStats> stats() const;

 private:
  struct Resident {
    std::shared_ptr<const ResidentModel> model;
    std::list<std::string>::iterator lru_pos;
  };

  /// Loads (tenant, version) from disk into a ResidentModel.
  [[nodiscard]] Expected<std::shared_ptr<const ResidentModel>> load_version(
      const std::string& tenant, std::uint64_t version);
  /// Installs a loaded model as the resident entry, then evicts down to
  /// the caps (skipping pinned entries and the tenant just installed).
  void install(const std::string& tenant,
               std::shared_ptr<const ResidentModel> model);
  void evict_down(const std::string& protect);
  [[nodiscard]] TenantStats& stats_for(const std::string& tenant);

  Registry registry_;
  PoolOptions opts_;
  std::map<std::string, Resident> resident_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t total_evictions_ = 0;
  std::map<std::string, TenantStats> stats_;
};

}  // namespace hpcp::registry
