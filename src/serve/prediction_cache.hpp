#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file prediction_cache.hpp (serve)
/// Sharded LRU cache for served predictions, keyed by (tenant,
/// model_version, feature vector, scale). A key's shard is chosen by a
/// 64-bit FNV-1a hash of the raw key bytes; within a shard an exact
/// byte-wise key lookup guards against hash collisions — a collision may
/// cost a miss, never a wrong answer.
///
/// Tenant id and model version are part of the key *by construction*, not
/// by convention: a reload (version bump) or a tenant switch can never
/// serve a stale hit even if nobody remembers to clear() — the old
/// entries simply stop matching and age out of the LRU. The server relies
/// on the keyed isolation alone, so one tenant's reload does not flush
/// every other tenant's working set.
///
/// Caching is value-transparent by construction: the stored value is the
/// exact double the batched prediction path produced, and per-row
/// predictions are independent of batch composition, so a hit replays the
/// byte-identical response a recomputation would have produced (the serve
/// determinism contract, tested in tests/serve/).
///
/// Thread safety: one mutex per shard; hit/miss counters are lock-free
/// atomics. The server inserts serially (in request order) so eviction
/// order is deterministic, but the cache itself is safe under any
/// interleaving.

namespace hpcp::serve {

class PredictionCache {
 public:
  /// `max_entries` == 0 disables the cache entirely (lookups miss, inserts
  /// drop). The shard count is clamped so each shard holds at least one
  /// entry and the total never exceeds `max_entries`.
  explicit PredictionCache(std::size_t max_entries,
                           std::size_t num_shards = 8);

  [[nodiscard]] bool enabled() const noexcept { return max_entries_ > 0; }
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }

  /// The cached prediction for (tenant, version, params, scale),
  /// refreshing its LRU position; nullopt on a miss. Counts a hit or a
  /// miss.
  [[nodiscard]] std::optional<double> lookup(std::string_view tenant,
                                             std::uint64_t model_version,
                                             std::span<const double> params,
                                             std::size_t scale);

  /// Stores the prediction, evicting the shard's least-recently-used
  /// entry when full. Overwrites an existing entry (predictions are
  /// deterministic for a fixed (tenant, version), so the value cannot
  /// actually change; version is in the key, so a reload invalidates by
  /// mismatch, never by overwrite).
  void insert(std::string_view tenant, std::uint64_t model_version,
              std::span<const double> params, std::size_t scale,
              double value);

  /// Drops every entry (model hot-reload invalidates all cached values).
  /// Hit/miss counters are cumulative and survive clears.
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::string key;  ///< bytes of (version, scale, nparams, params, tenant)
    double value = 0.0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::size_t capacity = 0;
  };

  [[nodiscard]] static std::string make_key(std::string_view tenant,
                                            std::uint64_t model_version,
                                            std::span<const double> params,
                                            std::size_t scale);
  [[nodiscard]] Shard& shard_for(const std::string& key);

  std::size_t max_entries_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace hpcp::serve
