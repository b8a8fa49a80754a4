#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/two_level_model.hpp"

/// \file registry.hpp (registry)
/// The named+versioned on-disk model store.
///
/// Layout under one root directory:
///
///   <root>/MANIFEST.json                  hpcp-registry/1 index
///   <root>/<tenant>/<version>.hpcp        sectioned binary archives
///
/// Tenants are flat names ([A-Za-z0-9_.-], no path separators — the name
/// is a directory component, so anything else is rejected before it can
/// traverse). Versions are dense positive integers per tenant; `add`
/// assigns latest+1 and never overwrites. Every mutation publishes the
/// archive first (atomic tmp+fsync+rename via write_model_archive), then
/// rewrites MANIFEST.json the same way, so a crash between the two leaves
/// a manifest that under-reports — `open` rescans the directory tree and
/// treats the filesystem as the source of truth, healing exactly that.
///
/// The registry is a passive store: residency, eviction, and hot swap live
/// in ModelPool (residency.hpp). `hpcp registry ls|add|gc` drives this
/// class from the CLI.

namespace hpcp::registry {

inline constexpr const char* kManifestSchema = "hpcp-registry/1";
inline constexpr const char* kManifestFile = "MANIFEST.json";
inline constexpr const char* kArchiveExtension = ".hpcp";

/// One tenant's on-disk state.
struct TenantInfo {
  std::string tenant;
  std::uint64_t latest = 0;             ///< highest version (0 = none)
  std::vector<std::uint64_t> versions;  ///< ascending
  std::uint64_t bytes = 0;              ///< total archive bytes on disk
};

class Registry {
 public:
  /// Opens (creating the root directory if needed) and scans the store.
  /// An unreadable root is Io; malformed entries are skipped, not fatal —
  /// a foreign file in the tree must not take the registry down.
  [[nodiscard]] static Expected<Registry> open(const std::string& root);

  /// Tenant names are directory components: letters, digits, '_', '.',
  /// '-', not empty, not starting with '.', at most 64 bytes.
  [[nodiscard]] static bool valid_tenant(const std::string& name);

  [[nodiscard]] const std::string& root() const noexcept { return root_; }
  [[nodiscard]] std::string manifest_path() const;

  /// Sorted by tenant name.
  [[nodiscard]] std::vector<TenantInfo> list() const;
  [[nodiscard]] bool has_tenant(const std::string& tenant) const;
  /// Highest version for `tenant`, 0 when absent.
  [[nodiscard]] std::uint64_t latest_version(const std::string& tenant) const;
  /// Archive path for (tenant, version); purely syntactic.
  [[nodiscard]] std::string version_path(const std::string& tenant,
                                         std::uint64_t version) const;

  /// Archives `model` as `tenant`'s next version and returns it.
  [[nodiscard]] Expected<std::uint64_t> add_model(const std::string& tenant,
                                                  const TwoLevelModel& model);
  /// Imports a `.hpcp` model file (load_model_any) as the next version.
  [[nodiscard]] Expected<std::uint64_t> add_from_file(
      const std::string& tenant, const std::string& model_path);

  /// Deletes all but the newest `keep` versions of every tenant; returns
  /// how many archives were removed. keep == 0 is rejected (it would
  /// silently empty the store).
  [[nodiscard]] Expected<std::size_t> gc(std::size_t keep);

  /// Re-reads the directory tree (external writers, crash recovery).
  [[nodiscard]] Expected<void> rescan();

  /// Sets a per-tenant advisory annotation — e.g. the ingest loop's shadow
  /// verdict — and rewrites the manifest, which carries annotations as a
  /// "notes" object inside the tenant entry. Annotations are process-local
  /// advisories over the filesystem truth: rescan() keeps them (they key
  /// on the tenant name), but a fresh open() of the same root starts
  /// without them — the ingest log is the durable record. Tenants without
  /// annotations render exactly as before, so stores that never ingest
  /// keep byte-identical manifests.
  [[nodiscard]] Expected<void> annotate(const std::string& tenant,
                                        const std::string& key,
                                        const std::string& value);
  [[nodiscard]] const std::map<std::string, std::string>* annotations(
      const std::string& tenant) const;

 private:
  [[nodiscard]] Expected<void> write_manifest() const;

  std::string root_;
  std::map<std::string, TenantInfo> tenants_;
  std::map<std::string, std::map<std::string, std::string>> notes_;
};

}  // namespace hpcp::registry
