#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/two_level_model.hpp"

/// \file archive.hpp (registry)
/// The sectioned, offset-indexed `.hpcp` model archive.
///
/// Layout (all integers little-endian u64):
///
///   +--------------------------------------------------------------+
///   | magic "HPCPARC1" (8 B) | format_version | section_count      |
///   +--------------------------------------------------------------+
///   | section table: per section                                   |
///   |   name (16 B, NUL padded) | offset | size | fnv1a checksum   |
///   +--------------------------------------------------------------+
///   | section payloads ("meta", "model", ...)                      |
///   +--------------------------------------------------------------+
///
///   "meta"   tenant name + registry version (src/common/serialize.hpp)
///   "model"  the full model graph through the same codec
///
/// Opening an archive mmaps the file and validates only the header and
/// section table — O(pages touched), not a full deserialize — so registry
/// listings and manifest checks stay cheap no matter how large the model
/// is. `load_model()` then checksums and parses just the "model" section.
/// When mmap is unavailable (exotic filesystems, resource limits) the
/// archive falls back to reading the file into memory; the parse is
/// bit-identical either way. This is the only model file format: a file
/// in the retired text format fails the magic check as BadData.
///
/// Corruption — truncation, bit flips, a section table pointing past EOF
/// ("short map") — surfaces as typed BadData/Io errors: every section is
/// bounds-checked against the actual file size and checksummed before a
/// single payload byte is interpreted.

namespace hpcp::registry {

inline constexpr char kArchiveMagic[8] = {'H', 'P', 'C', 'P',
                                          'A', 'R', 'C', '1'};
inline constexpr std::uint64_t kArchiveFormatVersion = 1;
inline constexpr std::size_t kSectionNameBytes = 16;

/// What the "meta" section records about the archived model.
struct ArchiveMeta {
  std::string tenant;          ///< registry tenant name ("" = standalone)
  std::uint64_t version = 0;   ///< registry version number (0 = standalone)
};

/// One entry of the section table, as validated at open().
struct SectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a 64 over the payload bytes
};

/// A validated, opened archive. Holds the mapping (or fallback buffer)
/// alive; copyable handles share it.
class ModelArchive {
 public:
  /// mmaps (or reads) `path` and validates magic, format version, and the
  /// section table against the real file size. Does NOT parse the model.
  /// Unopenable file -> Io; anything structurally wrong -> BadData.
  [[nodiscard]] static Expected<ModelArchive> open(const std::string& path);

  [[nodiscard]] const ArchiveMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }
  /// True when the payload is served from an mmap (false = read fallback).
  [[nodiscard]] bool mapped() const noexcept;
  [[nodiscard]] std::size_t file_bytes() const noexcept;

  /// Checksums the "model" section, then parses it. A flipped bit, a
  /// short section or a count the section cannot hold -> BadData, never
  /// UB.
  [[nodiscard]] Expected<TwoLevelModel> load_model() const;

 private:
  ModelArchive() = default;
  struct Mapping;  ///< mmap or heap buffer + lifetime

  [[nodiscard]] const SectionInfo* find(const std::string& name) const;
  [[nodiscard]] const unsigned char* bytes() const noexcept;

  std::shared_ptr<const Mapping> mapping_;
  std::vector<SectionInfo> sections_;
  ArchiveMeta meta_;
  std::string path_;
};

/// Writes `model` + `meta` as a sectioned archive, atomically
/// (tmp + fsync + rename): a crash mid-write never tears a live archive.
/// A standalone model file (`train --save`) passes `{}`: tenant "",
/// version 0.
[[nodiscard]] Expected<void> write_model_archive(const std::string& path,
                                                 const TwoLevelModel& model,
                                                 const ArchiveMeta& meta);

/// Opens `path` and loads its model: ModelArchive::open + load_model.
/// Unopenable file -> Io; anything else wrong -> BadData.
[[nodiscard]] Expected<TwoLevelModel> load_model_any(const std::string& path);

}  // namespace hpcp::registry
