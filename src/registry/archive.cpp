#include "src/registry/archive.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <ostream>
#include <string_view>

#include "src/common/io.hpp"
#include "src/common/serialize.hpp"

namespace hpcp::registry {

namespace {

constexpr std::size_t kHeaderBytes = sizeof(kArchiveMagic) + 2 * 8;
constexpr std::size_t kTableEntryBytes = kSectionNameBytes + 3 * 8;
/// Generous structural bound: a section count above this is corruption,
/// not a real archive (today's writer emits 2 sections).
constexpr std::uint64_t kMaxSections = 64;

std::uint64_t fnv1a(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t read_u64_le(const unsigned char* p) {
  std::uint64_t le = 0;
  std::memcpy(&le, p, sizeof(le));
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(le);
  }
  return le;
}

void append_u64_le(std::string& out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

Error bad(const std::string& message, const std::string& path) {
  return Error{ErrorCode::BadData, message, path};
}

}  // namespace

/// The payload owner: either an mmap (unmapped on destruction) or a heap
/// buffer read as a fallback.
struct ModelArchive::Mapping {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  bool is_mmap = false;
  std::vector<unsigned char> fallback;

  ~Mapping() {
    if (is_mmap && data != nullptr && size > 0) {
      ::munmap(const_cast<unsigned char*>(data), size);
    }
  }
};

bool ModelArchive::mapped() const noexcept {
  return mapping_ != nullptr && mapping_->is_mmap;
}

std::size_t ModelArchive::file_bytes() const noexcept {
  return mapping_ != nullptr ? mapping_->size : 0;
}

const unsigned char* ModelArchive::bytes() const noexcept {
  return mapping_ != nullptr ? mapping_->data : nullptr;
}

Expected<ModelArchive> ModelArchive::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Error{ErrorCode::Io, "cannot open model archive", path};
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Error{ErrorCode::Io, "cannot stat model archive", path};
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->size = static_cast<std::size_t>(st.st_size);
  if (mapping->size > 0) {
    void* map = ::mmap(nullptr, mapping->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      mapping->data = static_cast<const unsigned char*>(map);
      mapping->is_mmap = true;
    } else {
      // Fallback: read the file into memory. Same bytes, same validation,
      // just without the zero-copy page cache path.
      mapping->fallback.resize(mapping->size);
      std::size_t got = 0;
      while (got < mapping->size) {
        const ssize_t n = ::read(fd, mapping->fallback.data() + got,
                                 mapping->size - got);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      if (got != mapping->size) {
        ::close(fd);
        return Error{ErrorCode::Io, "cannot read model archive", path};
      }
      mapping->data = mapping->fallback.data();
    }
  }
  ::close(fd);

  // Structural validation: header, magic, and a section table whose every
  // entry lies inside the *actual* file ("short map" protection). Payloads
  // are not touched here.
  const unsigned char* base = mapping->data;
  const std::size_t size = mapping->size;
  if (size < kHeaderBytes) {
    return bad("archive shorter than its header", path);
  }
  if (std::memcmp(base, kArchiveMagic, sizeof(kArchiveMagic)) != 0) {
    return bad("bad archive magic", path);
  }
  const std::uint64_t format = read_u64_le(base + sizeof(kArchiveMagic));
  if (format != kArchiveFormatVersion) {
    return bad("unsupported archive format version " + std::to_string(format),
               path);
  }
  const std::uint64_t count = read_u64_le(base + sizeof(kArchiveMagic) + 8);
  if (count == 0 || count > kMaxSections) {
    return bad("implausible section count " + std::to_string(count), path);
  }
  if (kHeaderBytes + count * kTableEntryBytes > size) {
    return bad("section table extends past end of file", path);
  }

  ModelArchive archive;
  archive.mapping_ = std::move(mapping);
  archive.path_ = path;
  archive.sections_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned char* entry =
        base + kHeaderBytes + static_cast<std::size_t>(i) * kTableEntryBytes;
    SectionInfo info;
    const char* name = reinterpret_cast<const char*>(entry);
    const std::size_t name_len = ::strnlen(name, kSectionNameBytes);
    if (name_len == 0 || name_len == kSectionNameBytes) {
      return bad("section name is empty or unterminated", path);
    }
    info.name.assign(name, name_len);
    info.offset = read_u64_le(entry + kSectionNameBytes);
    info.size = read_u64_le(entry + kSectionNameBytes + 8);
    info.checksum = read_u64_le(entry + kSectionNameBytes + 16);
    if (info.offset > size || info.size > size - info.offset) {
      return bad("section '" + info.name + "' extends past end of file",
                 path);
    }
    archive.sections_.push_back(std::move(info));
  }

  // The tiny "meta" section is validated and parsed eagerly — it is what
  // listings read, and it is one page.
  const SectionInfo* meta = archive.find("meta");
  if (meta == nullptr) {
    return bad("archive has no meta section", path);
  }
  const unsigned char* meta_bytes = base + meta->offset;
  if (fnv1a(meta_bytes, static_cast<std::size_t>(meta->size)) !=
      meta->checksum) {
    return bad("meta section checksum mismatch", path);
  }
  try {
    Deserializer d(std::string_view(reinterpret_cast<const char*>(meta_bytes),
                                    static_cast<std::size_t>(meta->size)));
    d.expect_tag("hpcp-archive-meta-v1");
    archive.meta_.tenant = d.read_string();
    archive.meta_.version = static_cast<std::uint64_t>(d.read_size());
  } catch (const std::exception& e) {
    return bad(std::string("meta section corrupt: ") + e.what(), path);
  }
  return archive;
}

const SectionInfo* ModelArchive::find(const std::string& name) const {
  for (const SectionInfo& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Expected<TwoLevelModel> ModelArchive::load_model() const {
  const SectionInfo* model = find("model");
  if (model == nullptr) {
    return bad("archive has no model section", path_);
  }
  const unsigned char* payload = bytes() + model->offset;
  const std::size_t size = static_cast<std::size_t>(model->size);
  // Checksum before interpretation: a flipped bit anywhere in the section
  // fails here, so the parser below only ever sees bytes the writer wrote.
  if (fnv1a(payload, size) != model->checksum) {
    return bad("model section checksum mismatch", path_);
  }
  try {
    Deserializer d(
        std::string_view(reinterpret_cast<const char*>(payload), size));
    TwoLevelModel loaded = TwoLevelModel::load(d);
    if (d.consumed() != size) {
      return bad("model section has trailing bytes", path_);
    }
    return loaded;
  } catch (const std::exception& e) {
    return bad(std::string("model section corrupt: ") + e.what(), path_);
  }
}

Expected<void> write_model_archive(const std::string& path,
                                   const TwoLevelModel& model,
                                   const ArchiveMeta& meta) {
  // Build both payloads in memory first: the section table needs offsets
  // and checksums up front, and atomic_write_file wants one writer pass.
  std::string meta_bytes;
  Serializer meta_out(meta_bytes);
  meta_out.tag("hpcp-archive-meta-v1");
  meta_out.write(meta.tenant);
  meta_out.write(static_cast<std::size_t>(meta.version));
  std::string model_bytes;
  Serializer model_out(model_bytes);
  model.save(model_out);

  struct Section {
    const char* name;
    const std::string* payload;
  };
  const Section sections[] = {{"meta", &meta_bytes}, {"model", &model_bytes}};
  const std::size_t count = std::size(sections);

  std::string out;
  out.reserve(kHeaderBytes + count * kTableEntryBytes + meta_bytes.size() +
              model_bytes.size());
  out.append(kArchiveMagic, sizeof(kArchiveMagic));
  append_u64_le(out, kArchiveFormatVersion);
  append_u64_le(out, count);
  std::uint64_t offset = kHeaderBytes + count * kTableEntryBytes;
  for (const Section& s : sections) {
    char name[kSectionNameBytes] = {};
    std::strncpy(name, s.name, kSectionNameBytes - 1);
    out.append(name, kSectionNameBytes);
    append_u64_le(out, offset);
    append_u64_le(out, s.payload->size());
    append_u64_le(
        out, fnv1a(reinterpret_cast<const unsigned char*>(s.payload->data()),
                   s.payload->size()));
    offset += s.payload->size();
  }
  for (const Section& s : sections) out.append(*s.payload);

  return atomic_write_file(
      path, [&out](std::ostream& stream) { stream.write(out.data(),
          static_cast<std::streamsize>(out.size())); });
}

Expected<TwoLevelModel> load_model_any(const std::string& path) {
  auto archive = ModelArchive::open(path);
  if (!archive) return archive.error();
  return archive->load_model();
}

}  // namespace hpcp::registry
