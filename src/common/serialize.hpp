#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file serialize.hpp
/// The model codec behind the `.hpcp` archive (src/registry/archive.hpp).
///
/// The wire format is raw little-endian bytes: u64 integers, the 8 raw
/// bytes of every double (bit-exact by construction), strings as a u64
/// length plus bytes, vectors as a u64 count plus elements, and a tag
/// string before every object that the reader verifies, so a structure
/// mismatch fails loudly instead of mis-parsing. Whole `vector<double>`
/// payloads are one contiguous block, so reading them is a bounds-checked
/// memcpy, not a parse.
///
/// Model bytes arrive from outside the process (`registry add`, `predict
/// --model`), so the reader trusts nothing: every read is bounds-checked
/// against the span, every count is bounded by the bytes left before a
/// loader allocates for it (read_count), and a loader's cross-field
/// invariants go through check(). All of them throw std::runtime_error,
/// which the archive layer reports as a typed BadData error, never UB.

namespace hpcp {

/// Appends the wire format to a caller-owned byte string.
class Serializer {
 public:
  explicit Serializer(std::string& out) : out_(out) {}
  Serializer(const Serializer&) = delete;
  Serializer& operator=(const Serializer&) = delete;

  void tag(const std::string& name) { write(name); }
  void write(double v);
  void write(std::size_t v);
  void write(std::int64_t v);
  void write(bool v);
  void write(const std::string& s);
  void write(const std::vector<double>& v);
  void write(const std::vector<std::size_t>& v);
  void write(const std::vector<std::string>& v);

 private:
  void put_u64(std::uint64_t v);

  std::string& out_;
};

/// Reads the wire format from a byte span the caller keeps alive (an
/// mmap'd archive section, or an in-memory buffer).
class Deserializer {
 public:
  explicit Deserializer(std::string_view bytes) : bytes_(bytes) {}
  Deserializer(const Deserializer&) = delete;
  Deserializer& operator=(const Deserializer&) = delete;

  /// Throws std::runtime_error if the next tag differs.
  void expect_tag(const std::string& name);
  [[nodiscard]] double read_double();
  [[nodiscard]] std::size_t read_size();
  [[nodiscard]] std::int64_t read_int();
  [[nodiscard]] bool read_bool();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<double> read_doubles();
  [[nodiscard]] std::vector<std::size_t> read_sizes();
  [[nodiscard]] std::vector<std::string> read_strings();

  /// Reads an element count and rejects it unless that many elements of
  /// at least `min_bytes_per_item` bytes each fit in the bytes left, so a
  /// flipped count byte fails here instead of sizing a huge allocation.
  [[nodiscard]] std::size_t read_count(std::size_t min_bytes_per_item);

  /// Throws std::runtime_error naming `what` unless `ok`: a loader's check
  /// of an invariant across fields it has read.
  static void check(bool ok, const char* what);

  /// Bytes a parse has used so far (the archive rejects trailing bytes).
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }

 private:
  [[nodiscard]] std::uint64_t take_u64();
  /// Bounds check + advance; throws std::runtime_error on overrun.
  [[nodiscard]] const char* take(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace hpcp
