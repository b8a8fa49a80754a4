#include "src/common/serialize.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace hpcp {

namespace {

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "the wire format stores sizes as u64");

/// The format is little-endian on disk; on a BE host these helpers
/// byte-swap so archives stay portable. (On LE hosts they are a plain
/// copy.)
std::uint64_t to_le(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

void Serializer::put_u64(std::uint64_t v) {
  const std::uint64_t le = to_le(v);
  out_.append(reinterpret_cast<const char*>(&le), sizeof(le));
}

void Serializer::write(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void Serializer::write(std::size_t v) { put_u64(v); }

void Serializer::write(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void Serializer::write(bool v) { out_.push_back(v ? '\1' : '\0'); }

void Serializer::write(const std::string& s) {
  put_u64(s.size());
  out_.append(s);
}

void Serializer::write(const std::vector<double>& v) {
  put_u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    out_.append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(double));
  } else {
    for (const double x : v) write(x);
  }
}

void Serializer::write(const std::vector<std::size_t>& v) {
  put_u64(v.size());
  for (const std::size_t x : v) put_u64(x);
}

void Serializer::write(const std::vector<std::string>& v) {
  put_u64(v.size());
  for (const auto& s : v) write(s);
}

void Deserializer::check(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("model archive corrupt: ") + what);
  }
}

const char* Deserializer::take(std::size_t n) {
  if (n > bytes_.size() - pos_) {
    throw std::runtime_error("model archive truncated");
  }
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint64_t Deserializer::take_u64() {
  std::uint64_t le = 0;
  std::memcpy(&le, take(sizeof(le)), sizeof(le));
  return to_le(le);
}

std::size_t Deserializer::read_count(std::size_t min_bytes_per_item) {
  const std::uint64_t n = take_u64();
  if (n > (bytes_.size() - pos_) / min_bytes_per_item) {
    throw std::runtime_error("model archive corrupt: count " +
                             std::to_string(n) + " exceeds the " +
                             std::to_string(bytes_.size() - pos_) +
                             " bytes left");
  }
  return n;
}

void Deserializer::expect_tag(const std::string& name) {
  const std::string token = read_string();
  if (token != name) {
    throw std::runtime_error("model archive corrupt: expected tag '" + name +
                             "', found '" + token + "'");
  }
}

double Deserializer::read_double() {
  return std::bit_cast<double>(take_u64());
}

std::size_t Deserializer::read_size() { return take_u64(); }

std::int64_t Deserializer::read_int() {
  return static_cast<std::int64_t>(take_u64());
}

bool Deserializer::read_bool() {
  const char b = *take(1);
  check(b == 0 || b == 1, "non-boolean byte");
  return b != 0;
}

std::string Deserializer::read_string() {
  const std::size_t len = read_count(1);
  return std::string(take(len), len);
}

std::vector<double> Deserializer::read_doubles() {
  std::vector<double> v(read_count(sizeof(double)));
  if constexpr (std::endian::native == std::endian::little) {
    const char* p = take(v.size() * sizeof(double));
    // memcpy from/to the null data() of an empty vector is undefined.
    if (!v.empty()) std::memcpy(v.data(), p, v.size() * sizeof(double));
  } else {
    for (auto& x : v) x = read_double();
  }
  return v;
}

std::vector<std::size_t> Deserializer::read_sizes() {
  std::vector<std::size_t> v(read_count(sizeof(std::uint64_t)));
  for (auto& x : v) x = read_size();
  return v;
}

std::vector<std::string> Deserializer::read_strings() {
  // Every string is at least its u64 length prefix.
  std::vector<std::string> v(read_count(sizeof(std::uint64_t)));
  for (auto& s : v) s = read_string();
  return v;
}

}  // namespace hpcp
