#include "src/registry/binary_codec.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace hpcp::registry {

namespace {

/// The archive format is defined as little-endian on disk; on a BE host
/// these helpers byte-swap so archives stay portable. (The supported CI
/// targets are all LE, where this compiles to a plain copy.)
std::uint64_t to_le(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

std::uint64_t from_le(std::uint64_t v) { return to_le(v); }

}  // namespace

void BinarySerializer::put_bytes(const void* data, std::size_t n) {
  stream().write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(n));
}

void BinarySerializer::put_u64(std::uint64_t v) {
  const std::uint64_t le = to_le(v);
  put_bytes(&le, sizeof(le));
}

void BinarySerializer::tag(const std::string& name) { write(name); }

void BinarySerializer::write(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void BinarySerializer::write(std::size_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void BinarySerializer::write(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void BinarySerializer::write(bool v) {
  const unsigned char b = v ? 1 : 0;
  put_bytes(&b, 1);
}

void BinarySerializer::write(const std::string& s) {
  put_u64(s.size());
  put_bytes(s.data(), s.size());
}

void BinarySerializer::write(const std::vector<double>& v) {
  put_u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    // The bulk fast path the binary format exists for: one contiguous
    // write per vector instead of one token per element.
    put_bytes(v.data(), v.size() * sizeof(double));
  } else {
    for (const double x : v) write(x);
  }
}

void BinarySerializer::write(const std::vector<std::size_t>& v) {
  put_u64(v.size());
  for (const std::size_t x : v) put_u64(static_cast<std::uint64_t>(x));
}

void BinarySerializer::write(const std::vector<std::string>& v) {
  put_u64(v.size());
  for (const auto& s : v) write(s);
}

const unsigned char* BinaryDeserializer::take(std::size_t n) {
  if (n > size_ - pos_) {
    throw std::runtime_error("model archive truncated (binary section)");
  }
  const unsigned char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint64_t BinaryDeserializer::take_u64() {
  std::uint64_t le = 0;
  std::memcpy(&le, take(sizeof(le)), sizeof(le));
  return from_le(le);
}

void BinaryDeserializer::expect_tag(const std::string& name) {
  const std::string token = read_string();
  if (token != name) {
    throw std::runtime_error("model archive corrupt: expected tag '" + name +
                             "', found '" + token + "'");
  }
}

double BinaryDeserializer::read_double() {
  return std::bit_cast<double>(take_u64());
}

std::size_t BinaryDeserializer::read_size() {
  const std::uint64_t v = take_u64();
  if (v > std::numeric_limits<std::size_t>::max()) {
    throw std::runtime_error("model archive corrupt: oversized count");
  }
  return static_cast<std::size_t>(v);
}

std::int64_t BinaryDeserializer::read_int() {
  return static_cast<std::int64_t>(take_u64());
}

bool BinaryDeserializer::read_bool() {
  const unsigned char b = *take(1);
  if (b > 1) {
    throw std::runtime_error("model archive corrupt: non-boolean byte");
  }
  return b != 0;
}

std::string BinaryDeserializer::read_string() {
  const std::uint64_t len = take_u64();
  // A flipped length byte must fail as "truncated", not as a giant
  // allocation: the remaining span bounds any legitimate length.
  if (len > size_ - pos_) {
    throw std::runtime_error("model archive truncated (binary string)");
  }
  const unsigned char* p = take(static_cast<std::size_t>(len));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(len));
}

std::vector<double> BinaryDeserializer::read_doubles() {
  const std::uint64_t n = take_u64();
  if (n > (size_ - pos_) / sizeof(double)) {
    throw std::runtime_error("model archive truncated (double block)");
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  if constexpr (std::endian::native == std::endian::little) {
    const unsigned char* p = take(v.size() * sizeof(double));
    // memcpy from/to the null data() of an empty vector is undefined.
    if (!v.empty()) std::memcpy(v.data(), p, v.size() * sizeof(double));
  } else {
    for (auto& x : v) x = read_double();
  }
  return v;
}

std::vector<std::size_t> BinaryDeserializer::read_sizes() {
  const std::uint64_t n = take_u64();
  if (n > (size_ - pos_) / sizeof(std::uint64_t)) {
    throw std::runtime_error("model archive truncated (size block)");
  }
  std::vector<std::size_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = read_size();
  return v;
}

std::vector<std::string> BinaryDeserializer::read_strings() {
  const std::uint64_t n = take_u64();
  if (n > size_ - pos_) {
    throw std::runtime_error("model archive truncated (string block)");
  }
  std::vector<std::string> v(static_cast<std::size_t>(n));
  for (auto& s : v) s = read_string();
  return v;
}

}  // namespace hpcp::registry
