/// Property tests of model persistence over many randomly generated
/// training histories: load(save(m)) must predict bitwise-identically to m
/// for every seed, and adversarial model bytes — truncated, bit-flipped,
/// the wrong format, or carrying a count the bytes cannot hold — must come
/// back as typed errors, never as crashes, uncaught exceptions or huge
/// allocations. The bytes go straight to the parser with no checksum in
/// front, so its bounds checks themselves are what is exercised (under the
/// ASan/UBSan CI stage too). The point-wise round-trip tests live in
/// test_persistence.cpp; this file covers the input space.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/core/problem.hpp"
#include "src/core/two_level_model.hpp"
#include "src/registry/archive.hpp"

// This binary replaces the global operator new to record the largest
// single request, so a test can show a parse made no large allocation.
// Requests of 1 GiB or more are refused outright: a regressed bound then
// fails the test with std::bad_alloc instead of touching gigabytes.
namespace {
std::atomic<std::size_t> largest_request{0};
constexpr std::size_t kRefusedRequest = std::size_t{1} << 30;
}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = largest_request.load();
  while (n > seen && !largest_request.compare_exchange_weak(seen, n)) {
  }
  if (n < kRefusedRequest) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees a `new` paired with free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hpcp {
namespace {

constexpr std::size_t kNumHistories = 50;

/// A random but valid training history: n configurations with random
/// parameters and positive, roughly-decaying runtime curves over the small
/// scales. Deliberately messier than the simulator's output — persistence
/// must survive whatever a fit accepts.
ExtrapolationProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 12 + rng.uniform_index(28);   // 12..39 configs
  const std::size_t d = 2 + rng.uniform_index(3);     // 2..4 parameters
  ExtrapolationProblem problem;
  for (std::size_t j = 0; j < d; ++j) {
    problem.param_names.push_back("p" + std::to_string(j));
  }
  problem.small_scales = {1, 2, 4, 8};
  problem.target_scales = {16, 32};
  problem.train_configs = Matrix(n, d);
  problem.train_small_times = Matrix(n, problem.small_scales.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      problem.train_configs(i, j) = rng.uniform(1.0, 100.0);
    }
    const double base = rng.uniform(0.5, 50.0);
    const double serial_frac = rng.uniform(0.05, 0.9);
    for (std::size_t s = 0; s < problem.small_scales.size(); ++s) {
      const auto p = static_cast<double>(problem.small_scales[s]);
      const double amdahl = serial_frac + (1.0 - serial_frac) / p;
      problem.train_small_times(i, s) =
          base * amdahl * rng.lognormal_median(1.0, 0.1);
    }
  }
  return problem;
}

/// Small forests keep 50 fits fast; the serialization paths exercised are
/// identical to full-size models.
TwoLevelModel fit_model(const ExtrapolationProblem& problem,
                        std::uint64_t seed) {
  TwoLevelOptions opts;
  opts.forest.num_trees = 10;
  TwoLevelModel model(opts);
  Rng rng(seed);
  model.fit_checked(problem, rng).value_or_throw();
  return model;
}

std::string save_bytes(const TwoLevelModel& model) {
  std::string bytes;
  Serializer s(bytes);
  model.save(s);
  return bytes;
}

/// The archive's parse step (ModelArchive::load_model) without its
/// checksum: any exception, or bytes left over, is BadData.
Expected<TwoLevelModel> parse(std::string_view bytes) {
  try {
    Deserializer d(bytes);
    TwoLevelModel model = TwoLevelModel::load(d);
    if (d.consumed() != bytes.size()) {
      return Error{ErrorCode::BadData, "trailing bytes", "model bytes"};
    }
    return model;
  } catch (const std::exception& e) {
    return Error{ErrorCode::BadData, e.what(), "model bytes"};
  }
}

/// Offset of the first tree's node count: it follows the tree's tag, a
/// u64 length of 4 and the bytes "tree".
std::size_t first_node_count(const std::string& bytes) {
  const std::string tag = std::string("\x04\0\0\0\0\0\0\0", 8) + "tree";
  const std::size_t at = bytes.find(tag);
  EXPECT_NE(at, std::string::npos);
  return at + tag.size();
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));  // CI hosts are LE
}

TEST(PersistenceProperty, RoundTripPredictsBitwiseIdentically) {
  for (std::uint64_t seed = 1; seed <= kNumHistories; ++seed) {
    const ExtrapolationProblem problem = random_problem(seed);
    const TwoLevelModel model = fit_model(problem, seed);

    const auto loaded = parse(save_bytes(model));
    ASSERT_TRUE(loaded.has_value())
        << "seed " << seed << ": " << loaded.error().to_string();

    for (std::size_t i = 0; i < problem.num_configs(); ++i) {
      const auto a = model.predict(problem.train_configs.row(i), {});
      const auto b = loaded->predict(problem.train_configs.row(i), {});
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t t = 0; t < a.size(); ++t) {
        // Exact double comparison — bitwise for the finite values a
        // prediction must be.
        ASSERT_EQ(a[t], b[t])
            << "seed " << seed << " config " << i << " target " << t;
      }
    }
  }
}

TEST(PersistenceProperty, TruncatedArchivesReturnTypedErrors) {
  const ExtrapolationProblem problem = random_problem(7);
  const TwoLevelModel model = fit_model(problem, 7);
  const std::string full = save_bytes(model);
  ASSERT_GT(full.size(), 100u);

  // Every strict prefix must fail cleanly. Cut at many points across the
  // bytes, including mid-field positions.
  for (std::size_t k = 0; k < 32; ++k) {
    const std::size_t len = (full.size() - 1) * k / 31;
    const auto result = parse(std::string_view(full).substr(0, len));
    ASSERT_FALSE(result.has_value()) << "truncation to " << len
                                     << " bytes parsed as a whole model";
    EXPECT_EQ(result.error().code, ErrorCode::BadData);
    EXPECT_FALSE(result.error().message.empty());
  }
}

TEST(PersistenceProperty, BitFlippedArchivesNeverCrashLoad) {
  const ExtrapolationProblem problem = random_problem(9);
  const TwoLevelModel model = fit_model(problem, 9);
  const std::string full = save_bytes(model);

  // Flip one bit at positions spread over the whole model. A flip may
  // still yield a parseable model (e.g. inside a double's mantissa) —
  // that is fine; what is forbidden is an uncaught exception or crash.
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    const std::size_t pos = (full.size() - 1) * k / 63;
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x04);
    const auto result = parse(mutated);
    if (result.has_value()) {
      ++parsed;
    } else {
      ++rejected;
      EXPECT_EQ(result.error().code, ErrorCode::BadData);
    }
  }
  // The header tag alone guarantees some flips are rejected; if none were,
  // the checker is not actually validating.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(parsed + rejected, 64u);
}

TEST(PersistenceProperty, WrongFormatInputsReturnTypedErrors) {
  // The head of a model in the retired hexfloat text format is one of
  // the wrong formats.
  for (const auto& junk :
       {std::string{}, std::string{"not a model"},
        std::string{"@hpcpredict-two-level-v1\n9 two-level\n0\n1\n64\n"},
        std::string(4096, 'x'), std::string(64, '\0')}) {
    const auto result = parse(junk);
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error().code, ErrorCode::BadData);
  }
}

TEST(PersistenceProperty, OversizedNodeCountIsRejectedWithoutAllocating) {
  const ExtrapolationProblem problem = random_problem(11);
  const TwoLevelModel model = fit_model(problem, 11);
  std::string bytes = save_bytes(model);
  // 2^28 nodes of 40 bytes each would be 10 GiB of model bytes.
  put_u64(bytes, first_node_count(bytes), std::uint64_t{1} << 28);

  largest_request.store(0);
  const auto result = parse(bytes);
  const std::size_t largest = largest_request.load();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::BadData);
  EXPECT_LT(largest, std::size_t{1} << 20) << "the parse asked for "
                                           << largest << " bytes at once";

  // The same bytes as a crafted .hpcp whose checksum was recomputed: the
  // archive's checksum passes, so only the parser's bound stands between
  // the count and the allocation.
  const std::string path = ::testing::TempDir() + "/crafted_nodes.hpcp";
  ASSERT_TRUE(registry::write_model_archive(path, model, {}).has_value());
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    file = buf.str();
  }
  const std::size_t model_entry = 24 + 40;  // header, then meta's entry
  ASSERT_EQ(file.compare(model_entry, 6, std::string("model\0", 6)), 0);
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::memcpy(&offset, file.data() + model_entry + 16, sizeof(offset));
  std::memcpy(&size, file.data() + model_entry + 24, sizeof(size));
  ASSERT_EQ(file.substr(offset, size), save_bytes(model));
  put_u64(file, offset + first_node_count(save_bytes(model)),
          std::uint64_t{1} << 28);
  std::uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (std::size_t i = offset; i < offset + size; ++i) {
    checksum ^= static_cast<unsigned char>(file[i]);
    checksum *= 0x100000001b3ULL;
  }
  put_u64(file, model_entry + 32, checksum);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  largest_request.store(0);
  const auto via_archive = registry::load_model_any(path);
  ASSERT_FALSE(via_archive.has_value());
  EXPECT_EQ(via_archive.error().code, ErrorCode::BadData);
  EXPECT_NE(via_archive.error().message.find("model section corrupt"),
            std::string::npos)
      << via_archive.error().to_string();
  EXPECT_LT(largest_request.load(), std::size_t{1} << 20);
}

TEST(PersistenceProperty, MissingFileIsIoError) {
  const auto result =
      registry::load_model_any("/nonexistent/dir/model.hpcp");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::Io);
}

}  // namespace
}  // namespace hpcp
