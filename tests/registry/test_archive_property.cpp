/// Property tests of the sectioned `.hpcp` archive over many randomly
/// generated models: for every seed, the archive round trip must predict
/// bitwise-identically to the in-memory model it was written from. A file
/// in the retired hexfloat text format is refused as BadData.
/// Adversarial archives — truncated anywhere, bit-flipped anywhere, a
/// section table pointing past EOF — must come back from open()/
/// load_model() as typed BadData/Io errors, never as a crash, hang, or
/// out-of-bounds read (this file runs under the ASan/UBSan CI legs).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/problem.hpp"
#include "src/core/two_level_model.hpp"
#include "src/registry/archive.hpp"
#include "src/registry/registry.hpp"

namespace hpcp::registry {
namespace {

constexpr std::size_t kNumModels = 50;

/// Same random-history generator as the persistence property suite: valid
/// but deliberately messier than simulator output.
ExtrapolationProblem random_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 12 + rng.uniform_index(28);  // 12..39 configs
  const std::size_t d = 2 + rng.uniform_index(3);    // 2..4 parameters
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

/// Small forests keep 50 fits fast; the codec paths exercised are
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(ArchiveProperty, ArchiveRoundTripPredictsIdentically) {
  const std::string path = temp_path("prop_model.hpcp");
  for (std::uint64_t seed = 1; seed <= kNumModels; ++seed) {
    const ExtrapolationProblem problem = random_problem(seed);
    const TwoLevelModel model = fit_model(problem, seed);

    // The sectioned archive through the mmap open path.
    ArchiveMeta meta;
    meta.tenant = "prop";
    meta.version = seed;
    ASSERT_TRUE(write_model_archive(path, model, meta).has_value())
        << "seed " << seed;
    const auto archive = ModelArchive::open(path);
    ASSERT_TRUE(archive.has_value())
        << "seed " << seed << ": " << archive.error().to_string();
    EXPECT_EQ(archive->meta().tenant, "prop");
    EXPECT_EQ(archive->meta().version, seed);
    const auto via_binary = archive->load_model();
    ASSERT_TRUE(via_binary.has_value())
        << "seed " << seed << ": " << via_binary.error().to_string();

    for (std::size_t i = 0; i < problem.num_configs(); ++i) {
      const auto want = model.predict(problem.train_configs.row(i), {});
      const auto binary =
          via_binary->predict(problem.train_configs.row(i), {});
      ASSERT_EQ(want.size(), binary.size());
      for (std::size_t t = 0; t < want.size(); ++t) {
        // Exact double comparison — the loaded model must agree bitwise.
        ASSERT_EQ(want[t], binary[t])
            << "seed " << seed << " config " << i << " target " << t;
      }
    }
  }
}

TEST(ArchiveProperty, TextFormatModelFileIsBadData) {
  // The head of a model file as the retired hexfloat text codec wrote it.
  // Old text files are a documented break (retrain and save again): every
  // entry point that reads a model file must refuse them as BadData —
  // load_model_any (what `predict --model` calls) and `registry add`.
  const std::string text_path = temp_path("prop_text_model.txt");
  write_file(text_path,
             "@hpcpredict-two-level-v1\n9 two-level\n0\n1\n64\n"
             "0x1.999999999999ap-5\n0x1.e666666666666p-1\n"
             "@interpolation-level\n1\n4\n1\n2\n4\n8\n");

  const auto any = load_model_any(text_path);
  ASSERT_FALSE(any.has_value());
  EXPECT_EQ(any.error().code, ErrorCode::BadData);

  auto reg = Registry::open(temp_path("prop_text_store"));
  ASSERT_TRUE(reg.has_value()) << reg.error().to_string();
  const auto added = reg->add_from_file("default", text_path);
  ASSERT_FALSE(added.has_value());
  EXPECT_EQ(added.error().code, ErrorCode::BadData);
  EXPECT_TRUE(reg->list().empty());
}

TEST(ArchiveProperty, TruncationAnywhereIsATypedError) {
  const ExtrapolationProblem problem = random_problem(7);
  const TwoLevelModel model = fit_model(problem, 7);
  const std::string path = temp_path("prop_trunc.hpcp");
  ASSERT_TRUE(write_model_archive(path, model, {}).has_value());
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 200u);

  const std::string cut_path = temp_path("prop_trunc_cut.hpcp");
  // Cut at 32 points spread over the whole file: inside the magic, the
  // header, the section table, and both payloads ("short map" included).
  for (std::size_t k = 0; k < 32; ++k) {
    const std::size_t len = (full.size() - 1) * k / 31;
    write_file(cut_path, full.substr(0, len));
    const auto archive = ModelArchive::open(cut_path);
    if (!archive.has_value()) {
      EXPECT_TRUE(archive.error().code == ErrorCode::BadData ||
                  archive.error().code == ErrorCode::Io)
          << "cut to " << len << " bytes: unexpected code";
      continue;
    }
    // Header + table may still be intact; the payload parse must then
    // catch the loss via checksum or bounds.
    const auto loaded = archive->load_model();
    ASSERT_FALSE(loaded.has_value())
        << "cut to " << len << " bytes parsed as a whole model";
    EXPECT_EQ(loaded.error().code, ErrorCode::BadData);
    EXPECT_FALSE(loaded.error().message.empty());
  }
}

TEST(ArchiveProperty, BitFlipsNeverCrashAndNeverParseSilently) {
  const ExtrapolationProblem problem = random_problem(9);
  const TwoLevelModel model = fit_model(problem, 9);
  const std::string path = temp_path("prop_flip.hpcp");
  ASSERT_TRUE(write_model_archive(path, model, {}).has_value());
  const std::string full = read_file(path);

  const std::string flip_path = temp_path("prop_flip_mut.hpcp");
  std::size_t rejected = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    const std::size_t pos = (full.size() - 1) * k / 63;
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    write_file(flip_path, mutated);
    const auto archive = ModelArchive::open(flip_path);
    if (!archive.has_value()) {
      EXPECT_EQ(archive.error().code, ErrorCode::BadData);
      ++rejected;
      continue;
    }
    const auto loaded = archive->load_model();
    if (!loaded.has_value()) {
      EXPECT_EQ(loaded.error().code, ErrorCode::BadData);
      ++rejected;
    }
    // A flip that survives both checks would be a checksum collision;
    // FNV-1a over a single bit flip cannot collide, so every flip must
    // be caught by header validation or a section checksum.
  }
  EXPECT_EQ(rejected, 64u);
}

TEST(ArchiveProperty, GarbageAndShortFilesAreTypedErrors) {
  const std::string path = temp_path("prop_garbage.hpcp");
  for (const auto& junk :
       {std::string{}, std::string{"HPCP"}, std::string{"not an archive"},
        std::string(7, '\0'), std::string(4096, 'x')}) {
    write_file(path, junk);
    const auto archive = ModelArchive::open(path);
    ASSERT_FALSE(archive.has_value()) << "junk of " << junk.size()
                                      << " bytes opened";
    EXPECT_EQ(archive.error().code, ErrorCode::BadData);
  }
  // A section table whose offsets point past EOF ("short map"): take a
  // real header+table and drop the payloads entirely.
  const ExtrapolationProblem problem = random_problem(5);
  const TwoLevelModel model = fit_model(problem, 5);
  const std::string real_path = temp_path("prop_shortmap_src.hpcp");
  ASSERT_TRUE(write_model_archive(real_path, model, {}).has_value());
  const std::string full = read_file(real_path);
  const std::size_t header_and_table = 24 + 2 * 40;  // 2 sections
  ASSERT_GT(full.size(), header_and_table);
  write_file(path, full.substr(0, header_and_table));
  const auto archive = ModelArchive::open(path);
  ASSERT_FALSE(archive.has_value());
  EXPECT_EQ(archive.error().code, ErrorCode::BadData);
}

TEST(ArchiveProperty, MissingFileIsIoError) {
  const auto archive = ModelArchive::open("/nonexistent/dir/model.hpcp");
  ASSERT_FALSE(archive.has_value());
  EXPECT_EQ(archive.error().code, ErrorCode::Io);
  const auto any = load_model_any("/nonexistent/dir/model.hpcp");
  ASSERT_FALSE(any.has_value());
  EXPECT_EQ(any.error().code, ErrorCode::Io);
}

}  // namespace
}  // namespace hpcp::registry
