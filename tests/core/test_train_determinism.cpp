/// Thread-count determinism matrix — the proof obligation for the parallel
/// training pipeline (DESIGN.md, "Parallel training & determinism
/// contract"): fitting at 1, 2, and 8 worker threads must produce a
/// byte-identical serialized model and bitwise-identical predictions. The
/// host's core count is irrelevant to the contract — an 8-thread pool on a
/// single core still interleaves its workers arbitrarily, which is exactly
/// the scheduling freedom the contract has to be immune to.

#include <gtest/gtest.h>

#include <string>

#include "src/common/serialize.hpp"
#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"

namespace hpcp {
namespace {

ExperimentConfig matrix_config() {
  ExperimentConfig cfg;
  cfg.app_name = "heat3d";
  cfg.num_train = 72;
  cfg.num_test = 10;
  cfg.seed = 2024;
  return cfg;
}

const Experiment& shared_experiment() {
  static const Experiment exp = make_experiment(matrix_config());
  return exp;
}

struct FitResult {
  std::string archive;
  std::vector<std::vector<double>> predictions;
  std::size_t reported_threads = 0;
};

FitResult fit_at(std::size_t threads) {
  const auto& exp = shared_experiment();
  TwoLevelModel model;
  Rng rng(11);
  const TrainReport report =
      model.fit_checked(exp.problem, rng, {.threads = threads})
          .value_or_throw();
  FitResult result;
  result.reported_threads = report.threads;
  Serializer out(result.archive);
  model.save(out);
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    result.predictions.push_back(model.predict(exp.test.configs.row(i), {}));
  }
  return result;
}

/// The serial fit every parallel fit must reproduce exactly.
const FitResult& reference() {
  static const FitResult ref = fit_at(1);
  return ref;
}

class ThreadMatrix : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadMatrix, SerializedModelIsByteIdentical) {
  const FitResult fit = fit_at(GetParam());
  ASSERT_EQ(fit.archive.size(), reference().archive.size());
  // EXPECT_EQ on the strings would dump megabytes on failure; compare and
  // report the first differing offset instead.
  if (fit.archive != reference().archive) {
    std::size_t at = 0;
    while (at < fit.archive.size() &&
           fit.archive[at] == reference().archive[at]) {
      ++at;
    }
    FAIL() << "archives diverge at byte " << at << " (threads="
           << GetParam() << ")";
  }
}

TEST_P(ThreadMatrix, PredictionsAreBitwiseIdentical) {
  const FitResult fit = fit_at(GetParam());
  ASSERT_EQ(fit.predictions.size(), reference().predictions.size());
  for (std::size_t i = 0; i < fit.predictions.size(); ++i) {
    for (std::size_t t = 0; t < fit.predictions[i].size(); ++t) {
      // EXPECT_EQ on doubles is exact comparison — bitwise for non-NaN.
      EXPECT_EQ(fit.predictions[i][t], reference().predictions[i][t])
          << "config " << i << " target " << t << " threads " << GetParam();
    }
  }
}

TEST_P(ThreadMatrix, ReportRecordsRequestedThreadCount) {
  EXPECT_EQ(fit_at(GetParam()).reported_threads, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadMatrix,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// Two independent fits at the widest pool must also agree with each other
// (not just with the serial reference): reruns under different OS
// scheduling are the everyday way nondeterminism would surface.
TEST(ThreadDeterminism, RepeatedWideFitsAgree) {
  const FitResult a = fit_at(8);
  const FitResult b = fit_at(8);
  EXPECT_EQ(a.archive, b.archive);
}

}  // namespace
}  // namespace hpcp
