/// Round-trip tests of model persistence: a loaded model must reproduce
/// the original's predictions bit-for-bit.

#include <gtest/gtest.h>

#include <string>

#include "src/common/serialize.hpp"
#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/registry/archive.hpp"

namespace hpcp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.app_name = "minimd";
  cfg.num_train = 60;
  cfg.num_test = 8;
  cfg.seed = 101;
  return cfg;
}

/// save + load through the in-memory codec, with no archive around it.
TwoLevelModel round_trip(const TwoLevelModel& model) {
  std::string bytes;
  Serializer s(bytes);
  model.save(s);
  Deserializer d(bytes);
  TwoLevelModel back = TwoLevelModel::load(d);
  EXPECT_EQ(d.consumed(), bytes.size());
  return back;
}

TEST(Serialize, PrimitiveRoundTrip) {
  std::string bytes;
  Serializer s(bytes);
  s.tag("test");
  s.write(0.1 + 0.2);  // not representable exactly in decimal
  s.write(std::size_t{42});
  s.write(std::int64_t{-7});
  s.write(true);
  s.write(std::string("hello world"));  // embedded space survives
  s.write(std::vector<double>{1.5, -2.5});
  s.write(std::vector<std::size_t>{1, 2, 3});
  s.write(std::vector<std::string>{"a b", "c"});

  Deserializer d(bytes);
  d.expect_tag("test");
  EXPECT_EQ(d.read_double(), 0.1 + 0.2);  // bitwise equality
  EXPECT_EQ(d.read_size(), 42u);
  EXPECT_EQ(d.read_int(), -7);
  EXPECT_TRUE(d.read_bool());
  EXPECT_EQ(d.read_string(), "hello world");
  EXPECT_EQ(d.read_doubles(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(d.read_sizes(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(d.read_strings(), (std::vector<std::string>{"a b", "c"}));
  EXPECT_EQ(d.consumed(), bytes.size());
}

TEST(Serialize, WrongTagThrows) {
  std::string bytes;
  Serializer s(bytes);
  s.tag("alpha");
  Deserializer d(bytes);
  EXPECT_THROW(d.expect_tag("beta"), std::runtime_error);
}

TEST(Serialize, TruncationThrows) {
  std::string bytes;
  Serializer s(bytes);
  s.tag("matrix");
  s.write(std::size_t{2});
  Deserializer d(bytes);
  d.expect_tag("matrix");
  EXPECT_EQ(d.read_size(), 2u);
  EXPECT_THROW((void)d.read_size(), std::runtime_error);
}

TEST(Serialize, CountBeyondTheBytesLeftThrows) {
  // A count of 2 followed by two doubles: exactly 16 bytes left.
  std::string bytes;
  Serializer s(bytes);
  s.write(std::vector<double>{1.0, 2.0});
  Deserializer fits(bytes);
  EXPECT_EQ(fits.read_count(sizeof(double)), 2u);
  Deserializer too_big(bytes);
  EXPECT_THROW((void)too_big.read_count(sizeof(double) + 1),
               std::runtime_error);
  // A count the bytes cannot hold is caught before anything is sized.
  std::string lying = bytes;
  lying[0] = 3;
  Deserializer short_read(lying);
  EXPECT_THROW((void)short_read.read_doubles(), std::runtime_error);
}

TEST(Serialize, NonBooleanByteThrows) {
  const std::string bytes(1, '\x02');
  Deserializer d(bytes);
  EXPECT_THROW((void)d.read_bool(), std::runtime_error);
}

TEST(Persistence, MatrixRoundTrip) {
  const Matrix m{{1.5, -2.25}, {0.0, 1e-300}};
  std::string bytes;
  Serializer s(bytes);
  m.save(s);
  Deserializer d(bytes);
  EXPECT_EQ(Matrix::load(d), m);
}

TEST(Persistence, MatrixShapeMustMatchItsData) {
  // rows × cols overflows to 0 in 64 bits; the loader must not be fooled
  // into accepting an empty payload for a 2^32 × 2^32 matrix.
  std::string bytes;
  Serializer s(bytes);
  s.tag("matrix");
  s.write(std::size_t{1} << 32);
  s.write(std::size_t{1} << 32);
  s.write(std::vector<double>{});
  Deserializer d(bytes);
  EXPECT_THROW((void)Matrix::load(d), std::runtime_error);
}

TEST(Persistence, ForestPredictionsIdenticalAfterRoundTrip) {
  const auto exp = make_experiment(small_config());
  RandomForest forest({.num_trees = 20});
  Rng rng(1);
  const auto y = exp.problem.train_small_times.column(0);
  forest.fit(exp.problem.train_configs, y, rng);

  std::string bytes;
  Serializer s(bytes);
  forest.save(s);
  Deserializer d(bytes);
  const RandomForest back = RandomForest::load(d);
  EXPECT_EQ(back.num_trees(), forest.num_trees());
  EXPECT_EQ(back.oob_mse(), forest.oob_mse());
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.predict(exp.test.configs.row(i)),
                     forest.predict(exp.test.configs.row(i)));
  }
}

TEST(Persistence, TwoLevelModelRoundTripBitExact) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(2);
  model.fit(exp.problem, rng);
  model.calibrate(exp.test.configs.row(0), 256,
                  exp.test.target_times(0, 3));

  const TwoLevelModel back = round_trip(model);

  EXPECT_EQ(back.name(), model.name());
  EXPECT_EQ(back.num_calibration_points(), 1u);
  EXPECT_EQ(back.extrapolation().num_clusters(),
            model.extrapolation().num_clusters());
  for (std::size_t i = 0; i < exp.test.size(); ++i) {
    const auto a = model.predict(exp.test.configs.row(i), {});
    const auto b = back.predict(exp.test.configs.row(i), {});
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_DOUBLE_EQ(a[t], b[t]) << "config " << i << " target " << t;
    }
    // Uncertainty intervals are seeded per input -> also identical.
    const auto ua = model.predict_with_uncertainty(exp.test.configs.row(i));
    const auto ub = back.predict_with_uncertainty(exp.test.configs.row(i));
    for (std::size_t t = 0; t < ua.size(); ++t) {
      EXPECT_DOUBLE_EQ(ua[t].lower, ub[t].lower);
      EXPECT_DOUBLE_EQ(ua[t].upper, ub[t].upper);
    }
  }
}

TEST(Persistence, FileRoundTrip) {
  const auto exp = make_experiment(small_config());
  TwoLevelModel model;
  Rng rng(3);
  model.fit(exp.problem, rng);
  const std::string path = ::testing::TempDir() + "/hpcp_model.hpcp";
  ASSERT_TRUE(registry::write_model_archive(path, model, {}).has_value());
  const TwoLevelModel back =
      registry::load_model_any(path).value_or_throw();
  const auto a = model.predict(exp.test.configs.row(0), {});
  const auto b = back.predict(exp.test.configs.row(0), {});
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_DOUBLE_EQ(a[t], b[t]);
}

TEST(Persistence, SingleTaskModeRoundTrips) {
  const auto exp = make_experiment(small_config());
  TwoLevelOptions opts;
  opts.extrapolation.multitask = false;
  TwoLevelModel model(opts);
  Rng rng(4);
  model.fit(exp.problem, rng);
  const TwoLevelModel back = round_trip(model);
  const auto a = model.predict(exp.test.configs.row(1), {});
  const auto b = back.predict(exp.test.configs.row(1), {});
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_DOUBLE_EQ(a[t], b[t]);
}

TEST(Persistence, UnfittedModelRefusesToSave) {
  const TwoLevelModel model;
  std::string bytes;
  Serializer s(bytes);
  EXPECT_THROW(model.save(s), std::invalid_argument);
}

TEST(Persistence, MissingFileThrows) {
  EXPECT_THROW(
      (void)registry::load_model_any("/nonexistent/model").value_or_throw(),
      std::runtime_error);
}

}  // namespace
}  // namespace hpcp
