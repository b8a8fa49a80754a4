/// End-to-end Server tests: request routing, hot reload semantics (a
/// failed tenant reload must leave the old epoch serving), version-keyed
/// cache invalidation, the stdio transport, and the serve determinism
/// contract — one request stream must produce byte-identical responses
/// for any worker count, cache configuration, and micro-batch bound, and
/// run() must answer exactly as handle_batch does.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/registry/registry.hpp"
#include "src/serve/server.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

using fixture::default_server;
using fixture::make_server;
using fixture::predict_line;
using fixture::trained;

/// A private one-tenant store (tests that publish new versions into it)
/// and a server over it.
struct PrivateStore {
  std::string root = fixture::write_store(
      {{registry::kDefaultTenant, &trained().model}});
  std::unique_ptr<Server> server = fixture::attach(root);

  [[nodiscard]] std::string archive(std::uint64_t version) const {
    return (std::filesystem::path(root) / registry::kDefaultTenant /
            (std::to_string(version) + ".hpcp"))
        .string();
  }
};

TEST(ServeServer, PredictAnswersWithModelVersion) {
  const auto server = default_server();
  const std::string response = server->handle_line(predict_line(0, "[64]"));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.find("\"model_version\":1"), std::string::npos);
  EXPECT_NE(response.find("\"scales\":[64]"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(ServeServer, OmittedScalesFallBackToModelTargets) {
  const auto server = default_server();
  const auto targets = trained().model.extrapolation().target_scales();
  std::string expect = "\"scales\":[";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) expect += ',';
    expect += std::to_string(targets[i]);
  }
  expect += ']';
  EXPECT_NE(server->handle_line(predict_line(0, "")).find(expect),
            std::string::npos);
}

TEST(ServeServer, ServerWithoutModelIsUnavailable) {
  Server server;  // no store attached
  const std::string response = server.handle_line(predict_line(0, "[64]"));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"code\":\"unavailable\""), std::string::npos);
}

TEST(ServeServer, ParamsWidthMismatchIsATypedError) {
  const auto server = default_server();
  const std::string response =
      server->handle_line(R"({"id":9,"params":[1.0],"scales":[64]})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("width mismatch"), std::string::npos);
  EXPECT_NE(response.find("\"id\":9"), std::string::npos);
}

TEST(ServeServer, MalformedLineStillGetsAResponseLine) {
  const auto server = default_server();
  const std::string response = server->handle_line("{{{");
  EXPECT_NE(response.find("\"code\":\"bad-request\""), std::string::npos);
}

TEST(ServeServer, FailedReloadKeepsTheOldModelServing) {
  const PrivateStore store;
  const std::string before =
      store.server->handle_line(predict_line(1, "[64,256]"));
  // A torn version 2 (a crashed publisher) is the latest on disk.
  std::ofstream(store.archive(2), std::ios::binary) << "HPCPARC1 torn";
  const std::string response = store.server->handle_line(
      R"({"id":"r","cmd":"reload","tenant":"default"})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"code\":\"bad-data\""), std::string::npos)
      << response;
  // The old epoch still answers, byte-identically, at version 1.
  EXPECT_EQ(store.server->handle_line(predict_line(1, "[64,256]")), before);
  EXPECT_NE(before.find("\"model_version\":1"), std::string::npos);
}

TEST(ServeServer, SuccessfulReloadBumpsVersionAndClearsCache) {
  const PrivateStore store;
  (void)store.server->handle_line(predict_line(0, "[64]"));
  EXPECT_GT(store.server->cache().size(), 0u);
  auto reg = registry::Registry::open(store.root).value_or_throw();
  ASSERT_EQ(reg.add_model(registry::kDefaultTenant, trained().model)
                .value_or_throw(),
            2u);
  const std::string response = store.server->handle_line(
      R"({"cmd":"reload","tenant":"default"})");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"model_version\":2"), std::string::npos);
  // The cache is keyed on the version: the old model's values can no
  // longer answer, so the same request is a miss and advertises v2.
  const std::uint64_t misses = store.server->cache().misses();
  EXPECT_NE(store.server->handle_line(predict_line(0, "[64]"))
                .find("\"model_version\":2"),
            std::string::npos);
  EXPECT_EQ(store.server->cache().misses(), misses + 1);
}

TEST(ServeServer, ReloadWithoutPathReReadsTheSourceArchive) {
  const PrivateStore store;
  (void)store.server->handle_line(predict_line(0, "[64]"));  // resident
  auto reg = registry::Registry::open(store.root).value_or_throw();
  (void)reg.add_model(registry::kDefaultTenant, trained().model)
      .value_or_throw();
  // A tenant-less reload rescans the store and re-reads every resident
  // tenant's latest archive.
  const std::string response =
      store.server->handle_line(R"({"cmd":"reload"})");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"resident\":1"), std::string::npos) << response;
  EXPECT_NE(store.server->handle_line(predict_line(0, "[64]"))
                .find("\"model_version\":2"),
            std::string::npos);
  // Reload by path is gone: the store is the only source of models.
  const std::string by_path = store.server->handle_line(
      R"({"cmd":"reload","model":"/some/model.txt"})");
  EXPECT_NE(by_path.find("\"code\":\"bad-request\""), std::string::npos)
      << by_path;
}

TEST(ServeServer, SighupFlagTriggersAnOutOfBandReload) {
  const PrivateStore store;
  (void)store.server->handle_line(predict_line(0, "[64]"));  // resident
  auto reg = registry::Registry::open(store.root).value_or_throw();
  (void)reg.add_model(registry::kDefaultTenant, trained().model)
      .value_or_throw();
  reload_flag().store(true);
  std::istringstream in(predict_line(0, "[64]") + "\n");
  std::ostringstream out;
  EXPECT_FALSE(store.server->run(in, out));  // EOF, not shutdown
  EXPECT_FALSE(reload_flag().load());
  // Reloaded before serving, and exactly one response line: the reload
  // itself was silent.
  EXPECT_NE(out.str().find("\"model_version\":2"), std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);
}

TEST(ServeServer, ShutdownStopsTheLoopAndAcks) {
  const auto server = default_server();
  std::istringstream in(predict_line(0, "[64]") +
                        "\n{\"cmd\":\"shutdown\"}\n" +
                        predict_line(1, "[64]") + "\n");
  std::ostringstream out;
  EXPECT_TRUE(server->run(in, out));
  // Two lines: the predict response and the shutdown ack; the request
  // after shutdown was never read.
  EXPECT_NE(out.str().find("\"cmd\":\"shutdown\""), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST(ServeServer, BlankLinesProduceNoResponse) {
  const auto server = default_server();
  EXPECT_EQ(server->handle_line(""), "");
  EXPECT_EQ(server->handle_line("  \t"), "");
  std::istringstream in("\n \n" + predict_line(0, "[64]") + "\n\n");
  std::ostringstream out;
  (void)server->run(in, out);
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);  // one response
}

TEST(ServeServer, StatsReportsCacheCounters) {
  const auto server =
      default_server({.cache_entries = 128, .cache_shards = 2});
  (void)server->handle_line(predict_line(0, "[64]"));
  (void)server->handle_line(predict_line(0, "[64]"));  // cache hit
  const std::string stats = server->handle_line(R"({"cmd":"stats"})");
  EXPECT_NE(stats.find("\"requests\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_hits\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_capacity\":128"), std::string::npos);
}

TEST(ServeServer, NonFinitePredictionIsATypedNumericErrorAndNotCached) {
  // Calibrating over and over with the largest finite runtime, measured
  // at a scale so large the raw prediction is tiny, drives the cluster's
  // median log-ratio past log(DBL_MAX): the calibration factor, and with
  // it every prediction for configurations of that cluster, overflows.
  TwoLevelModel model = trained().model;
  const auto params = trained().exp.test.configs.row(0);
  for (int i = 0; i < 200; ++i) {
    model.calibrate(params, std::size_t{1} << 30,
                    std::numeric_limits<double>::max());
  }
  const std::vector<std::size_t> scale{64};
  ASSERT_FALSE(std::isfinite(model.predict_scaling_curve(params, scale)[0]));

  const auto server = make_server({{registry::kDefaultTenant, &model}});
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::string response = server->handle_line(predict_line(0, "[64]"));
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"code\":\"numeric\""), std::string::npos)
        << response;
    EXPECT_EQ(response.find("null"), std::string::npos) << response;
  }
  // Neither answer was cached: both requests missed.
  const std::string stats = server->handle_line(R"({"cmd":"stats"})");
  EXPECT_NE(stats.find("\"cache_hits\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_entries\":0"), std::string::npos) << stats;
}

/// The determinism contract, in-process: one replay, many configurations.
TEST(ServeServer, ReplayIsBitwiseIdenticalAcrossWorkersAndCache) {
  std::string replay;
  for (std::size_t i = 0; i < 240; ++i) {
    switch (i % 6) {
      case 0: replay += predict_line(i, "[64,256]"); break;
      case 1: replay += predict_line(0, "[64,256]"); break;  // repeat: hits
      case 2: replay += predict_line(i, ""); break;          // default scales
      case 3: replay += predict_line(i, "[128]"); break;
      case 4: replay += R"({"id":-1,"params":[0.5],"scales":[64]})"; break;
      case 5: replay += "definitely not json"; break;
    }
    replay += '\n';
  }

  const auto run_replay = [&replay](ServeOptions opts) {
    const auto server = default_server(opts);
    std::istringstream in(replay);
    std::ostringstream out;
    (void)server->run(in, out);
    return out.str();
  };

  const std::string reference = run_replay({.threads = 1});
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run_replay({.threads = 4}), reference) << "worker count leaked";
  EXPECT_EQ(run_replay({.threads = 4, .cache_entries = 0}), reference)
      << "cache on/off leaked";
  EXPECT_EQ(run_replay({.threads = 2, .cache_entries = 3,
                        .cache_shards = 2}),
            reference)
      << "cache eviction leaked";
  EXPECT_EQ(run_replay({.threads = 4, .batch_max = 1}), reference)
      << "batching leaked";
  EXPECT_EQ(run_replay({.threads = 4, .batch_max = 512}), reference)
      << "batching leaked";

  // handle_line (a batch of one) must agree with the streamed loop.
  const auto one = default_server();
  std::string lines;
  std::istringstream in(replay);
  std::string line;
  while (std::getline(in, line)) {
    const std::string response = one->handle_line(line);
    if (!response.empty()) lines += response + '\n';
  }
  EXPECT_EQ(lines, reference);
}

/// The stdio transport is handle_batch over windows: run() must write
/// exactly the non-empty responses one handle_batch call gives for the
/// same lines — blank, over-long, control and a mid-stream shutdown
/// included (nothing after the shutdown is looked at).
TEST(ServeServer, RunMatchesHandleBatchByteForByte) {
  constexpr std::size_t kMaxLine = 256;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 40; ++i) {
    switch (i % 8) {
      case 0: lines.push_back(predict_line(i, "[64,256]")); break;
      case 1: lines.push_back(""); break;
      case 2: lines.push_back("  \t"); break;
      case 3:
        lines.push_back("{\"params\":[" + std::string(2 * kMaxLine, '1') +
                        "]}");
        break;
      case 4: lines.push_back(R"({"id":"p","cmd":"ping"})"); break;
      case 5: lines.push_back(predict_line(0, "[64,256]")); break;
      case 6: lines.push_back("not json"); break;
      case 7: lines.push_back(R"({"id":"r","cmd":"reload"})"); break;
    }
  }
  lines[30] = R"({"id":"bye","cmd":"shutdown"})";
  std::string text;
  for (const std::string& line : lines) text += line + '\n';

  const ServeOptions opts{.batch_max = 4, .max_line_bytes = kMaxLine};
  const auto streamed = default_server(opts);
  std::istringstream in(text);
  std::ostringstream out;
  EXPECT_TRUE(streamed->run(in, out));

  std::vector<Server::BatchLine> window;
  for (const std::string& line : lines) {
    window.push_back({line, line.size() > kMaxLine});
  }
  const auto windowed = default_server(opts);
  const Server::BatchOutcome outcome = windowed->handle_batch(window);
  EXPECT_TRUE(outcome.shutdown);
  EXPECT_EQ(outcome.consumed, 31u);
  std::string expect;
  for (const std::string& response : outcome.responses) {
    if (!response.empty()) expect += response + '\n';
  }
  EXPECT_EQ(out.str(), expect);
  EXPECT_NE(expect.find("\"code\":\"too-large\""), std::string::npos);
  EXPECT_NE(expect.find("\"id\":\"bye\",\"ok\":true,\"cmd\":\"shutdown\""),
            std::string::npos);
  EXPECT_EQ(streamed->requests_served(), windowed->requests_served());
}

}  // namespace
}  // namespace hpcp::serve
