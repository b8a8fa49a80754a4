/// Resilience-layer Server tests: the bounded line reader, admission
/// control and shedding, degraded cache-only mode, the health probe,
/// request deadlines against an injected clock, and a torn archive
/// failing a tenant reload while the old epoch keeps serving.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/registry/registry.hpp"
#include "src/serve/server.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

using fixture::default_server;
using fixture::predict_line;
using fixture::trained;

std::vector<std::string> run_lines(Server& server, const std::string& in_text) {
  std::istringstream in(in_text);
  std::ostringstream out;
  (void)server.run(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

TEST(ServeResilience, OverlongLineIsDiscardedWithTypedError) {
  const auto server = default_server({.max_line_bytes = 128});
  const std::string huge = "{\"params\":[" + std::string(4096, '1') + "]}";
  // The over-long line is answered and the stream stays line-aligned: the
  // next request is parsed normally.
  const auto lines =
      run_lines(*server, huge + "\n" + predict_line(0) + "\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"code\":\"too-large\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("max_line_bytes=128"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  EXPECT_EQ(server->too_large_rejects(), 1u);
}

TEST(ServeResilience, HandleLineAppliesTheSameBound) {
  const auto server = default_server({.max_line_bytes = 16});
  const std::string response =
      server->handle_line("{\"params\":[1,2,3,4,5,6,7,8,9]}");
  EXPECT_NE(response.find("\"code\":\"too-large\""), std::string::npos);
  EXPECT_EQ(server->too_large_rejects(), 1u);
}

TEST(ServeResilience, AdmissionControlShedsAboveMaxPending) {
  const auto server = default_server(
      {.batch_max = 8, .max_pending = 2, .retry_after_ms = 75});
  std::string burst;
  for (std::size_t i = 0; i < 8; ++i) burst += predict_line(i) + "\n";
  const auto lines = run_lines(*server, burst);
  ASSERT_EQ(lines.size(), 8u);
  // First two admitted, the rest shed — and responses stay in request
  // order with the client's ids echoed.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i)),
              std::string::npos)
        << lines[i];
    if (i < 2) {
      EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos) << lines[i];
    } else {
      EXPECT_NE(lines[i].find("\"code\":\"overloaded\""), std::string::npos)
          << lines[i];
      EXPECT_NE(lines[i].find("\"retry_after_ms\":75"), std::string::npos)
          << lines[i];
    }
  }
  EXPECT_EQ(server->sheds(), 6u);
  EXPECT_FALSE(server->degraded());  // default shed streak is far higher
}

TEST(ServeResilience, SustainedSaturationEntersAndExitsDegradedMode) {
  const auto server = default_server({.batch_max = 16,
                                      .max_pending = 1,
                                      .degraded_shed_streak = 4});
  // Prime the cache while healthy.
  const std::string cached = server->handle_line(predict_line(0));
  ASSERT_NE(cached.find("\"ok\":true"), std::string::npos);
  std::string burst;
  for (std::size_t i = 0; i < 8; ++i) burst += predict_line(i) + "\n";
  auto lines = run_lines(*server, burst);
  EXPECT_TRUE(server->degraded());
  EXPECT_EQ(server->sheds(), 7u);
  // Cache-only mode: the burst's one admitted request is a cache hit and
  // is still served, byte-identically.
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[0], cached);
  // A miss admitted while saturated gets the typed rejection instead.
  burst.clear();
  for (std::size_t i = 1; i < 9; ++i) burst += predict_line(i) + "\n";
  lines = run_lines(*server, burst);
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_NE(lines[0].find("\"code\":\"degraded\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"retry_after_ms\""), std::string::npos);
  // One successfully admitted request relieves the saturation signal.
  (void)server->handle_line(predict_line(0));
  EXPECT_FALSE(server->degraded());
}

TEST(ServeResilience, HealthProbeReportsModeAndCounters) {
  const auto server =
      default_server({.max_pending = 1, .degraded_shed_streak = 2});
  const std::string healthy = server->handle_line(R"({"id":"h","cmd":"health"})");
  EXPECT_NE(healthy.find("\"id\":\"h\""), std::string::npos);
  EXPECT_NE(healthy.find("\"status\":\"ok\""), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("\"max_pending\":1"), std::string::npos);
  EXPECT_NE(healthy.find("\"shed\":0"), std::string::npos);
  EXPECT_NE(healthy.find("\"registry\":{"), std::string::npos) << healthy;
  EXPECT_EQ(healthy.find("\"retry_after_ms\""), std::string::npos)
      << "healthy probes carry no retry hint";

  // A burst of three against max_pending=1 sheds two: saturation.
  std::string burst;
  for (std::size_t i = 0; i < 3; ++i) burst += predict_line(i) + "\n";
  (void)run_lines(*server, burst);
  const std::string degraded = server->handle_line(R"({"cmd":"health"})");
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"shed\":2"), std::string::npos);
  EXPECT_NE(degraded.find("\"retry_after_ms\""), std::string::npos);

  Server empty;  // no store attached
  const std::string unavailable = empty.handle_line(R"({"cmd":"health"})");
  EXPECT_NE(unavailable.find("\"status\":\"unavailable\""),
            std::string::npos)
      << unavailable;
}

TEST(ServeResilience, DeadlineExpiryIsATypedErrorUnderTheInjectedClock) {
  // Every clock read jumps 40ms, so a 10ms deadline has always expired by
  // flush time; wall time is never consulted.
  std::uint64_t t = 0;
  const auto server = default_server({
      .request_deadline_ms = 10,
      .clock_ms = [&t] { return t += 40; },
  });
  const auto lines =
      run_lines(*server, predict_line(0) + "\n" + predict_line(1) + "\n");
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"code\":\"deadline\""), std::string::npos) << line;
  }
  EXPECT_EQ(server->deadline_rejects(), 2u);
  EXPECT_EQ(server->requests_served(), 0u);
}

TEST(ServeResilience, DeadlineDisabledByDefaultIgnoresTheClock) {
  std::uint64_t t = 0;
  const auto server =
      default_server({.clock_ms = [&t] { return t += 100000; }});
  const std::string response = server->handle_line(predict_line(0));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(server->deadline_rejects(), 0u);
}

TEST(ServeResilience, TornArchiveFailsCleanlyAndOldFileStillLoads) {
  const std::string root =
      fixture::write_store({{registry::kDefaultTenant, &trained().model}});
  const auto archive = [&root](std::uint64_t version) {
    return (std::filesystem::path(root) / registry::kDefaultTenant /
            (std::to_string(version) + ".hpcp"))
        .string();
  };
  const auto server = fixture::attach(root);
  ASSERT_NE(server->handle_line(predict_line(0)).find("\"ok\":true"),
            std::string::npos);

  // Simulate a publisher that crashed mid-write: version 2 is a strict
  // prefix of a good archive's bytes.
  std::ifstream in(archive(1), std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string full = bytes.str();
  std::ofstream torn(archive(2), std::ios::binary | std::ios::trunc);
  torn.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
  torn.close();
  EXPECT_FALSE(TwoLevelModel::load_file_checked(archive(2)).has_value());

  // The tenant reload reports a typed error; the old epoch keeps serving
  // at version 1, and health names the failure for this tenant only.
  const std::string response =
      server->handle_line(R"({"cmd":"reload","tenant":"default"})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  const std::string survivor = server->handle_line(predict_line(0));
  EXPECT_NE(survivor.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(survivor.find("\"model_version\":1"), std::string::npos);
  const std::string health = server->handle_line(R"({"cmd":"health"})");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"load_failures\":1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"last_error\""), std::string::npos) << health;
}

}  // namespace
}  // namespace hpcp::serve
