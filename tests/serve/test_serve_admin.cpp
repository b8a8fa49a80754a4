/// Admin scrape plane + request-lifecycle observability. The plane rides
/// the data plane's epoll loop, so the contract under test is twofold:
/// the endpoints answer (valid Prometheus text, a jsonlite-parseable
/// hpcp-stats/1 snapshot, health with HTTP status mirroring the probe)
/// AND scraping — even a hammering scraper, even one racing injected
/// transport faults — never changes a single data-plane response byte.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/jsonlite.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/admin.hpp"
#include "src/serve/faults.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

using fixture::predict_line;

/// Blocking loopback client with a receive timeout (same harness as the
/// TCP front-end tests).
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { close(); }

  [[nodiscard]] bool connected() const { return connected_; }

  void send(const std::string& text) {
    const char* p = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  std::string recv_line() {
    std::string line;
    char c;
    for (;;) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// Reads to EOF — the admin plane closes after one response.
  std::string recv_all() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// One listener with the admin plane enabled, both on kernel-assigned
/// ports, torn down by a shutdown command.
class Listener {
 public:
  explicit Listener(TcpOptions opts = {}, ServeOptions serve_opts = {}) {
    server_ = fixture::default_server(serve_opts);
    opts.bound_port = &port_;
    opts.admin_port = 0;
    opts.admin_bound_port = &admin_port_;
    thread_ = std::thread([this, opts] {
      const auto result = run_tcp_server(*server_, 0, log_, opts);
      ok_ = result.has_value();
      done_.store(true, std::memory_order_release);
    });
    while (port_.load(std::memory_order_acquire) == 0 ||
           admin_port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~Listener() {
    if (thread_.joinable()) {
      shutdown();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const {
    return port_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint16_t admin_port() const {
    return admin_port_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::string log() {
    join();
    return log_.str();
  }

  /// Retries until the loop actually exits: with transport faults active
  /// the shutdown line itself can fall to an injected disconnect.
  void shutdown() {
    for (int i = 0; i < 100 && !done_.load(std::memory_order_acquire);
         ++i) {
      Client client(port());
      client.send("{\"cmd\":\"shutdown\"}\n");
      (void)client.recv_line();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void join() {
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(ok_);
  }

 private:
  std::unique_ptr<Server> server_;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::uint16_t> admin_port_{0};
  std::atomic<bool> done_{false};
  std::ostringstream log_;
  std::thread thread_;
  bool ok_ = false;
};

/// One HTTP exchange against the admin plane; returns the raw response.
std::string http_get(std::uint16_t admin_port, const std::string& request) {
  Client client(admin_port);
  if (!client.connected()) return "";
  client.send(request);
  return client.recv_all();
}

/// Splits an HTTP response at the header/body boundary; returns the body.
std::string http_body(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

TEST(ServeAdmin, StatszIsAParseableStatsSnapshot) {
  Listener listener;
  // Serve two predicts one at a time (the second is then a guaranteed
  // cache hit) so the snapshot has data.
  Client data(listener.port());
  ASSERT_TRUE(data.connected());
  data.send(predict_line(0) + "\n");
  EXPECT_NE(data.recv_line().find("\"ok\":true"), std::string::npos);
  data.send(predict_line(0) + "\n");
  EXPECT_NE(data.recv_line().find("\"ok\":true"), std::string::npos);

  const std::string response =
      http_get(listener.admin_port(), "GET /statsz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);

  const obs::JsonValue doc = obs::parse_json(http_body(response));
  EXPECT_EQ(doc.at("schema").as_string(), "hpcp-stats/1");
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  // Versions are per tenant: the server-level field stays 0 and the
  // registry block names the resident version.
  EXPECT_EQ(doc.at("model_version").as_number(), 0.0);
  EXPECT_EQ(doc.at("registry").at("tenants").at("default").at("version")
                .as_number(),
            1.0);
  EXPECT_EQ(doc.at("requests").as_number(), 2.0);
  EXPECT_EQ(doc.at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(doc.at("responses").at("ok").as_number(), 2.0);
  const auto& windows = doc.at("windows").as_array();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].at("window_s").as_number(), 1.0);
  EXPECT_EQ(windows[2].at("window_s").as_number(), 60.0);
  // 60s window: both requests are inside it, one was a cache hit.
  EXPECT_EQ(windows[2].at("requests").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(windows[2].at("cache_hit_rate").as_number(), 0.5);

  // The slow log carries the full lifecycle: admitted requests have
  // monotonically increasing ids and stamped write-drained times.
  const auto& slow = doc.at("slow_log").as_array();
  ASSERT_EQ(slow.size(), 2u);
  for (const auto& entry : slow) {
    EXPECT_GT(entry.at("id").as_number(), 0.0);
    EXPECT_GT(entry.at("total_us").as_number(), 0.0);
    EXPECT_GE(entry.at("predict_done_us").as_number(),
              entry.at("batch_start_us").as_number());
  }
  data.close();
}

TEST(ServeAdmin, MetricsEndpointServesPrometheusText) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::global_metrics().reset_values();
  Listener listener;
  Client data(listener.port());
  data.send(predict_line(0) + "\n");
  (void)data.recv_line();
  data.close();

  const std::string response =
      http_get(listener.admin_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = http_body(response);
  EXPECT_NE(body.find("# TYPE serve_requests counter"), std::string::npos)
      << body;
  EXPECT_NE(body.find("serve_requests 1"), std::string::npos) << body;
  // Scrapes are themselves counted (the count lands before rendering).
  EXPECT_NE(body.find("serve_admin_requests 1"), std::string::npos) << body;
  const std::string again = http_body(
      http_get(listener.admin_port(), "GET /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_NE(again.find("serve_admin_requests 2"), std::string::npos);
  obs::set_metrics_enabled(was_enabled);
  obs::global_metrics().reset_values();
}

TEST(ServeAdmin, HealthzMirrorsTheHealthProbe) {
  Listener listener;
  const std::string response =
      http_get(listener.admin_port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  const obs::JsonValue doc = obs::parse_json(http_body(response));
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_EQ(doc.at("ok").as_bool(), true);
  EXPECT_GE(doc.at("uptime_ms").as_number(), 0.0);
  EXPECT_TRUE(doc.contains("responses"));
}

TEST(ServeAdmin, UnknownRoutesAndMethodsGetTypedStatuses) {
  Listener listener;
  EXPECT_NE(http_get(listener.admin_port(), "GET /nope HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(http_get(listener.admin_port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405"),
            std::string::npos);
  EXPECT_NE(http_get(listener.admin_port(), "garbage\r\n\r\n")
                .find("HTTP/1.0 400"),
            std::string::npos);
  const std::string long_head =
      "GET /" + std::string(2 * kMaxAdminRequestBytes, 'x') + "\r\n\r\n";
  EXPECT_NE(http_get(listener.admin_port(), long_head).find("HTTP/1.0 431"),
            std::string::npos);
  // The data plane is untouched by all of the above.
  Client data(listener.port());
  data.send(predict_line(0) + "\n");
  EXPECT_NE(data.recv_line().find("\"ok\":true"), std::string::npos);
  data.close();
}

TEST(ServeAdmin, StatsCommandWrapsTheSameSnapshot) {
  const auto server = fixture::default_server();
  (void)server->handle_line(predict_line(0));
  const std::string response =
      server->handle_line(R"({"id":7,"cmd":"stats"})");
  EXPECT_NE(response.find("\"id\":7"), std::string::npos);
  EXPECT_NE(response.find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(response.find("\"schema\":\"hpcp-serve/1\""), std::string::npos);
  EXPECT_NE(response.find("\"stats\":{\"schema\":\"hpcp-stats/1\""),
            std::string::npos);
  // Existing flat keys stay where stats consumers expect them.
  EXPECT_NE(response.find("\"requests\":1"), std::string::npos);
  EXPECT_NE(response.find("\"windows\":["), std::string::npos);
}

TEST(ServeAdmin, TraceDumpSnapshotsTheRingToAFile) {
  const auto server = fixture::default_server();
  // Without a path the command is a typed protocol error.
  EXPECT_NE(server->handle_line(R"({"cmd":"trace-dump"})")
                .find("\"code\":\"bad-request\""),
            std::string::npos);

  const std::string path = ::testing::TempDir() + "/hpcp_trace_dump.json";
  std::remove(path.c_str());
  const std::string response = server->handle_line(
      R"({"cmd":"trace-dump","path":)" + obs::json_quote(path) + "}");
  EXPECT_NE(response.find("\"cmd\":\"trace-dump\""), std::string::npos);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  // The dump is Chrome trace-event JSON: parseable, with an events array.
  const obs::JsonValue doc = obs::parse_json(contents.str());
  EXPECT_TRUE(doc.contains("traceEvents"));
  std::remove(path.c_str());
}

TEST(ServeAdmin, HealthIsByteStableUnderAnInjectedClock) {
  // Two fresh servers with the same frozen clock must answer health with
  // identical bytes — uptime and counters are functions of the injected
  // stream, not of wall time.
  const auto run = [] {
    ServeOptions opts;
    std::uint64_t t = 41000;
    opts.clock_ms = [&t] { return ++t; };
    auto server = fixture::default_server(opts);
    std::string out = server->handle_line(predict_line(0));
    out += server->handle_line(R"({"id":"h","cmd":"health"})");
    return out;
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find("\"uptime_ms\":"), std::string::npos);
  EXPECT_NE(a.find("\"responses\":{\"ok\":2}"), std::string::npos);
}

/// The admin plane holds at most eight connections: a ninth concurrent
/// scraper is closed at once and logged, the eight it could not join
/// are still answered, and the data plane on the same loop keeps serving.
TEST(ServeAdmin, NinthConcurrentScraperIsRejectedAndDataStillServed) {
  Listener listener;
  std::vector<std::unique_ptr<Client>> scrapers;
  for (int i = 0; i < 8; ++i) {
    scrapers.push_back(std::make_unique<Client>(listener.admin_port()));
    ASSERT_TRUE(scrapers.back()->connected());
  }
  // A data round trip: once it is answered, the loop has accepted every
  // scraper that connected before it.
  Client data(listener.port());
  data.send(predict_line(0) + "\n");
  EXPECT_NE(data.recv_line().find("\"ok\":true"), std::string::npos);

  Client ninth(listener.admin_port());
  ASSERT_TRUE(ninth.connected());
  ninth.send("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(ninth.recv_all(), "");  // closed without a response

  for (auto& scraper : scrapers) {
    scraper->send("GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(scraper->recv_all().find("HTTP/1.0 200 OK"), std::string::npos);
  }
  data.send(predict_line(1) + "\n");
  EXPECT_NE(data.recv_line().find("\"ok\":true"), std::string::npos);
  data.close();
  listener.shutdown();
  const std::string log = listener.log();
  EXPECT_NE(log.find("serve: admin connection rejected (capacity)"),
            std::string::npos)
      << log;
}

/// The core tentpole invariant: a hammering scraper changes nothing about
/// the data plane's bytes. Replay the same request stream with the admin
/// plane idle and under concurrent scrape load; responses must be
/// byte-identical.
TEST(ServeAdmin, ScrapingNeverPerturbsDataPlaneBytes) {
  constexpr std::size_t kRequests = 24;
  const auto replay = [](bool hammer) {
    Listener listener;
    std::atomic<bool> stop{false};
    std::thread scraper;
    if (hammer) {
      scraper = std::thread([&listener, &stop] {
        const char* targets[] = {"/metrics", "/statsz", "/healthz",
                                 "/nope"};
        std::size_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          (void)http_get(listener.admin_port(),
                         std::string("GET ") + targets[i++ % 4] +
                             " HTTP/1.0\r\n\r\n");
        }
      });
    }
    Client data(listener.port());
    std::string transcript;
    for (std::size_t i = 0; i < kRequests; ++i) {
      data.send(predict_line(i) + "\n");
      transcript += data.recv_line();
      transcript += '\n';
    }
    data.close();
    stop.store(true, std::memory_order_release);
    if (scraper.joinable()) scraper.join();
    listener.shutdown();
    listener.join();
    return transcript;
  };
  const std::string idle = replay(false);
  const std::string hammered = replay(true);
  EXPECT_FALSE(idle.empty());
  EXPECT_EQ(idle, hammered);
}

/// Chaos interleaving: transport faults savage the data plane while the
/// scraper hammers the admin plane. The admin plane must keep answering
/// (it is never fault-injected) and the loop must survive to a clean
/// shutdown.
TEST(ServeAdmin, AdminStaysUpWhileDataPlaneChaosRages) {
  FaultSpec spec;
  spec.seed = 77;
  spec.short_read = 0.5;
  spec.short_write = 0.5;
  spec.disconnect = 0.02;
  FaultInjector faults(spec);
  TcpOptions opts;
  opts.faults = &faults;
  Listener listener(opts);

  std::atomic<bool> stop{false};
  std::thread scraper([&listener, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string response =
          http_get(listener.admin_port(), "GET /statsz HTTP/1.0\r\n\r\n");
      if (!response.empty()) {
        EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
        EXPECT_NO_THROW((void)obs::parse_json(http_body(response)));
      }
    }
  });

  std::size_t answered = 0;
  for (int round = 0; round < 6; ++round) {
    Client data(listener.port());
    if (!data.connected()) continue;
    for (std::size_t i = 0; i < 8; ++i) {
      data.send(predict_line(i) + "\n");
      const std::string line = data.recv_line();
      if (line.empty()) break;  // injected disconnect; next round
      EXPECT_NO_THROW((void)obs::parse_json(line)) << line;
      ++answered;
    }
    data.close();
  }
  EXPECT_GT(answered, 0u);
  stop.store(true, std::memory_order_release);
  scraper.join();
  listener.shutdown();
  listener.join();
}

}  // namespace
}  // namespace hpcp::serve
