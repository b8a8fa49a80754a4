/// The deterministic chaos suite: hundreds of seeded fault scenarios
/// driven through the full Server loop. The invariants under ANY fault
/// schedule:
///   1. the server never crashes or hangs (the suite finishing is the
///      proof; tools/ci.sh additionally runs it under a watchdog),
///   2. every line the transport actually delivered gets exactly one
///      well-formed JSON response, in order,
///   3. a delivered line that byte-matches a fault-free request gets the
///      byte-identical fault-free response — unless it carries a
///      degraded-class code (deadline scenarios), which is the documented
///      exemption.
/// Scenario = (fault shape, seed); a CI failure replays locally from
/// those two values alone.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/registry.hpp"
#include "src/serve/faults.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

struct Fixture {
  /// A store holding the shared model as both "default" and "beta"
  /// (version 1 each): fixture lines route to the default tenant, and the
  /// tenant fault axis routes injected predict lines through both.
  std::string store;
  std::string replay;                     ///< fault-free request stream
  std::vector<std::string> request_lines;
  /// request line -> fault-free response (pure function of the line and
  /// model_version, so one map serves every scenario).
  std::unordered_map<std::string, std::string> reference;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* out = new Fixture;
    const TwoLevelModel& model = fixture::trained().model;
    out->store = fixture::write_store(
        {{registry::kDefaultTenant, &model}, {"beta", &model}});

    const auto& test = fixture::trained().exp.test;
    for (std::size_t i = 0; i < 24; ++i) {
      const auto row = test.configs.row(i % test.size());
      std::string line = "{\"id\":" + std::to_string(i) + ",\"params\":[";
      for (std::size_t d = 0; d < row.size(); ++d) {
        if (d > 0) line += ',';
        obs::json_number_into(line, row[d]);
      }
      line += ']';
      if (i % 3 == 0) line += ",\"scales\":[64,256]";
      if (i % 3 == 1) line += ",\"scales\":[128]";
      line += '}';
      out->request_lines.push_back(line);
      out->replay += line + '\n';
    }

    const auto reference_server = fixture::attach(out->store);
    for (const auto& line : out->request_lines) {
      out->reference[line] = reference_server->handle_line(line);
    }
    return out;
  }();
  return *f;
}

/// A fresh server over the fixture store. The store is per process (the
/// ingest scenarios append to its run logs mid-run).
std::unique_ptr<Server> make_server(ServeOptions opts = {}) {
  return fixture::attach(fixture().store, std::move(opts));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

bool is_blank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// What the transport delivered for this (shape, seed): the injector is a
/// pure function of its seed, so a second injector with the same spec
/// replays the exact byte stream the server saw.
std::string capture_delivered(const FaultSpec& spec) {
  FaultInjector injector(spec);
  std::istringstream source(fixture().replay);
  ChaosStreambuf chaos(source.rdbuf(), &injector);
  std::string out;
  for (int c = chaos.sbumpc();
       c != std::char_traits<char>::eof(); c = chaos.sbumpc()) {
    out.push_back(static_cast<char>(c));
  }
  return out;
}

struct ScenarioResult {
  std::size_t responses = 0;
  std::size_t matched_reference = 0;
  std::size_t degraded_class = 0;
};

/// Runs one seeded scenario and checks invariants 2 and 3.
ScenarioResult run_scenario(const FaultSpec& spec,
                            const ServeOptions& opts,
                            bool allow_deadline) {
  const std::string delivered = capture_delivered(spec);

  FaultInjector injector(spec);
  std::istringstream source(fixture().replay);
  ChaosStreambuf chaos(source.rdbuf(), &injector);
  std::istream in(&chaos);
  std::ostringstream out;
  ServeOptions run_opts = opts;
  FaultInjector clock_injector(spec);
  if (spec.clock_skip > 0.0) {
    run_opts.clock_ms = make_skipping_clock(&clock_injector);
  }
  const auto server = make_server(run_opts);
  (void)server->run(in, out);

  std::vector<std::string> expected;
  for (const auto& line : split_lines(delivered)) {
    if (!is_blank(line)) expected.push_back(line);
  }
  const auto responses = split_lines(out.str());

  ScenarioResult result;
  result.responses = responses.size();
  EXPECT_EQ(responses.size(), expected.size())
      << "seed=" << spec.seed
      << ": every delivered line gets exactly one response";
  const std::size_t n = std::min(responses.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Invariant 2: well-formed JSON, always.
    bool well_formed = false;
    try {
      const obs::JsonValue doc = obs::parse_json(responses[i]);
      well_formed =
          doc.kind() == obs::JsonValue::Kind::Object && doc.contains("ok");
    } catch (...) {
    }
    EXPECT_TRUE(well_formed) << "seed=" << spec.seed << " response " << i
                             << ": " << responses[i];

    const bool deadline_response =
        responses[i].find("\"code\":\"deadline\"") != std::string::npos;
    if (deadline_response) {
      EXPECT_TRUE(allow_deadline)
          << "seed=" << spec.seed << ": unexpected deadline response";
      ++result.degraded_class;
      continue;
    }
    // Invariant 3: an intact request line answers byte-identically.
    const auto ref = fixture().reference.find(expected[i]);
    if (ref != fixture().reference.end()) {
      EXPECT_EQ(responses[i], ref->second)
          << "seed=" << spec.seed << " line " << i
          << ": non-degraded response must be byte-identical";
      ++result.matched_reference;
    } else if (expected[i].find("\"cmd\":\"ingest\"") != std::string::npos) {
      // Injected ingest frames are well-formed requests: a known tenant
      // draws an ack (append succeeded — semantic quarantine happens at
      // retrain time), an unknown tenant a typed error. Never anything
      // else, and never a crash.
      const bool acked =
          responses[i].find("\"ok\":true,\"cmd\":\"ingest\"") !=
          std::string::npos;
      const bool refused =
          responses[i].find("\"ok\":false") != std::string::npos;
      EXPECT_TRUE(acked || refused)
          << "seed=" << spec.seed << " line " << i << ": " << responses[i]
          << " for input: " << expected[i];
    } else {
      // Garbage frames and truncated lines must be rejected, not served.
      EXPECT_NE(responses[i].find("\"ok\":false"), std::string::npos)
          << "seed=" << spec.seed << " line " << i << ": " << responses[i]
          << " for input: " << expected[i];
    }
  }
  return result;
}

TEST(ServeChaos, ShortReadScenarios) {
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.short_read = 0.4;
    matched += run_scenario(spec, {}, false).matched_reference;
  }
  // Short reads reorder nothing and drop nothing: every request answered
  // from the reference in every scenario.
  EXPECT_EQ(matched, 100 * fixture().request_lines.size());
}

TEST(ServeChaos, GarbageAndDisconnectScenarios) {
  std::size_t total_responses = 0;
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.garbage = 0.15;
    spec.disconnect = 0.04;
    const auto r = run_scenario(spec, {}, false);
    total_responses += r.responses;
    matched += r.matched_reference;
  }
  EXPECT_GT(total_responses, 0u);
  EXPECT_GT(matched, 0u) << "no intact request was ever answered";
}

TEST(ServeChaos, FullFaultMixScenarios) {
  std::size_t total_responses = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.short_read = 0.3;
    spec.garbage = 0.1;
    spec.disconnect = 0.03;
    // Tight batches exercise flush boundaries interacting with faults.
    total_responses +=
        run_scenario(spec, {.batch_max = 4, .cache_entries = 16}, false)
            .responses;
  }
  EXPECT_GT(total_responses, 0u);
}

TEST(ServeChaos, TenantRoutingScenarios) {
  // The tenant axis alone: injected well-formed predict lines whose
  // "model" field cycles known tenants, unknown tenants, and hostile
  // names. Every injected frame draws exactly one well-formed response
  // (the known-tenant frames a typed width error, the rest unknown-model)
  // and the surrounding fixture requests stay byte-identical to the
  // fault-free reference — routing chaos must not leak into neighbours.
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.tenant = 0.25;
    matched += run_scenario(spec, {}, false).matched_reference;
  }
  // The tenant axis injects whole lines and drops none: every fixture
  // request answered from the reference in every scenario.
  EXPECT_EQ(matched, 100 * fixture().request_lines.size());
}

TEST(ServeChaos, TenantRoutingUnderTransportFaults) {
  // Tenant routing composed with the transport fault mix, tight batches:
  // flush windows now contain a random mix of tenants, exercising the
  // grouped compute path under short reads and mid-line disconnects.
  std::size_t total_responses = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.tenant = 0.15;
    spec.garbage = 0.1;
    spec.short_read = 0.3;
    spec.disconnect = 0.03;
    total_responses +=
        run_scenario(spec, {.batch_max = 4, .cache_entries = 16}, false)
            .responses;
  }
  EXPECT_GT(total_responses, 0u);
}

TEST(ServeChaos, IngestScenarios) {
  // The ingest axis alone: injected well-formed {"cmd":"ingest"} lines —
  // known and unknown tenants, clean and semantically poisoned
  // measurements (zero/negative/absurd runtimes, duplicate run ids). The
  // poison is the quarantine layer's problem at retrain time; at append
  // time every frame draws exactly one ack or typed error, and the
  // surrounding predict stream stays byte-identical to the reference.
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.ingest = 0.25;
    matched += run_scenario(spec, {}, false).matched_reference;
  }
  // The ingest axis injects whole lines and drops none: every fixture
  // request answered from the reference in every scenario.
  EXPECT_EQ(matched, 60 * fixture().request_lines.size());
}

TEST(ServeChaos, IngestUnderTransportFaults) {
  // Ingest composed with the transport fault mix and tight batches: the
  // fsync'd append path now interleaves with short reads, garbage, and
  // mid-line disconnects inside the same flush windows.
  std::size_t total_responses = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.ingest = 0.15;
    spec.garbage = 0.1;
    spec.short_read = 0.3;
    spec.disconnect = 0.03;
    total_responses +=
        run_scenario(spec, {.batch_max = 4, .cache_entries = 16}, false)
            .responses;
  }
  EXPECT_GT(total_responses, 0u);
}

TEST(ServeChaos, SkippingClockDeadlineScenarios) {
  std::size_t deadline_hits = 0;
  std::size_t matched = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.clock_skip = 0.2;
    spec.clock_skip_ms = 50;
    // No transport faults: every request arrives; each is answered either
    // from the reference or with a typed deadline error, depending on
    // where the injected clock jumped.
    const auto r =
        run_scenario(spec, {.request_deadline_ms = 20}, true);
    EXPECT_EQ(r.responses, fixture().request_lines.size());
    deadline_hits += r.degraded_class;
    matched += r.matched_reference;
  }
  EXPECT_GT(deadline_hits, 0u) << "the skipping clock never expired a deadline";
  EXPECT_GT(matched, 0u) << "every request expired — deadline too tight";
}

/// A minimal blocking loopback client for the TCP chaos scenarios.
class ChaosClient {
 public:
  explicit ChaosClient(std::uint16_t port) {
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
  ~ChaosClient() { close(); }

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

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// Concurrent-connection chaos: the fault injector clamps reads/writes
/// and kills connections at the syscall layer of the epoll loop, across
/// MANY simultaneous clients. The invariants:
///   1. a fault on one connection never corrupts a neighbour — every
///      complete response line any client receives is byte-identical to
///      the fault-free reference for the requests *it* sent, in order
///      (a connection's stream is truncated by its own faults, never
///      reordered or cross-wired);
///   2. the listener never stalls — after the chaos clients are done a
///      clean client gets normal service and shutdown still works.
TEST(ServeChaos, ConcurrentConnectionFaultsStayIsolated) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.short_read = 0.3;
    spec.short_write = 0.3;
    spec.disconnect = 0.01;
    spec.write_error = 0.01;
    FaultInjector injector(spec);

    const auto server = make_server();
    TcpOptions opts;
    opts.faults = &injector;
    std::atomic<std::uint16_t> port{0};
    opts.bound_port = &port;
    std::ostringstream log;
    std::thread listener([&] {
      const auto result = run_tcp_server(*server, 0, log, opts);
      EXPECT_TRUE(result.has_value()) << "seed=" << seed;
    });
    while (port.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::vector<std::unique_ptr<ChaosClient>> clients;
    std::vector<std::vector<std::string>> sent(kClients);
    for (std::size_t j = 0; j < kClients; ++j) {
      clients.push_back(std::make_unique<ChaosClient>(
          port.load(std::memory_order_acquire)));
      ASSERT_TRUE(clients.back()->connected());
    }
    for (std::size_t i = 0; i < kPerClient; ++i) {
      for (std::size_t j = 0; j < kClients; ++j) {
        const auto& line =
            fixture().request_lines[(j * kPerClient + i) %
                                    fixture().request_lines.size()];
        sent[j].push_back(line);
        clients[j]->send(line + "\n");
      }
    }
    for (std::size_t j = 0; j < kClients; ++j) {
      // Invariant 1: the responses this client sees are the reference
      // responses of its own requests, in order, possibly cut short by
      // its own injected faults — never a neighbour's bytes.
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::string response = clients[j]->recv_line();
        if (response.empty()) break;  // injected disconnect/write error
        EXPECT_EQ(response, fixture().reference.at(sent[j][i]))
            << "seed=" << seed << " client " << j << " response " << i;
      }
      clients[j]->close();
    }

    // Invariant 2: chaos over, a clean client is served normally...
    bool served = false;
    for (int attempt = 0; attempt < 20 && !served; ++attempt) {
      // Each attempt reconnects: our own reads/writes can draw injected
      // faults too, and a faulted connection stays dead.
      ChaosClient clean(port.load(std::memory_order_acquire));
      ASSERT_TRUE(clean.connected());
      const auto& line = fixture().request_lines[0];
      clean.send(line + "\n");
      const std::string response = clean.recv_line();
      if (!response.empty()) {
        EXPECT_EQ(response, fixture().reference.at(line))
            << "seed=" << seed;
        served = true;
      }
      clean.close();
    }
    EXPECT_TRUE(served) << "seed=" << seed
                        << ": listener stalled or corrupted after chaos";

    // ...and shutdown still tears the listener down (retry through
    // injected faults on the shutdown connection itself).
    std::atomic<bool> down{false};
    std::thread joiner([&] {
      listener.join();
      down.store(true, std::memory_order_release);
    });
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (down.load(std::memory_order_acquire)) break;
      ChaosClient closer(port.load(std::memory_order_acquire));
      closer.send("{\"cmd\":\"shutdown\"}\n");
      (void)closer.recv_line();
      closer.close();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    joiner.join();
    ASSERT_TRUE(down.load(std::memory_order_acquire))
        << "seed=" << seed << ": shutdown never reached the server";
  }
}

/// The replay determinism proof under chaos: one (shape, seed) pair must
/// produce byte-identical response streams on repeated runs.
TEST(ServeChaos, ScenariosReplayByteIdentically) {
  FaultSpec spec;
  spec.seed = 1234;
  spec.short_read = 0.3;
  spec.garbage = 0.2;
  spec.disconnect = 0.05;
  const auto run_once = [&spec] {
    FaultInjector injector(spec);
    std::istringstream source(fixture().replay);
    ChaosStreambuf chaos(source.rdbuf(), &injector);
    std::istream in(&chaos);
    std::ostringstream out;
    const auto server = make_server();
    (void)server->run(in, out);
    return out.str();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run_once(), first);
  EXPECT_EQ(run_once(), first);
}

}  // namespace
}  // namespace hpcp::serve
