/// Pinned-seed prediction-serving suite: replays a fixed request stream
/// through serve::Server and measures end-to-end throughput at 1 and 8
/// workers, plus per-request latency cold (computed) vs hot (prediction
/// cache). Also enforces the serve determinism contract inline: the replay
/// must produce byte-identical response streams at 1 vs 8 workers and with
/// the cache on vs off — a mismatch is a hard failure, not a statistic.
///
/// On top of the in-process replay, the suite drives the epoll TCP
/// front-end over real localhost sockets: the same stream split
/// round-robin across 1/4/16 concurrent connections (replay_1conn,
/// replay_concurrent_{4,16}conn), closed-loop per-request latency on one
/// connection while three neighbours pump pipelined load (load4_p50/p99),
/// and a byte-identity sweep over (connections x threads x cache) — every
/// per-connection response stream must equal the sequential replay of
/// that connection's lines (`byte_identical_concurrent`). Thread- and
/// connection-scaling ratios only mean something on multi-core hosts, so
/// each case records `hardware_concurrency` and the JSON carries a
/// `scaling` block naming the min core count per ratio;
/// tools/check_bench_regression.py skips those gates on smaller runners.
///
/// Like bench_micro_train this is a plain executable (no
/// google-benchmark): a fixed workload from a fixed seed, results written
/// as JSON (schema "hpcp-bench-serve/1", documented in EXPERIMENTS.md) for
/// the tracked BENCH_serve.json at the repo root. `tools/ci.sh` runs
/// `--short` mode and validates the output. Speedups are measured on
/// whatever host runs the bench; `hardware_concurrency` is recorded so a
/// 1x "speedup" on a single-core box reads as what it is.
///
/// Usage: bench_serve [--short] [--json PATH]

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/rng.hpp"
#include "src/core/two_level_model.hpp"
#include "src/ingest/pipeline.hpp"
#include "src/ingest/run_log.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/obs/metrics.hpp"
#include "src/registry/archive.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace {

using hpcp::ExperimentConfig;
using hpcp::Rng;
using hpcp::TwoLevelModel;
using hpcp::bench::BenchCase;
using hpcp::bench::run_case;
using hpcp::serve::ServeOptions;
using hpcp::serve::Server;
namespace fixture = hpcp::serve::fixture;

/// One canonical predict request line for a parameter row.
std::string predict_line(std::size_t id, std::span<const double> params,
                         const char* scales_json) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"params\":[";
  for (std::size_t d = 0; d < params.size(); ++d) {
    if (d > 0) line += ',';
    hpcp::obs::json_number_into(line, params[d]);
  }
  line += "],\"scales\":";
  line += scales_json;
  line += '}';
  return line;
}

/// Runs the whole replay through one server configuration over the model
/// store at `root` and returns the response byte stream.
std::string run_replay(const std::string& root, ServeOptions opts,
                       const std::string& replay) {
  const auto server = fixture::attach(root, std::move(opts));
  std::istringstream in(replay);
  std::ostringstream out;
  (void)server->run(in, out);
  return out.str();
}

// --- real-socket replay through the epoll front-end -----------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

std::string recv_until_eof(int fd) {
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return bytes;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
}

std::string recv_one_line(int fd) {
  std::string line;
  char c;
  for (;;) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return line;
    if (c == '\n') return line;
    line.push_back(c);
  }
}

/// One live epoll listener on an ephemeral port, shut down by the
/// protocol's own {"cmd":"shutdown"}.
class TcpBenchServer {
 public:
  TcpBenchServer(const std::string& root, const ServeOptions& opts) {
    server_ = fixture::attach(root, opts);
    hpcp::serve::TcpOptions tcp_opts;
    tcp_opts.bound_port = &port_;
    tcp_opts.max_connections = 64;
    thread_ = std::thread([this, tcp_opts] {
      std::ostringstream log;
      if (!hpcp::serve::run_tcp_server(*server_, 0, log, tcp_opts)) {
        std::fprintf(stderr, "FATAL: bench TCP listener failed\n%s",
                     log.str().c_str());
        std::exit(1);
      }
    });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~TcpBenchServer() {
    const int fd = connect_loopback(port());
    if (fd >= 0) {
      const char kShutdown[] = "{\"cmd\":\"shutdown\"}\n";
      send_all(fd, kShutdown, sizeof(kShutdown) - 1);
      (void)recv_until_eof(fd);
      ::close(fd);
    }
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const {
    return port_.load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<Server> server_;
  std::atomic<std::uint16_t> port_{0};
  std::thread thread_;
};

/// Splits `lines` round-robin into per-connection pipelined streams —
/// the deterministic partition every concurrent replay and its sequential
/// reference share.
std::vector<std::string> partition_round_robin(
    const std::vector<std::string>& lines, std::size_t conns) {
  std::vector<std::string> streams(conns);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    streams[i % conns] += lines[i];
    streams[i % conns] += '\n';
  }
  return streams;
}

/// Replays `lines` through a live TCP server over `conns` concurrent
/// connections (one client thread each: pipeline everything, half-close,
/// drain to EOF) and returns each connection's response byte stream.
std::vector<std::string> run_tcp_replay(std::uint16_t port,
                                        const std::vector<std::string>& streams) {
  std::vector<std::string> per_conn(streams.size());
  std::vector<std::thread> clients;
  clients.reserve(streams.size());
  for (std::size_t j = 0; j < streams.size(); ++j) {
    clients.emplace_back([&, j] {
      const int fd = connect_loopback(port);
      if (fd < 0) return;
      send_all(fd, streams[j].data(), streams[j].size());
      ::shutdown(fd, SHUT_WR);
      per_conn[j] = recv_until_eof(fd);
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  return per_conn;
}

double percentile(std::vector<double> sorted_ascending, double q) {
  std::sort(sorted_ascending.begin(), sorted_ascending.end());
  const std::size_t n = sorted_ascending.size();
  const std::size_t i =
      std::min(n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
  return sorted_ascending[i];
}

struct Latency {
  double p50_us = 0.0;
  double p95_us = 0.0;
};

struct LoadLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Closed-loop latency under load: one probe connection sends a request
/// and waits for its response while `loaders` neighbour connections pump
/// the pipelined load stream in a loop — the p50/p99 a well-behaved
/// client sees when it shares the event loop with bulk replays.
LoadLatency measure_latency_under_load(const std::string& root,
                                       const ServeOptions& opts,
                                       const std::vector<std::string>& probes,
                                       const std::string& load_stream,
                                       std::size_t loaders) {
  const TcpBenchServer listener(root, opts);
  std::atomic<bool> stop{false};
  std::vector<std::thread> load_threads;
  for (std::size_t j = 0; j < loaders; ++j) {
    load_threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const int fd = connect_loopback(listener.port());
        if (fd < 0) return;
        send_all(fd, load_stream.data(), load_stream.size());
        ::shutdown(fd, SHUT_WR);
        (void)recv_until_eof(fd);
        ::close(fd);
      }
    });
  }

  std::vector<double> us;
  us.reserve(probes.size());
  const int fd = connect_loopback(listener.port());
  for (const std::string& line : probes) {
    const std::string framed = line + '\n';
    const hpcp::obs::Stopwatch watch;
    send_all(fd, framed.data(), framed.size());
    const std::string response = recv_one_line(fd);
    us.push_back(watch.seconds() * 1e6);
    if (response.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "FATAL: probe request failed under load: %s\n",
                   response.c_str());
      std::exit(1);
    }
  }
  ::close(fd);
  stop.store(true, std::memory_order_release);
  for (auto& t : load_threads) t.join();
  return LoadLatency{percentile(us, 0.50), percentile(us, 0.99)};
}

/// The concurrent half of the determinism contract: for every
/// (connections x threads x cache) configuration, each connection's TCP
/// response stream must equal the sequential Server replay of that
/// connection's lines. Returns false (and prints) on the first mismatch.
bool verify_concurrent_identity(const std::string& root,
                                const std::vector<std::string>& lines) {
  for (const std::size_t conns : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}}) {
    const auto streams = partition_round_robin(lines, conns);
    // The sequential ground truth for this partition: a fresh server
    // replaying each connection's lines in order.
    std::vector<std::string> reference(conns);
    {
      const auto seq = fixture::attach(root);
      for (std::size_t j = 0; j < conns; ++j) {
        std::istringstream in(streams[j]);
        std::string line;
        while (std::getline(in, line)) {
          reference[j] += seq->handle_line(line);
          reference[j] += '\n';
        }
      }
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      for (const bool cache : {true, false}) {
        ServeOptions opts;
        opts.threads = threads;
        if (!cache) opts.cache_entries = 0;
        const TcpBenchServer listener(root, opts);
        const auto per_conn = run_tcp_replay(listener.port(), streams);
        for (std::size_t j = 0; j < conns; ++j) {
          if (per_conn[j] != reference[j]) {
            std::fprintf(stderr,
                         "concurrent replay differs from sequential replay: "
                         "conns=%zu threads=%zu cache=%d connection %zu\n",
                         conns, threads, cache ? 1 : 0, j);
            return false;
          }
        }
      }
    }
  }
  return true;
}

/// Per-request wall time of handle_line over `lines`, as sorted-percentile
/// microseconds.
Latency measure_latency(Server& server,
                        const std::vector<std::string>& lines) {
  std::vector<double> us;
  us.reserve(lines.size());
  for (const std::string& line : lines) {
    const hpcp::obs::Stopwatch watch;
    const std::string response = server.handle_line(line);
    us.push_back(watch.seconds() * 1e6);
    if (response.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "FATAL: bench request failed: %s\n",
                   response.c_str());
      std::exit(1);
    }
  }
  return Latency{percentile(us, 0.50), percentile(us, 0.95)};
}

void write_json(const std::string& path, bool short_mode,
                std::size_t num_configs, std::size_t replay_requests,
                std::size_t hw, const std::vector<BenchCase>& cases,
                const Latency& cold, const Latency& hot,
                const LoadLatency& load4, const Latency& ingest,
                double cache_speedup,
                double throughput_speedup, double overload_speedup,
                double deadline_speedup, double conn4_speedup,
                double conn16_speedup, double obs_on_vs_off,
                double mmap_load_speedup, double retrain_warm_speedup,
                bool byte_identical,
                bool byte_identical_overload, bool byte_identical_concurrent,
                bool byte_identical_obs, bool byte_identical_registry) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"hpcp-bench-serve/1\",\n";
  out << "  \"short_mode\": " << (short_mode ? "true" : "false") << ",\n";
  out << "  \"config\": {\n";
  out << "    \"app\": \"heat3d\",\n";
  out << "    \"train_configs\": " << num_configs << ",\n";
  out << "    \"replay_requests\": " << replay_requests << ",\n";
  out << "    \"hardware_concurrency\": " << hw << "\n";
  out << "  },\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    // hardware_concurrency rides on every case: thread- and
    // connection-scaling numbers are meaningless without the core count
    // of the host that produced them.
    out << "    {\"name\": \"" << cases[i].name
        << "\", \"seconds\": " << cases[i].seconds
        << ", \"reps\": " << cases[i].reps
        << ", \"hardware_concurrency\": " << hw << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"latency_us\": {\n";
  out << "    \"cold_p50\": " << cold.p50_us << ",\n";
  out << "    \"cold_p95\": " << cold.p95_us << ",\n";
  out << "    \"hit_p50\": " << hot.p50_us << ",\n";
  out << "    \"hit_p95\": " << hot.p95_us << ",\n";
  out << "    \"load4_p50\": " << load4.p50_us << ",\n";
  out << "    \"load4_p99\": " << load4.p99_us << ",\n";
  // Per-record cost of {"cmd":"ingest"}: parse + validate + fsync'd log
  // append + ack. The predict path never waits on this, but the append
  // itself must stay cheap enough to ride the serving thread.
  out << "    \"ingest_append_p50\": " << ingest.p50_us << ",\n";
  out << "    \"ingest_append_p95\": " << ingest.p95_us << "\n";
  out << "  },\n";
  out << "  \"speedups\": {\n";
  out << "    \"cache_hit_p50\": " << cache_speedup << ",\n";
  out << "    \"throughput_t8_vs_t1\": " << throughput_speedup << ",\n";
  out << "    \"overload_shed_vs_nocache\": " << overload_speedup << ",\n";
  out << "    \"deadline_vs_nocache\": " << deadline_speedup << ",\n";
  out << "    \"concurrent_4conn_vs_1conn\": " << conn4_speedup << ",\n";
  out << "    \"concurrent_16conn_vs_1conn\": " << conn16_speedup << ",\n";
  // Observability tax: median on/off wall-clock ratio of the nocache
  // replay; the regression gate caps this with --require-max.
  out << "    \"obs_on_vs_off\": " << obs_on_vs_off << ",\n";
  // Registry cold start: sectioned binary archive (mmap open + binary
  // parse) vs the legacy full text deserialize of the same model. The
  // regression gate pins the acceptance floor (>= 5x).
  out << "    \"mmap_load_vs_full_deserialize\": " << mmap_load_speedup
      << ",\n";
  // Warm-started candidate fit (prior split structure reused, node values
  // recomputed) vs the cold fit of the same log prefix — the payoff of
  // the continuous-learning warm chain. Gated at >= 1.3x on capable hosts.
  out << "    \"retrain_shadow_vs_cold\": " << retrain_warm_speedup << "\n";
  out << "  },\n";
  // Which speedup ratios require real parallel hardware, and how much:
  // the regression gate skips a ratio (and its --require floor) when the
  // fresh run's host has fewer cores than min_cores.
  out << "  \"scaling\": {\n";
  out << "    \"throughput_t8_vs_t1\": {\"min_cores\": 2},\n";
  out << "    \"concurrent_4conn_vs_1conn\": {\"min_cores\": 4},\n";
  out << "    \"concurrent_16conn_vs_1conn\": {\"min_cores\": 4},\n";
  out << "    \"mmap_load_vs_full_deserialize\": {\"min_cores\": 2},\n";
  out << "    \"retrain_shadow_vs_cold\": {\"min_cores\": 2}\n";
  out << "  },\n";
  out << "  \"determinism\": {\n";
  out << "    \"byte_identical_responses\": "
      << (byte_identical ? "true" : "false") << ",\n";
  out << "    \"byte_identical_overload\": "
      << (byte_identical_overload ? "true" : "false") << ",\n";
  out << "    \"byte_identical_concurrent\": "
      << (byte_identical_concurrent ? "true" : "false") << ",\n";
  out << "    \"byte_identical_obs\": "
      << (byte_identical_obs ? "true" : "false") << ",\n";
  out << "    \"byte_identical_registry\": "
      << (byte_identical_registry ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("\nspeedup: cache-hit p50 = %.2fx, throughput t8/t1 = %.2fx, "
              "overload-shed = %.2fx, deadline = %.2fx,\n"
              "         4conn/1conn = %.2fx, 16conn/1conn = %.2fx, "
              "obs on/off = %.4fx, mmap-load = %.2fx "
              "(hardware_concurrency=%zu)\n"
              "determinism: replay responses %s, shed replay %s, "
              "concurrent replay %s, obs replay %s, registry replay %s\n"
              "wrote %s\n",
              cache_speedup, throughput_speedup, overload_speedup,
              deadline_speedup, conn4_speedup, conn16_speedup,
              obs_on_vs_off, mmap_load_speedup, hw,
              byte_identical ? "byte-identical" : "DIFFER",
              byte_identical_overload ? "byte-identical" : "DIFFER",
              byte_identical_concurrent ? "byte-identical" : "DIFFER",
              byte_identical_obs ? "byte-identical" : "DIFFER",
              byte_identical_registry ? "byte-identical" : "DIFFER",
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--short") {
      short_mode = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--short] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  ExperimentConfig cfg = hpcp::bench::full_config("heat3d");
  if (short_mode) cfg.num_train = 96;
  const auto exp = hpcp::make_experiment(cfg);
  const std::size_t replay_requests = short_mode ? 2000 : 10000;
  const std::size_t reps = short_mode ? 1 : 3;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf(
      "serve bench: app=heat3d configs=%zu replay=%zu hw_threads=%zu\n\n",
      cfg.num_train, replay_requests, hw);

  TwoLevelModel model;
  {
    const hpcp::bench::SectionTimer timer("fit reference model");
    Rng rng(42);
    model.fit_checked(exp.problem, rng, {}).value_or_throw();
  }
  // The server serves only from a model store: every case below that
  // serves this one model runs against this one-tenant store.
  const std::string model_store =
      fixture::write_store({{hpcp::registry::kDefaultTenant, &model}});

  // The replay: a fixed, seedless mix of distinct configurations (train
  // rows round-robin) and exact repeats (cache hits), over three scale
  // sets. Same stream for every server configuration.
  const std::size_t rows = exp.problem.train_configs.rows();
  std::string replay;
  std::vector<std::string> replay_lines;
  std::vector<std::string> distinct_lines;
  replay_lines.reserve(replay_requests);
  for (std::size_t i = 0; i < replay_requests; ++i) {
    const auto params = exp.problem.train_configs.row(i % rows);
    const char* scales = (i % 3 == 0)   ? "[64,256]"
                         : (i % 3 == 1) ? "[32,64,128,256]"
                                        : "[128]";
    replay_lines.push_back(predict_line(i, params, scales));
    replay += replay_lines.back();
    replay += '\n';
  }
  for (std::size_t i = 0; i < rows; ++i) {
    distinct_lines.push_back(
        predict_line(i, exp.problem.train_configs.row(i), "[64,256]"));
  }

  // Determinism gate: 1 vs 8 workers, cache on vs off, batch 1 vs default.
  {
    const hpcp::bench::SectionTimer timer("determinism replay x4");
    const std::string reference =
        run_replay(model_store, {.threads = 1}, replay);
    const bool ok =
        run_replay(model_store, {.threads = 8}, replay) == reference &&
        run_replay(model_store, {.threads = 8, .cache_entries = 0}, replay) ==
            reference &&
        run_replay(model_store, {.threads = 8, .batch_max = 1}, replay) ==
            reference;
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: serve replay responses differ across worker "
                   "count / cache / batching — the serve determinism "
                   "contract is broken\n");
      return 1;
    }
  }

  // Resilience-path configurations. Overload: a tiny admission bound
  // under a large batch, so most of the burst is shed before any model
  // compute — the fast-rejection path must actually be fast. Deadline: a
  // clock that leaps 1s per read against a 1ms deadline, so every request
  // expires before flush and the server only parses and renders. Both are
  // measured against the nocache replay (full compute for every request).
  const ServeOptions overload_opts{.threads = 8,
                                   .batch_max = 64,
                                   .cache_entries = 0,
                                   .max_pending = 8};
  const auto deadline_opts = [] {
    ServeOptions opts;
    opts.threads = 8;
    opts.cache_entries = 0;
    opts.request_deadline_ms = 1;
    opts.clock_ms = [t = std::uint64_t{0}]() mutable { return t += 1000; };
    return opts;
  };

  // Shedding must be as replayable as serving: same stream, same options,
  // same bytes — on every run.
  bool byte_identical_overload;
  {
    const hpcp::bench::SectionTimer timer("overload determinism replay x2");
    byte_identical_overload =
        run_replay(model_store, overload_opts, replay) ==
        run_replay(model_store, overload_opts, replay);
    if (!byte_identical_overload) {
      std::fprintf(stderr,
                   "FATAL: overload replay responses differ between runs — "
                   "shedding is not deterministic\n");
      return 1;
    }
  }

  std::vector<BenchCase> cases;
  cases.push_back(run_case("replay_t1", reps, [&] {
    (void)run_replay(model_store, {.threads = 1}, replay);
  }));
  cases.push_back(run_case("replay_t8", reps, [&] {
    (void)run_replay(model_store, {.threads = 8}, replay);
  }));
  cases.push_back(run_case("replay_t8_nocache", reps, [&] {
    (void)run_replay(model_store, {.threads = 8, .cache_entries = 0}, replay);
  }));
  cases.push_back(run_case("replay_overload", reps, [&] {
    (void)run_replay(model_store, overload_opts, replay);
  }));
  cases.push_back(run_case("replay_deadline", reps, [&] {
    (void)run_replay(model_store, deadline_opts(), replay);
  }));

  // Registry cold start: the same fitted model published once as a legacy
  // text archive and once as a sectioned binary archive, then loaded
  // end-to-end (open + parse to a usable TwoLevelModel). The archive path
  // mmaps the file and binary-parses one checksummed section, the text
  // path re-tokenises the whole serialization — their ratio is the
  // mmap_load_vs_full_deserialize gate. archive_open_mmap isolates the
  // open-and-validate step (what a registry listing pays per archive).
  const auto bench_dir =
      std::filesystem::temp_directory_path() / "hpcp_bench_serve";
  std::filesystem::remove_all(bench_dir);
  std::filesystem::create_directories(bench_dir);
  const std::string text_path = (bench_dir / "model.txt").string();
  const std::string archive_path = (bench_dir / "model.hpcp").string();
  model.save_file(text_path);
  hpcp::registry::write_model_archive(
      archive_path, model, {.tenant = "bench", .version = 1})
      .value_or_throw();
  const std::size_t load_reps = short_mode ? 20 : 50;
  cases.push_back(run_case("model_load_text", load_reps, [&] {
    (void)hpcp::registry::load_model_any(text_path).value_or_throw();
  }));
  cases.push_back(run_case("model_load_archive", load_reps, [&] {
    (void)hpcp::registry::load_model_any(archive_path).value_or_throw();
  }));
  cases.push_back(run_case("archive_open_mmap", load_reps, [&] {
    (void)hpcp::registry::ModelArchive::open(archive_path).value_or_throw();
  }));

  // 16-tenant registry replay: the fitted model published under sixteen
  // tenant names, the replay re-addressed round-robin through the "model"
  // routing field, and served under a resident budget of 4 — three out of
  // four requests land outside the LRU window, so the case prices tenant
  // resolution + pool churn, not just prediction. Byte identity across
  // worker count and residency budget first: eviction pressure must never
  // reach response bytes.
  std::string store_root;
  {
    const hpcp::bench::SectionTimer timer("publish 16-tenant store");
    fixture::TenantModels tenants;
    for (int t = 0; t < 16; ++t) {
      char tenant[16];
      std::snprintf(tenant, sizeof(tenant), "tenant-%02d", t);
      tenants.emplace_back(tenant, &model);
    }
    store_root = fixture::write_store(tenants);
  }
  std::string registry_replay;
  for (std::size_t i = 0; i < replay_lines.size(); ++i) {
    char route[32];
    std::snprintf(route, sizeof(route), "\"model\":\"tenant-%02zu\",",
                  i % 16);
    std::string line = replay_lines[i];
    line.insert(1, route);  // '{' + routing field + original body
    registry_replay += line;
    registry_replay += '\n';
  }

  bool byte_identical_registry;
  {
    const hpcp::bench::SectionTimer timer("registry determinism replay x3");
    ServeOptions reg_opts;
    reg_opts.threads = 1;
    reg_opts.max_resident_models = 4;
    const std::string reference =
        run_replay(store_root, reg_opts, registry_replay);
    reg_opts.threads = 8;
    byte_identical_registry =
        run_replay(store_root, reg_opts, registry_replay) ==
        reference;
    reg_opts.max_resident_models = 16;
    byte_identical_registry =
        byte_identical_registry &&
        run_replay(store_root, reg_opts, registry_replay) ==
            reference;
    if (!byte_identical_registry) {
      std::fprintf(stderr,
                   "FATAL: registry replay responses differ across worker "
                   "count / resident budget — tenant routing is not "
                   "deterministic\n");
      return 1;
    }
  }
  cases.push_back(run_case("replay_registry16_t8", reps, [&] {
    ServeOptions reg_opts;
    reg_opts.threads = 8;
    reg_opts.max_resident_models = 4;
    (void)run_replay(store_root, reg_opts, registry_replay);
  }));

  // Observability overhead: the same compute-bound nocache replay with
  // the metric registry hot vs cold. Byte identity across the toggle is
  // checked first (metrics must never leak into response bytes) at the
  // full worker count; the timing pairs then run single-threaded — the
  // per-request instrumentation cost is identical, but an oversubscribed
  // scheduler (8 workers on a 1-core runner) adds multi-percent noise
  // that would drown a 1% gate. Interleaved (off, on) pairs, then the
  // ratio of fastest-of runs — the same best-of estimator run_case uses,
  // because host noise only ever adds time, so the minima are the
  // closest observations to the true cost on each side.
  double obs_on_vs_off;
  bool byte_identical_obs;
  {
    const hpcp::bench::SectionTimer timer("observability on/off pairs");
    const bool was_enabled = hpcp::obs::metrics_enabled();
    hpcp::obs::set_metrics_enabled(false);
    const ServeOptions nocache{.threads = 8, .cache_entries = 0};
    const std::string off_bytes = run_replay(model_store, nocache, replay);
    hpcp::obs::set_metrics_enabled(true);
    byte_identical_obs =
        run_replay(model_store, nocache, replay) == off_bytes;
    if (!byte_identical_obs) {
      std::fprintf(stderr,
                   "FATAL: enabling metrics changed replay response bytes\n");
      return 1;
    }

    const ServeOptions obs_opts{.threads = 1, .cache_entries = 0};
    const std::size_t pairs = short_mode ? 5 : 7;
    std::vector<double> offs, ons;
    for (std::size_t r = 0; r < pairs; ++r) {
      hpcp::obs::set_metrics_enabled(false);
      const hpcp::obs::Stopwatch off_watch;
      (void)run_replay(model_store, obs_opts, replay);
      offs.push_back(off_watch.seconds());
      hpcp::obs::set_metrics_enabled(true);
      const hpcp::obs::Stopwatch on_watch;
      (void)run_replay(model_store, obs_opts, replay);
      ons.push_back(on_watch.seconds());
    }
    hpcp::obs::set_metrics_enabled(was_enabled);
    const double off_best = *std::min_element(offs.begin(), offs.end());
    const double on_best = *std::min_element(ons.begin(), ons.end());
    obs_on_vs_off = off_best > 0.0 ? on_best / off_best : 0.0;
    cases.push_back(BenchCase{"replay_obs_off", off_best, pairs});
    cases.push_back(BenchCase{"replay_obs_on", on_best, pairs});
    std::printf("observability overhead: obs_on/obs_off best-of-%zu "
                "ratio = %.4fx (single-threaded)\n",
                pairs, obs_on_vs_off);
  }

  // Real-socket replays through the epoll front-end: the same stream,
  // split round-robin across 1 / 4 / 16 concurrent connections. One
  // connection cannot fill cross-connection windows, so the concurrent
  // cases are where the event loop earns its keep (on multi-core hosts;
  // the scaling block below tells the gate when the ratio is meaningful).
  ServeOptions tcp_serve_opts;
  tcp_serve_opts.threads = 8;
  for (const std::size_t conns : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}}) {
    const auto streams = partition_round_robin(replay_lines, conns);
    const std::string name =
        conns == 1 ? "replay_1conn"
                   : "replay_concurrent_" + std::to_string(conns) + "conn";
    cases.push_back(run_case(name, reps, [&] {
      const TcpBenchServer listener(model_store, tcp_serve_opts);
      (void)run_tcp_replay(listener.port(), streams);
    }));
  }

  // The concurrent determinism sweep runs a shortened stream so 12
  // configurations stay cheap; identity is exact, not sampled, within it.
  bool byte_identical_concurrent;
  {
    const hpcp::bench::SectionTimer timer(
        "concurrent identity sweep (conns x threads x cache)");
    const std::size_t subset = std::min<std::size_t>(replay_lines.size(),
                                                     short_mode ? 480 : 1600);
    const std::vector<std::string> head(replay_lines.begin(),
                                        replay_lines.begin() +
                                            static_cast<std::ptrdiff_t>(subset));
    byte_identical_concurrent =
        verify_concurrent_identity(model_store, head);
    if (!byte_identical_concurrent) {
      std::fprintf(stderr,
                   "FATAL: concurrent replay responses differ from the "
                   "sequential replay — the serve determinism contract is "
                   "broken under concurrency\n");
      return 1;
    }
  }

  // Latency: the same distinct requests served cold (first touch, full
  // compute) and hot (every (params, scale) already cached).
  const auto latency_server = fixture::attach(model_store);
  const Latency cold = measure_latency(*latency_server, distinct_lines);
  const Latency hot = measure_latency(*latency_server, distinct_lines);
  std::printf("latency: cold p50=%.1fus p95=%.1fus | hit p50=%.1fus "
              "p95=%.1fus\n",
              cold.p50_us, cold.p95_us, hot.p50_us, hot.p95_us);

  // Closed-loop latency over real sockets while three neighbour
  // connections pump pipelined load through the same event loop.
  LoadLatency load4;
  {
    const hpcp::bench::SectionTimer timer("latency under 4-connection load");
    std::string load_stream;
    const std::size_t load_lines = std::min<std::size_t>(
        replay_lines.size(), short_mode ? 400 : 1000);
    for (std::size_t i = 0; i < load_lines; ++i) {
      load_stream += replay_lines[i];
      load_stream += '\n';
    }
    std::vector<std::string> probes = distinct_lines;
    probes.insert(probes.end(), distinct_lines.begin(), distinct_lines.end());
    load4 = measure_latency_under_load(model_store, tcp_serve_opts, probes,
                                       load_stream, /*loaders=*/3);
  }
  std::printf("latency under load4: p50=%.1fus p99=%.1fus\n", load4.p50_us,
              load4.p99_us);

  // Continuous-learning loop. Append cost: the experiment's own run
  // records streamed through the in-protocol {"cmd":"ingest"} path of a
  // server — parse + validate + fsync'd log append + ack per
  // line. Retrain cost: a cold candidate fit of the resulting log vs the
  // warm refit that reuses the cold fit's split structure, the exact pair
  // the background scheduler alternates between once a tenant's warm chain
  // is established.
  Latency ingest_lat;
  {
    const hpcp::bench::SectionTimer timer(
        "ingest appends + warm/cold candidate fits");
    const std::string ingest_root =
        fixture::write_store({{hpcp::registry::kDefaultTenant, &model}});
    const auto ingest_server = fixture::attach(ingest_root, {.threads = 1});
    std::vector<std::string> ingest_lines;
    for (const auto& rec : exp.history.records()) {
      std::string line = "{\"cmd\":\"ingest\",\"run_id\":" +
                         std::to_string(rec.run_id) + ",\"params\":[";
      for (std::size_t i = 0; i < rec.params.size(); ++i) {
        if (i > 0) line += ',';
        hpcp::obs::json_number_into(line, rec.params[i]);
      }
      line += "],\"nprocs\":" + std::to_string(rec.nprocs) +
              ",\"runtime\":";
      hpcp::obs::json_number_into(line, rec.runtime);
      line += '}';
      ingest_lines.push_back(std::move(line));
    }
    ingest_lat = measure_latency(*ingest_server, ingest_lines);
    std::printf("ingest append: %zu records, p50=%.1fus p95=%.1fus\n",
                ingest_lines.size(), ingest_lat.p50_us, ingest_lat.p95_us);

    const auto log =
        hpcp::ingest::RunLog::read_file(
            hpcp::ingest::RunLog::log_path(ingest_root, "default"))
            .value_or_throw();
    const hpcp::ingest::RetrainOptions retrain_opts;
    const auto cold_fit =
        hpcp::ingest::fit_candidate(log.entries, SIZE_MAX, "default",
                                    nullptr, retrain_opts)
            .value_or_throw();
    const std::size_t fit_reps = short_mode ? 2 : 4;
    cases.push_back(run_case("retrain_cold", fit_reps, [&] {
      (void)hpcp::ingest::fit_candidate(log.entries, SIZE_MAX, "default",
                                        nullptr, retrain_opts)
          .value_or_throw();
    }));
    cases.push_back(run_case("retrain_warm", fit_reps, [&] {
      (void)hpcp::ingest::fit_candidate(log.entries, SIZE_MAX, "default",
                                        &cold_fit.model, retrain_opts)
          .value_or_throw();
    }));
  }

  auto find_case = [&cases](const std::string& name) -> double {
    for (const auto& c : cases) {
      if (c.name == name) return c.seconds;
    }
    return 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double cache_speedup =
      hot.p50_us > 0.0 ? cold.p50_us / hot.p50_us : 0.0;
  const double throughput_speedup =
      ratio(find_case("replay_t1"), find_case("replay_t8"));
  const double overload_speedup =
      ratio(find_case("replay_t8_nocache"), find_case("replay_overload"));
  const double deadline_speedup =
      ratio(find_case("replay_t8_nocache"), find_case("replay_deadline"));
  const double conn4_speedup = ratio(find_case("replay_1conn"),
                                     find_case("replay_concurrent_4conn"));
  const double conn16_speedup = ratio(find_case("replay_1conn"),
                                      find_case("replay_concurrent_16conn"));
  const double mmap_load_speedup =
      ratio(find_case("model_load_text"), find_case("model_load_archive"));
  const double retrain_warm_speedup =
      ratio(find_case("retrain_cold"), find_case("retrain_warm"));
  std::printf("retrain: warm refit %.2fx over cold fit\n",
              retrain_warm_speedup);

  if (!json_path.empty()) {
    write_json(json_path, short_mode, cfg.num_train, replay_requests, hw,
               cases, cold, hot, load4, ingest_lat, cache_speedup,
               throughput_speedup, overload_speedup, deadline_speedup,
               conn4_speedup, conn16_speedup, obs_on_vs_off,
               mmap_load_speedup, retrain_warm_speedup,
               /*byte_identical=*/true, byte_identical_overload,
               byte_identical_concurrent, byte_identical_obs,
               byte_identical_registry);
  }
  return 0;
}
