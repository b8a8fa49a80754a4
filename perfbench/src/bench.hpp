#pragma once

/// \file bench.hpp (perfbench)
/// Shared types of the serving benchmark: the three workloads, the
/// generated request stream, the deployment a workload's set-up builds,
/// and the open-loop load generator's per-phase results.
///
/// The benchmark drives the public surface only: it fits models with
/// TwoLevelModel, publishes them into a registry::Registry store, serves
/// them from a serve::Server behind serve::run_tcp_server, and replays the
/// same request lines in-process for the correctness and per-layer runs.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

enum class WorkloadKind { kColdPredict, kHotTenants, kIngestRetrain };

struct Options {
  WorkloadKind kind = WorkloadKind::kColdPredict;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< per-layer run instead of end-to-end
  double rate = 1000.0;   ///< nominal offered rate, requests per second
  std::string run_dir;    ///< scratch directory for stores and traces
};

/// Steady-clock nanoseconds; every timestamp of the benchmark uses it.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One line of the generated request stream.
struct Request {
  enum class Kind : std::uint8_t { kPredict, kIngest };
  Kind kind = Kind::kPredict;
  std::uint64_t id = 0;
  std::uint32_t app = 0;  ///< index into Deployment::apps (ground truth)
  std::string line;       ///< the protocol line, without its newline
  std::vector<double> params;
  std::vector<std::size_t> scales;  ///< predict only
};

/// Infinite, seed-determined request stream of one workload.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  [[nodiscard]] virtual Request next() = 0;
};

/// Split timings of the training layer (traced run only).
struct TrainTimes {
  double l1_fit_s = 0.0;
  double l2_fit_s = 0.0;
  std::vector<double> fit_s;  ///< one TwoLevelModel::fit_checked per app
};

/// What a workload's set-up builds: the published store, the server
/// options, the ground-truth simulators and the request stream.
struct Deployment {
  std::string store_root;
  hpcp::serve::ServeOptions serve_opts;
  /// One experiment per distinct application (simulator = ground truth).
  std::vector<hpcp::Experiment> apps;
  std::vector<std::string> tenants;
  std::vector<Request> warmup;  ///< replayed in-process before serving
  std::unique_ptr<RequestSource> source;
};

/// Builds the deployment of `opts.kind` under `root` (history generation,
/// model fits and archive publish). `train` receives split fit timings
/// when non-null.
[[nodiscard]] Deployment build_deployment(const Options& opts,
                                          const std::string& root,
                                          TrainTimes* train);

/// A registry-mode server over `store_root` (dep.store_root or a copy of
/// it) with dep's options and `threads` workers, warmed with dep.warmup.
[[nodiscard]] std::unique_ptr<hpcp::serve::Server> start_server(
    const Deployment& dep, const std::string& store_root, std::size_t threads);

/// Feeds `lines` through handle_batch in windows of `window` lines, each
/// under a `perfbench.window` span; collects per-window wall time and the
/// responses when asked.
void replay_windows(hpcp::serve::Server& server,
                    const std::vector<Request>& lines, std::size_t window,
                    std::vector<double>* window_us,
                    std::vector<std::string>* responses);

/// A live epoll listener on an ephemeral localhost port, serving `server`
/// from its own thread until destruction sends {"cmd":"shutdown"}.
class TcpListener {
 public:
  explicit TcpListener(hpcp::serve::Server& server);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const;
  /// Stops the listener and joins its thread (idempotent); returns the
  /// lifecycle log it wrote.
  std::string stop();

 private:
  hpcp::serve::Server& server_;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> failed_{false};
  std::string log_;
  std::thread thread_;
};

// --- open-loop load generator (loadgen.cpp) -----------------------------

/// The generator gets the last CPU this process may run on, to itself;
/// the server, its pools and everything else get the others. Threads
/// inherit their creator's CPUs, so main() calls pin_to_server_cpus()
/// before anything starts a thread, and run_phase() moves the calling
/// thread to the generator CPU for the length of a phase. No-ops with
/// fewer than two CPUs.
void pin_to_server_cpus();

/// A response kept for the correctness checks.
struct Captured {
  std::size_t index = 0;  ///< into the phase's request vector
  std::string response;
};

struct PhaseConfig {
  double rate = 1000.0;
  /// Keep every predict response for the correctness checks.
  bool capture = false;
  double drain_timeout_s = 2.0;
};

struct PhaseResult {
  double rate = 0.0;
  double duration_s = 0.0;
  std::size_t predicts = 0;         ///< attempted predict requests
  std::size_t predict_failures = 0;  ///< error, unanswered or wrong id
  std::size_t ingests = 0;
  std::size_t ingest_failures = 0;
  std::size_t wrong_ids = 0;         ///< responses out of order / garbled
  std::size_t sent = 0;              ///< lines written, stats included
  std::size_t completed = 0;         ///< responses read, stats included
  std::size_t outstanding_at_end = 0;  ///< unanswered at the last due time
  std::vector<double> predict_us;    ///< latency from due time
  std::vector<double> predict_due_s;  ///< due time of each predict_us entry
  std::vector<double> ingest_us;
  std::vector<double> late_us;       ///< send time minus due time
  std::vector<std::size_t> batch_lines;  ///< from hpcp-stats/1 probes
  std::vector<Captured> captured;
  std::vector<std::string> errors;   ///< first few failure descriptions
  double server_cpu_s = 0.0;  ///< CPU time of every thread but the generator
};

/// Sends `reqs` on a Poisson schedule at cfg.rate over four non-blocking
/// connections from the calling thread, and reads every response. Arrival
/// gaps come from `seed`.
[[nodiscard]] PhaseResult run_phase(std::uint16_t port,
                                    const std::vector<Request>& reqs,
                                    std::uint64_t seed,
                                    const PhaseConfig& cfg);

/// The q-th percentile of each window of `window_s` seconds, in order.
[[nodiscard]] std::vector<double> window_percentiles(const PhaseResult& p,
                                                     double window_s, double q);

/// Resident set size of this process in MiB (0 when unreadable).
[[nodiscard]] double resident_mb();

/// p in [0,1] of `v` (nearest rank); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

// --- correctness (checks.cpp) --------------------------------------------

struct CheckResult {
  bool ok = true;
  std::vector<std::string> errors;
  double mape_pct = 0.0;
  std::size_t mape_points = 0;
  std::size_t replayed = 0;
};

/// Checks every distinct captured predict response, recomputes MAPE of
/// the answers against simulator ground truth, and replays
/// an evenly spaced sample through a fresh in-process server at the model
/// version each response names, requiring byte-identical answers.
[[nodiscard]] CheckResult check_responses(const Deployment& dep,
                                          const std::vector<Request>& reqs,
                                          const std::vector<Captured>& caps,
                                          const std::string& scratch);

// --- traced per-layer run (traced.cpp) -----------------------------------

/// Layer metrics by name, plus the human-readable report lines.
struct LayerReport {
  std::map<std::string, double> metrics;
  std::vector<std::string> lines;
  std::vector<std::string> errors;
};

struct TracedInputs {
  const Deployment* dep = nullptr;
  std::string pristine_store;  ///< copy of the store right after set-up
  const std::vector<Request>* lines = nullptr;
  std::size_t window = 1;        ///< batch_lines of the untraced run
  double client_p50_us = 0.0;    ///< untraced TCP p50 at the nominal rate
  std::string scratch;
  std::string trace_path;
};

[[nodiscard]] LayerReport traced_replay(const TracedInputs& in);

}  // namespace perfbench
