/// \file workloads.cpp (perfbench)
/// Set-up and request streams of the three workloads.
///
///   cold-predict    one heat3d tenant; every request is a configuration
///                   never seen before, so the prediction cache never hits.
///   hot-tenants     16 tenants over the three bundled apps; tenant and
///                   configuration are Zipf-chosen from a working set that
///                   fits the prediction cache, with 0.5% new
///                   configurations.
///   ingest-retrain  one heat3d tenant fed measured runs of new
///                   configurations between predicts, appended to a run
///                   log that starts with the model's own training runs.
///
/// The training history is fixed (experiment seed 2020) so that every run
/// serves the same models; --seed only drives the request stream.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/common/rng.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/obs/trace.hpp"
#include "src/ingest/run_log.hpp"
#include "src/registry/registry.hpp"
#include "src/serve/tcp.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hpcp::Rng;

/// The scale sets a predict request asks for.
const std::vector<std::vector<std::size_t>>& scale_sets() {
  static const std::vector<std::vector<std::size_t>> sets = {
      {64, 256}, {32, 64, 128, 256}, {128}};
  return sets;
}

constexpr std::uint64_t kHistorySeed = 2020;
constexpr std::uint64_t kFitSeed = 42;
/// Cache entries (one per configuration and scale) a request of a random
/// scale set adds on average: (2 + 4 + 1) / 3.
constexpr double kEntriesPerRequest = 7.0 / 3.0;
constexpr std::size_t kHotTenants = 16;
/// The working set fills half of the server's default prediction cache,
/// so the other half holds the new configurations that pass through it
/// and no working-set entry is evicted: 4096 / 2 / (16 * 7/3) = 54.
const std::size_t kHotConfigsPerTenant = static_cast<std::size_t>(
    hpcp::serve::ServeOptions{}.cache_entries / 2 /
    (kHotTenants * kEntriesPerRequest));
/// Zipf's law in its original form. With the whole working set cached,
/// the exponent decides which cached entries are read, not the hit ratio.
constexpr double kZipfExponent = 1.0;
constexpr double kHotNewShare = 0.005;
/// One request in kIngestEvery is an ingested run. The traced run must
/// see at least two promotions; the judge promoted as few as half of the
/// candidates in trial runs, so its first kReplayLines (20000) lines must
/// hold four retrains of kMirrorRetrainRecords (40) runs each:
/// 20000 / (4 * 40) = 125, i.e. 0.8% of requests.
constexpr std::uint64_t kIngestEvery = 125;
constexpr std::uint64_t kIngestSeed = 7;
/// Repeated predicts: half-way between no hits and the 50% at which p50
/// would straddle hit and miss latency, so p50 and p99 both measure
/// misses while promotions still visibly turn hits into misses.
constexpr double kIngestRepeatShare = 0.25;
/// Recent fresh configurations a repeat is drawn from. A pool entry lives
/// about 128 fresh predicts; the default cache holds the last
/// 4096 / (7/3) = 1755 of them, so every repeat finds its answer cached
/// unless a promotion intervened.
constexpr std::size_t kIngestRepeatPool = 128;
constexpr std::size_t kWarmupFresh = 64;

std::string predict_line(std::uint64_t id, const std::string& tenant,
                         const std::vector<double>& params,
                         const std::vector<std::size_t>& scales) {
  std::string line = "{\"id\":\"q" + std::to_string(id) + "\"";
  if (!tenant.empty()) line += ",\"model\":\"" + tenant + "\"";
  line += ",\"params\":[";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) line += ',';
    hpcp::obs::json_number_into(line, params[i]);
  }
  line += "],\"scales\":[";
  for (std::size_t i = 0; i < scales.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(scales[i]);
  }
  line += "]}";
  return line;
}

std::string ingest_line(std::uint64_t id, const std::vector<double>& params,
                        std::size_t nprocs, double runtime,
                        std::uint64_t run_id) {
  std::string line =
      "{\"id\":\"q" + std::to_string(id) + "\",\"cmd\":\"ingest\"";
  line += ",\"params\":[";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) line += ',';
    hpcp::obs::json_number_into(line, params[i]);
  }
  line += "],\"nprocs\":" + std::to_string(nprocs) + ",\"runtime\":";
  hpcp::obs::json_number_into(line, runtime);
  line += ",\"run_id\":" + std::to_string(run_id) + "}";
  return line;
}

/// Cumulative Zipf(s) weights over n ranks.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = acc;
  }
  for (double& c : cdf) c /= acc;
  return cdf;
}

std::size_t draw(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

/// Draws parameter vectors that were never drawn before in this stream.
class FreshConfigs {
 public:
  FreshConfigs(const hpcp::ParameterSpace& space, Rng* rng)
      : space_(space), rng_(rng) {}
  std::vector<double> next() {
    for (;;) {
      auto params = space_.sample_random(1, *rng_).front();
      if (seen_.insert(params).second) return params;
    }
  }

 private:
  const hpcp::ParameterSpace& space_;
  Rng* rng_;
  std::set<std::vector<double>> seen_;
};

class ColdSource final : public RequestSource {
 public:
  ColdSource(const hpcp::Application& app, std::uint64_t seed)
      : rng_(seed), fresh_(app.parameter_space(), &rng_) {}
  Request next() override {
    Request r;
    r.id = next_id_++;
    r.params = fresh_.next();
    r.scales = scale_sets()[rng_.uniform_index(scale_sets().size())];
    r.line = predict_line(r.id, "", r.params, r.scales);
    return r;
  }

 private:
  Rng rng_;
  FreshConfigs fresh_;
  std::uint64_t next_id_ = 0;
};

class HotSource final : public RequestSource {
 public:
  struct Entry {
    std::uint32_t app = 0;
    std::vector<double> params;
    std::vector<std::size_t> scales;
  };

  HotSource(const std::vector<hpcp::Experiment>& apps,
            const std::vector<std::string>& tenants, std::uint64_t seed)
      : rng_(seed),
        tenants_(tenants),
        tenant_cdf_(zipf_cdf(tenants.size(), kZipfExponent)),
        config_cdf_(zipf_cdf(kHotConfigsPerTenant, kZipfExponent)) {
    for (const auto& exp : apps) {
      fresh_.emplace_back(exp.app->parameter_space(), &rng_);
    }
    working_.resize(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const auto app = static_cast<std::uint32_t>(t % apps.size());
      for (std::size_t c = 0; c < kHotConfigsPerTenant; ++c) {
        working_[t].push_back(
            {app, fresh_[app].next(),
             scale_sets()[rng_.uniform_index(scale_sets().size())]});
      }
    }
  }

  /// One request per working-set entry: the warm-up that makes every
  /// tenant resident and every entry cached.
  std::vector<Request> warmup() {
    std::vector<Request> out;
    for (std::size_t t = 0; t < working_.size(); ++t) {
      for (const Entry& e : working_[t]) out.push_back(make(t, e));
    }
    return out;
  }

  Request next() override {
    const std::size_t t = draw(tenant_cdf_, rng_);
    if (rng_.uniform() < kHotNewShare) {
      const auto app = static_cast<std::uint32_t>(t % fresh_.size());
      return make(t, Entry{app, fresh_[app].next(),
                           scale_sets()[rng_.uniform_index(3)]});
    }
    return make(t, working_[t][draw(config_cdf_, rng_)]);
  }

 private:
  Request make(std::size_t tenant, const Entry& e) {
    Request r;
    r.id = next_id_++;
    r.app = e.app;
    r.params = e.params;
    r.scales = e.scales;
    r.line = predict_line(r.id, tenants_[tenant], r.params, r.scales);
    return r;
  }

  Rng rng_;
  std::vector<FreshConfigs> fresh_;
  std::vector<std::string> tenants_;
  std::vector<double> tenant_cdf_;
  std::vector<double> config_cdf_;
  std::vector<std::vector<Entry>> working_;
  std::uint64_t next_id_ = 0;
};

/// Predicts from the workload seed, and every kIngestEvery-th request a
/// measured run from a stream that is the same for every seed: the runs
/// the learning loop sees, and so its retrains and promotions, do not
/// depend on the seed beyond arrival timing.
class IngestSource final : public RequestSource {
 public:
  IngestSource(const hpcp::Experiment& exp, std::uint64_t seed)
      : exp_(exp),
        rng_(seed),
        fresh_(exp.app->parameter_space(), &rng_),
        ingest_rng_(kIngestSeed),
        ingest_fresh_(exp.app->parameter_space(), &ingest_rng_) {}

  Request next() override {
    Request r;
    r.id = next_id_++;
    if (r.id % kIngestEvery == kIngestEvery - 1) {
      // Measured runs of a new configuration at every small scale of the
      // ingest log (the served model's four plus 16, the holdout scale).
      if (record_ == kIngestScales.size()) {
        ingest_params_ = ingest_fresh_.next();
        record_ = 0;
      }
      const std::size_t p = kIngestScales[record_++];
      const std::uint64_t run_id = next_run_id_++;
      r.kind = Request::Kind::kIngest;
      r.params = ingest_params_;
      r.scales = {p};
      r.line = ingest_line(
          r.id, r.params, p,
          exp_.simulator.measure(*exp_.app, r.params, p, run_id), run_id);
      return r;
    }
    if (!pool_.empty() && rng_.uniform() < kIngestRepeatShare) {
      const auto& [params, scales] = pool_[rng_.uniform_index(pool_.size())];
      r.params = params;
      r.scales = scales;
    } else {
      r.params = fresh_.next();
      r.scales = scale_sets()[rng_.uniform_index(scale_sets().size())];
      if (pool_.size() < kIngestRepeatPool) {
        pool_.emplace_back(r.params, r.scales);
      } else {
        pool_[rng_.uniform_index(pool_.size())] = {r.params, r.scales};
      }
    }
    r.line = predict_line(r.id, "", r.params, r.scales);
    return r;
  }

 private:
  static constexpr std::array<std::size_t, 5> kIngestScales = {1, 2, 4, 8,
                                                               16};
  const hpcp::Experiment& exp_;
  Rng rng_;
  FreshConfigs fresh_;
  Rng ingest_rng_;
  FreshConfigs ingest_fresh_;
  std::vector<std::pair<std::vector<double>, std::vector<std::size_t>>> pool_;
  std::vector<double> ingest_params_;
  std::size_t record_ = kIngestScales.size();
  std::uint64_t next_run_id_ = 5'000'000;
  std::uint64_t next_id_ = 0;
};

hpcp::TwoLevelModel fit(const hpcp::Experiment& exp, TrainTimes* train) {
  hpcp::TwoLevelModel model;
  Rng rng(kFitSeed);
  const std::int64_t t0 = now_ns();
  model.fit_checked(exp.problem, rng, {}).value_or_throw();
  if (train != nullptr) {
    train->fit_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return model;
}

/// The level-by-level split of one fit, through the same public calls
/// TwoLevelModel::fit_checked makes (interpolation fit, level-1 curves of
/// the training configurations, extrapolation fit).
void time_fit_levels(const hpcp::Experiment& exp, TrainTimes* train) {
  const hpcp::TwoLevelOptions opts;
  Rng rng(kFitSeed);
  hpcp::InterpolationLevel l1(opts.forest, opts.log_interpolation_target);
  std::int64_t t0 = now_ns();
  (void)l1.fit(exp.problem, rng);
  train->l1_fit_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const hpcp::Matrix curves = l1.predict_curves(exp.problem.train_configs);
  hpcp::ExtrapolationLevel l2(opts.extrapolation);
  t0 = now_ns();
  l2.fit(curves, exp.problem.small_scales, exp.problem.target_scales, rng);
  train->l2_fit_s = static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Starts the tenant's run log with the runs the set-up model was trained
/// on, plus each training configuration's run at 16, the holdout scale.
/// Candidates then train on the incumbent's data and more, so a promotion
/// swaps in a model of about the incumbent's size and cost.
void seed_run_log(const std::string& root, const hpcp::Experiment& exp,
                  const std::vector<std::size_t>& target_scales) {
  auto log = hpcp::ingest::RunLog::open(root, "default").value_or_throw();
  hpcp::ingest::LogEntry entry;
  entry.kind = hpcp::ingest::LogEntry::Kind::kConfig;
  for (std::size_t i = 0; i < exp.problem.num_params(); ++i) {
    entry.config.param_names.push_back("p" + std::to_string(i));
  }
  entry.config.target_scales = target_scales;
  log.append(entry).value_or_throw();
  entry.kind = hpcp::ingest::LogEntry::Kind::kRun;
  for (const hpcp::ExecutionRecord& rec : exp.history.records()) {
    entry.run = rec;
    log.append(entry).value_or_throw();
  }
  for (std::size_t r = 0; r < exp.problem.train_configs.rows(); ++r) {
    const auto row = exp.problem.train_configs.row(r);
    entry.run.params.assign(row.begin(), row.end());
    entry.run.nprocs = 16;
    entry.run.run_id = 3'000'000 + r;
    entry.run.runtime =
        exp.simulator.measure(*exp.app, row, 16, entry.run.run_id);
    log.append(entry).value_or_throw();
  }
}

}  // namespace

Deployment build_deployment(const Options& opts, const std::string& root,
                            TrainTimes* train) {
  Deployment dep;
  dep.store_root = (fs::path(root) / "store").string();
  fs::remove_all(dep.store_root);
  auto reg = hpcp::registry::Registry::open(dep.store_root).value_or_throw();

  dep.serve_opts.threads = 2;
  std::vector<std::string> apps = {"heat3d"};
  hpcp::ExperimentConfig base;
  base.num_train = 300;
  base.num_test = 8;
  base.seed = kHistorySeed;
  if (opts.kind == WorkloadKind::kHotTenants) {
    apps = {"heat3d", "minimd", "hpl-lu"};
    dep.serve_opts.max_resident_models = kHotTenants;
  } else if (opts.kind == WorkloadKind::kIngestRetrain) {
    // The served model knows scales 1..8; ingested runs add 16, which the
    // retrain pipeline holds out to judge candidate against incumbent.
    // No retrain trigger is set: on four cores a background retrain took
    // every core for 0.1-0.6 s and the serving thread for up to 0.1 s
    // (judge, publish, reload), and no latency or capacity figure repeated
    // across seeds. The traced run times the retrain pipeline instead.
    base.small_scales = {1, 2, 4, 8};
    base.target_scales = {16, 32, 64, 128, 256};
  }
  for (const std::string& app : apps) {
    hpcp::ExperimentConfig cfg = base;
    cfg.app_name = app;
    dep.apps.push_back(hpcp::make_experiment(cfg));
  }
  if (train != nullptr) time_fit_levels(dep.apps.front(), train);
  std::vector<hpcp::TwoLevelModel> models;
  for (const auto& exp : dep.apps) models.push_back(fit(exp, train));

  if (opts.kind == WorkloadKind::kHotTenants) {
    for (std::size_t t = 0; t < kHotTenants; ++t) {
      char name[8];
      std::snprintf(name, sizeof(name), "t%02zu", t);
      dep.tenants.emplace_back(name);
      (void)reg.add_model(name, models[t % models.size()]).value_or_throw();
    }
    auto source =
        std::make_unique<HotSource>(dep.apps, dep.tenants, opts.seed);
    dep.warmup = source->warmup();
    dep.source = std::move(source);
  } else {
    dep.tenants = {"default"};
    (void)reg.add_model("default", models.front()).value_or_throw();
    if (opts.kind == WorkloadKind::kColdPredict) {
      dep.source =
          std::make_unique<ColdSource>(*dep.apps.front().app, opts.seed);
    } else {
      seed_run_log(dep.store_root, dep.apps.front(), base.target_scales);
      dep.source = std::make_unique<IngestSource>(dep.apps.front(), opts.seed);
    }
    // Fresh predicts from the stream itself, so the measured requests
    // still never repeat a warm-up configuration.
    while (dep.warmup.size() < kWarmupFresh) {
      Request r = dep.source->next();
      if (r.kind == Request::Kind::kPredict) dep.warmup.push_back(std::move(r));
    }
  }
  return dep;
}

std::unique_ptr<hpcp::serve::Server> start_server(
    const Deployment& dep, const std::string& store_root, std::size_t threads) {
  hpcp::serve::ServeOptions opts = dep.serve_opts;
  opts.threads = threads;
  auto server = std::make_unique<hpcp::serve::Server>(opts);
  server->attach_registry(store_root).value_or_throw();
  std::vector<std::string> responses;
  replay_windows(*server, dep.warmup, 32, nullptr, &responses);
  for (const std::string& r : responses) {
    if (r.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("warm-up request failed: " + r);
    }
  }
  return server;
}

void replay_windows(hpcp::serve::Server& server,
                    const std::vector<Request>& lines, std::size_t window,
                    std::vector<double>* window_us,
                    std::vector<std::string>* responses) {
  window = std::max<std::size_t>(1, window);
  std::vector<hpcp::serve::Server::BatchLine> batch;
  for (std::size_t i = 0; i < lines.size(); i += window) {
    const std::size_t end = std::min(lines.size(), i + window);
    batch.clear();
    for (std::size_t j = i; j < end; ++j) batch.push_back({lines[j].line});
    const hpcp::obs::Span span("perfbench.window");
    const std::int64_t t0 = now_ns();
    auto outcome = server.handle_batch(batch);
    if (window_us != nullptr) {
      window_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    if (responses != nullptr) {
      for (auto& r : outcome.responses) responses->push_back(std::move(r));
    }
  }
}

// --- TcpListener ------------------------------------------------------------

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

TcpListener::TcpListener(hpcp::serve::Server& server) : server_(server) {
  thread_ = std::thread([this] {
    std::ostringstream log;
    hpcp::serve::TcpOptions tcp;
    tcp.bound_port = &port_;
    tcp.max_connections = 64;
    if (!hpcp::serve::run_tcp_server(server_, 0, log, tcp)) {
      failed_.store(true, std::memory_order_release);
    }
    log_ = log.str();
  });
  while (port_.load(std::memory_order_acquire) == 0) {
    if (failed_.load(std::memory_order_acquire)) {
      thread_.join();
      throw std::runtime_error("TCP listener failed to start: " + log_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TcpListener::~TcpListener() { (void)stop(); }

std::uint16_t TcpListener::port() const {
  return port_.load(std::memory_order_acquire);
}

std::string TcpListener::stop() {
  if (!thread_.joinable()) return log_;
  const int fd = connect_loopback(port());
  if (fd >= 0) {
    const char kShutdown[] = "{\"cmd\":\"shutdown\"}\n";
    (void)::send(fd, kShutdown, sizeof(kShutdown) - 1, MSG_NOSIGNAL);
    char buf[4096];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  }
  thread_.join();
  return log_;
}

}  // namespace perfbench
