/// \file main.cpp (perfbench)
/// perfbench_serve: one run of one workload against a live serve::Server
/// behind the epoll TCP front end.
///
///   perfbench_serve --workload NAME --seed N --seconds S --trace 0|1
///                   --rate R --run-dir DIR
///
/// --trace 0 (end to end): set-up is repeated three times (the last one
/// serves); then an open-loop phase at the nominal rate R for 70% of S
/// gives the latency percentiles, the server's CPU time per request and
/// the resident set, and a search over offered rates for about the
/// remaining 30% gives the capacity at which the windowed p99 stays
/// within 5 ms. The captured answers are checked (see checks.cpp).
///
/// --trace 1 (per layer): one set-up with the training layer split, an
/// untraced open-loop phase at R for 70% of S, then the in-process
/// replays of traced.cpp over that phase's request lines.
///
/// Human-readable lines go to stderr; the result is one JSON object on
/// the last line of stdout. Exit status 1 means a check failed or the run
/// could not be measured. When the generator fell behind in every attempt
/// at the nominal phase (see nominal_phase) the result carries
/// "valid":false and the exit status is 3.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "bench.hpp"
#include "src/forest/forest_isa.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/archive.hpp"
#include "src/registry/registry.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// The windowed p99 must stay within this for a rate to count towards
/// max_rps. On a 4-core host cold requests already see a ~1 ms p99 from
/// thread wake-ups at a fifth of capacity; 5 ms is where saturation shows.
constexpr double kP99LimitUs = 5000.0;
/// A phase whose generator sent its p99 request later than this after its
/// due time measured the generator, not the server.
constexpr double kLateLimitUs = 500.0;
/// A phase during which the hypervisor gave more than this share of the
/// guest's CPU time to other guests measured the host: cold p50_us rose by
/// a fifth at 1.5% and tripled at 13%, while cpu_us_per_req held.
constexpr double kStealLimitPct = 2.0;
/// Attempts at the nominal phase (see nominal_phase). Each costs 70% of
/// --seconds; two keep a run whose phase is re-run within the benchmark's
/// time budget.
constexpr std::uint64_t kNominalAttempts = 2;
constexpr std::size_t kMinSamples = 1000;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kWindowSamples = 1200;
/// Shares of --seconds: the nominal-rate phase, one capacity probe, and
/// the most the whole capacity search may take.
constexpr double kNominalShare = 0.7;
constexpr double kProbeShare = 0.04;
constexpr double kSearchShare = 0.35;
/// The capacity ladder's rungs are the nominal rate times 2^(k/2): it
/// starts at twice the nominal rate (nominal rates are an eighth to a
/// fifth of capacity) and spans a quarter of it to 64 times it.
constexpr int kFirstRung = 2;
constexpr int kMinRung = -4;
constexpr int kMaxRung = 12;
constexpr std::size_t kReplayLines = 20000;

void say(const std::string& s) {
  std::fprintf(stderr, "%s\n", s.c_str());
  std::fflush(stderr);
}

std::string fmt(const char* f, double a = 0, double b = 0, double c = 0,
                double d = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

/// Independent arrival-gap stream per phase of one run.
std::uint64_t phase_seed(std::uint64_t seed, std::uint64_t phase) {
  return seed * 0x9e3779b97f4a7c15ULL + phase * 0xbf58476d1ce4e5b9ULL + 1;
}

std::vector<Request> take(RequestSource& source, std::size_t n) {
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(source.next());
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Aggregate CPU time counters of the host (/proc/stat "cpu" line, in
/// clock ticks): everything, and the share the hypervisor stole.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (double x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

/// Percentage of all CPU time between `a` and now that the hypervisor
/// gave to other guests.
double steal_pct_since(const CpuTicks& a) {
  const CpuTicks b = cpu_ticks();
  return b.total > a.total ? 100.0 * (b.steal - a.steal) / (b.total - a.total)
                           : 0.0;
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// The result document: flat metrics plus diagnostics.
struct Result {
  bool correct = true;
  bool valid = true;  ///< false when the generator could not keep time
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::string> report;

  void fail(const std::string& e) {
    correct = false;
    errors.push_back(e);
  }
  void metric(const std::string& k, double v) { metrics.emplace_back(k, v); }
  void note(const std::string& k, double v) { info.emplace_back(k, v); }
};

std::string to_json(const Options& opts, const Result& r,
                    const std::string& store_fs) {
  std::string out = "{\"schema\":\"hpcp-perfbench/1\",\"workload\":";
  out += hpcp::obs::json_quote(opts.workload);
  out += ",\"seed\":" + std::to_string(opts.seed);
  out += ",\"trace\":" + std::to_string(opts.trace ? 1 : 0);
  out += ",\"rate\":";
  hpcp::obs::json_number_into(out, opts.rate);
  out += ",\"seconds\":";
  hpcp::obs::json_number_into(out, opts.seconds);
  out += ",\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"valid\":";
  out += r.valid ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) out += ',';
    out += hpcp::obs::json_quote(r.errors[i]);
  }
  const auto object = [&](const char* name, const auto& kv) {
    out += ",\"";
    out += name;
    out += "\":{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) out += ',';
      out += hpcp::obs::json_quote(kv[i].first);
      out += ':';
      hpcp::obs::json_number_into(out, kv[i].second);
    }
    out += '}';
  };
  out += ']';
  object("metrics", r.metrics);
  object("info", r.info);
  out += ",\"host\":{\"forest_isa\":";
  out += hpcp::obs::json_quote(hpcp::forest_isa_name(hpcp::resolve_forest_isa()));
  out += ",\"compiler\":";
  out += hpcp::obs::json_quote(std::string("g++ ") + __VERSION__);
  out += ",\"build_type\":";
  out += hpcp::obs::json_quote(PERFBENCH_BUILD_TYPE);
  out += ",\"store_fs\":";
  out += hpcp::obs::json_quote(store_fs);
  out += "}}";
  return out;
}

std::string describe(const PhaseResult& p) {
  return fmt("rate %.0f/s: p50 %.1f us, p99 %.1f us, late p99 %.1f us",
             p.rate, percentile(p.predict_us, 0.5),
             percentile(p.predict_us, 0.99), percentile(p.late_us, 0.99)) +
         fmt(", %.0f predicts, %.0f failed, %.0f outstanding at end",
             static_cast<double>(p.predicts),
             static_cast<double>(p.predict_failures),
             static_cast<double>(p.outstanding_at_end));
}

/// Length of the windows latency is summarised over: long enough for 1200
/// samples at `rate`, so ten or more lie beyond each window's p99.
double p99_window_s(double rate) { return kWindowSamples / rate; }

/// The median over windows of each window's q-th percentile. A stall
/// that spoils more than half of the windows moves it; the whole-phase
/// p99 is reported beside it (see run_end_to_end).
double windowed_percentile(const PhaseResult& p, double window_s, double q) {
  return median(window_percentiles(p, window_s, q));
}

/// The kept attempt at the nominal phase, with the lines it sent.
struct Nominal {
  PhaseResult phase;
  std::vector<Request> lines;
  double steal_pct = 0.0;  ///< CPU time given to other guests, percent
  /// The resident set right after the first attempt: the server's models,
  /// pools and filled caches, plus the attempt's request lines and captured
  /// answers, whose size is fixed by the workload's rate and --seconds.
  /// Later attempts grow the request stream's own state, not the server's.
  double rss_mb = 0.0;
};

/// The phase at the nominal rate. An attempt whose generator itself fell
/// behind measured the generator, and one during which the hypervisor gave
/// more than kStealLimitPct of the CPU time to other guests measured the
/// host: either is run again on the next lines of the stream, up to
/// kNominalAttempts in all, and the punctual attempt with the least steal
/// is kept. When every attempt fell behind, the run is flagged invalid
/// (its answers are still checked).
Nominal nominal_phase(const Options& opts, Deployment& dep, std::uint16_t port,
                      double seconds, Result* res) {
  const auto n = static_cast<std::size_t>(opts.rate * seconds);
  PhaseConfig cfg;
  cfg.rate = opts.rate;
  cfg.capture = true;
  Nominal kept;
  bool kept_punctual = false;
  std::uint64_t attempt = 0;
  while (attempt < kNominalAttempts) {
    std::vector<Request> reqs =
        take(*dep.source, std::max<std::size_t>(n, 3 * kWindowSamples));
    const CpuTicks before = cpu_ticks();
    PhaseResult p = run_phase(port, reqs, phase_seed(opts.seed, attempt), cfg);
    const double steal = steal_pct_since(before);
    const bool punctual = percentile(p.late_us, 0.99) <= kLateLimitUs;
    ++attempt;
    say("nominal " + describe(p) + fmt(", %.2f%% of CPU time stolen", steal));
    if (attempt == 1) kept.rss_mb = resident_mb();
    if (attempt == 1 || (punctual && (!kept_punctual || steal < kept.steal_pct))) {
      kept.phase = std::move(p);
      kept.lines = std::move(reqs);
      kept.steal_pct = steal;
      kept_punctual = punctual;
    }
    if (kept_punctual && kept.steal_pct <= kStealLimitPct) break;
    if (attempt < kNominalAttempts) {
      say(punctual ? "the host took CPU time; running the nominal phase again"
                   : "the load generator fell behind its schedule; running "
                     "the nominal phase again");
    }
  }
  res->note("nominal_attempts", static_cast<double>(attempt));
  if (!kept_punctual) {
    res->valid = false;
    say("INVALID: the load generator fell behind its schedule in every "
        "attempt at the nominal rate; this run is not a measurement");
  }
  return kept;
}

/// One capacity probe: whether the rate met the latency limit, and the
/// windowed p99 it reached.
struct ProbeOutcome {
  bool pass = false;
  double p99_us = 0.0;
};

/// The rate between a passing rung (rate lo, p99 lo_p99) and the failing
/// rung above it (rate hi) at which the p99 reaches kP99LimitUs, by linear
/// interpolation in log rate and log p99. A rung that failed on errors,
/// backlog or a late generator with its p99 still within the limit gives
/// no slope, and the passing rate stands.
double interpolate_capacity(double lo, double lo_p99, double hi,
                            const ProbeOutcome& fail) {
  if (!(lo_p99 > 0.0) || fail.p99_us <= kP99LimitUs || fail.p99_us <= lo_p99) {
    return lo;
  }
  const double f = std::log(kP99LimitUs / lo_p99) / std::log(fail.p99_us / lo_p99);
  return lo * std::pow(hi / lo, std::clamp(f, 0.0, 1.0));
}

/// Capacity: the offered rate at which the windowed p99 reaches
/// kP99LimitUs. Probes climb a fixed ladder of rates, the nominal rate
/// times 2^(k/2) from k = kFirstRung, until a rung fails: a request
/// unanswered or failed, the windowed p99 over the limit, the generator
/// late or a backlog left at the last due time. A failing rung is probed
/// once more, so that one host stall does not decide, and the lower of its
/// two p99s is kept. The bracket is halved by one more probe at its log midpoint, and the answer
/// is interpolated within it (interpolate_capacity), so it follows the
/// server's latency curve smoothly instead of jumping from rung to rung.
/// When the first rung fails, the ladder descends instead, at most to a
/// quarter of the nominal rate.
double search_max_rps(const Options& opts, Deployment& dep, std::uint16_t port,
                      Result* res) {
  std::uint64_t phase = 16;
  // Probes last a fixed time, cut into four windows for the windowed p99
  // (a decision statistic here, so a window may hold fewer than 1200
  // requests at low rates), and the whole search stops when its share of
  // --seconds is spent.
  const double probe_s = kProbeShare * opts.seconds;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kSearchShare * opts.seconds * 1e9);
  const auto attempt = [&](double rate) {
    const auto reqs = take(
        *dep.source, std::max<std::size_t>(
                         64, static_cast<std::size_t>(rate * probe_s)));
    PhaseConfig cfg;
    cfg.rate = rate;
    cfg.drain_timeout_s = 0.5;
    const PhaseResult p =
        run_phase(port, reqs, phase_seed(opts.seed, phase++), cfg);
    if (p.wrong_ids > 0) {
      res->fail("wrong or garbled response ids at " + fmt("%.0f/s", rate) +
                ": " + (p.errors.empty() ? "" : p.errors.front()));
    }
    ProbeOutcome out;
    out.p99_us = windowed_percentile(p, probe_s / 4, 0.99);
    out.pass = p.predict_failures == 0 && p.ingest_failures == 0 &&
               p.wrong_ids == 0 && out.p99_us <= kP99LimitUs &&
               percentile(p.late_us, 0.99) <= kLateLimitUs &&
               static_cast<double>(p.outstanding_at_end) <=
                   std::max(8.0, rate * kP99LimitUs * 1e-6);
    say(std::string("probe ") + (out.pass ? "pass " : "FAIL ") + describe(p) +
        fmt(", windowed p99 %.1f us", out.p99_us));
    // Let a failed probe's backlog drain before the next one starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(out.pass ? 20 : 200));
    return out;
  };
  // Empty once the search's time is spent.
  const auto probe = [&](double rate) -> std::optional<ProbeOutcome> {
    if (now_ns() >= deadline) return std::nullopt;
    ProbeOutcome first = attempt(rate);
    if (first.pass || now_ns() >= deadline) return first;
    ProbeOutcome second = attempt(rate);
    if (!second.pass) second.p99_us = std::min(second.p99_us, first.p99_us);
    return second;
  };
  const auto rung = [&](int k) { return opts.rate * std::pow(2.0, 0.5 * k); };

  // Climb (or, from a failing first rung, descend) to a bracket: a passing
  // rate `lo` and the failing rate `hi` one rung above it.
  struct Point {
    double rate = 0.0;
    ProbeOutcome at;
  };
  std::optional<Point> lo;
  std::optional<Point> hi;
  for (int k = kFirstRung; k <= kMaxRung && k >= kMinRung;) {
    const auto at = probe(rung(k));
    if (!at) break;
    if (at->pass) {
      lo = Point{rung(k), *at};
      if (hi) break;
      ++k;
    } else {
      hi = Point{rung(k), *at};
      if (lo) break;
      --k;
    }
  }
  if (!lo) {
    say("capacity search found no passing rate");
    return rung(kMinRung);
  }
  if (!hi) {
    say("capacity search ended below its first failing rate");
    return lo->rate;
  }
  // One probe half-way (in log rate) halves the bracket the answer is
  // interpolated in.
  const double mid = std::sqrt(lo->rate * hi->rate);
  if (const auto at = probe(mid)) (at->pass ? lo : hi) = Point{mid, *at};
  return interpolate_capacity(lo->rate, lo->at.p99_us, hi->rate, hi->at);
}

void run_end_to_end(const Options& opts, Result* res) {
  std::vector<double> setup_s;
  Deployment dep;
  std::unique_ptr<hpcp::serve::Server> server;
  std::unique_ptr<TcpListener> listener;
  const std::string setup_dir = (fs::path(opts.run_dir) / "setup").string();
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    listener.reset();
    server.reset();
    const std::int64_t t0 = now_ns();
    dep = build_deployment(opts, setup_dir, nullptr);
    server = start_server(dep, dep.store_root, dep.serve_opts.threads);
    listener = std::make_unique<TcpListener>(*server);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    say(fmt("setup %.0f: %.3f s", static_cast<double>(rep), setup_s.back()));
    // Hand the freed memory of the repetitions back, so the resident set
    // while serving does not depend on which pool thread's arena a
    // repetition happened to use.
    (void)::malloc_trim(0);
  }

  Nominal nominal = nominal_phase(opts, dep, listener->port(),
                                  kNominalShare * opts.seconds, res);
  const PhaseResult& nom = nominal.phase;
  const std::vector<Request>& lines = nominal.lines;
  const double max_rps = search_max_rps(opts, dep, listener->port(), res);
  (void)listener->stop();

  res->attempted = nom.predicts + nom.ingests;
  res->failed = nom.predict_failures + nom.ingest_failures;
  if (nom.wrong_ids > 0 || res->failed > 0) {
    res->fail(fmt("%.0f of %.0f requests failed at the nominal rate",
                  static_cast<double>(res->failed),
                  static_cast<double>(res->attempted)) +
              (nom.errors.empty() ? "" : ": " + nom.errors.front()));
  }
  if (nom.predict_us.size() < kMinSamples) {
    res->fail("fewer than 1000 latency samples at the nominal rate");
  }
  const CheckResult chk =
      check_responses(dep, lines, nom.captured, opts.run_dir);
  for (const std::string& e : chk.errors) res->fail(e);
  say(fmt("checks: %.0f answers replayed byte-identical, MAPE %.3f%% over "
          "%.0f points",
          static_cast<double>(chk.replayed), chk.mape_pct,
          static_cast<double>(chk.mape_points)));

  res->metric("setup_s", median(setup_s));
  res->metric("p50_us", windowed_percentile(nom, p99_window_s(opts.rate), 0.5));
  res->metric("p99_us", windowed_percentile(nom, p99_window_s(opts.rate), 0.99));
  res->metric("max_rps", max_rps);
  res->metric("cpu_us_per_req", nom.server_cpu_s * 1e6 /
                                    static_cast<double>(std::max<std::size_t>(
                                        1, res->attempted)));
  res->metric("mape_pct", chk.mape_pct);
  res->metric("rss_mb", nominal.rss_mb);
  res->metric("fail_ratio",
              res->attempted > 0 ? static_cast<double>(res->failed) /
                                       static_cast<double>(res->attempted)
                                 : 0.0);
  if (opts.kind == WorkloadKind::kIngestRetrain) {
    res->metric("ingest_p50_us", percentile(nom.ingest_us, 0.5));
  }
  res->note("latency_samples", static_cast<double>(nom.predict_us.size()));
  res->note("p99_window_s", p99_window_s(opts.rate));
  res->note("whole_phase_p99_us", percentile(nom.predict_us, 0.99));
  res->note("peak_rss_mb", peak_rss_mb());
  res->note("late_p99_us", percentile(nom.late_us, 0.99));
  res->note("steal_pct", nominal.steal_pct);
  res->note("batch_lines", median(std::vector<double>(
                               nom.batch_lines.begin(), nom.batch_lines.end())));
  res->note("replayed_identical", static_cast<double>(chk.replayed));
  res->note("mape_points", static_cast<double>(chk.mape_points));
}

void run_traced(const Options& opts, Result* res) {
  TrainTimes train;
  const std::string setup_dir = (fs::path(opts.run_dir) / "setup").string();
  Deployment dep = build_deployment(opts, setup_dir, &train);
  const std::string pristine = (fs::path(opts.run_dir) / "pristine").string();
  fs::remove_all(pristine);
  fs::copy(dep.store_root, pristine, fs::copy_options::recursive);

  // Archive loads, through the registry's loader, once per tenant.
  std::vector<double> load_ms;
  {
    const auto reg = hpcp::registry::Registry::open(pristine).value_or_throw();
    for (const std::string& tenant : dep.tenants) {
      const std::int64_t t0 = now_ns();
      (void)hpcp::registry::load_model_any(reg.version_path(tenant, 1))
          .value_or_throw();
      load_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
  }

  auto server = start_server(dep, dep.store_root, dep.serve_opts.threads);
  TcpListener listener(*server);
  Nominal nominal = nominal_phase(opts, dep, listener.port(),
                                  kNominalShare * opts.seconds, res);
  const PhaseResult& nom = nominal.phase;
  std::vector<Request>& lines = nominal.lines;
  const std::string log = listener.stop();
  std::size_t closed_abnormally = 0;
  for (std::size_t at = log.find("connection closed ("); at != std::string::npos;
       at = log.find("connection closed (", at + 1)) {
    const std::string reason = log.substr(at + 19, log.find(')', at) - at - 19);
    if (reason != "eof" && reason != "shutdown") ++closed_abnormally;
  }
  const auto shed = static_cast<double>(server->sheds());
  const auto deadline = static_cast<double>(server->deadline_rejects());
  server.reset();

  res->attempted = nom.predicts + nom.ingests;
  res->failed = nom.predict_failures + nom.ingest_failures;
  if (nom.wrong_ids > 0 || res->failed > 0) {
    res->fail(fmt("%.0f of %.0f requests failed at the nominal rate",
                  static_cast<double>(res->failed),
                  static_cast<double>(res->attempted)));
  }
  const double window = std::max(
      1.0, std::round(median(std::vector<double>(nom.batch_lines.begin(),
                                                 nom.batch_lines.end()))));
  // The replays take the phase's first lines: enough for every layer to
  // see thousands of calls, few enough that four replays stay short.
  if (lines.size() > kReplayLines) lines.resize(kReplayLines);
  TracedInputs in;
  in.dep = &dep;
  in.pristine_store = pristine;
  in.lines = &lines;
  in.window = static_cast<std::size_t>(window);
  in.client_p50_us = percentile(nom.predict_us, 0.5);
  in.scratch = opts.run_dir;
  in.trace_path = (fs::path(opts.run_dir) / "trace.json").string();
  const LayerReport layers = traced_replay(in);
  for (const std::string& e : layers.errors) res->fail(e);
  res->report = layers.lines;
  res->report.push_back("chrome trace: " + in.trace_path);

  for (const auto& [k, v] : layers.metrics) res->metric(k, v);
  res->metric("serve.server.shed", shed);
  res->metric("serve.server.deadline", deadline);
  res->metric("serve.tcp.closed_conns", static_cast<double>(closed_abnormally));
  res->metric("registry.load_ms", median(load_ms));
  res->metric("train.l1_fit_s", train.l1_fit_s);
  res->metric("train.l2_fit_s", train.l2_fit_s);
  res->metric("train.fit_s", train.fit_s.front());
  res->metric("loadgen.late_p99_us", percentile(nom.late_us, 0.99));
  res->metric("loadgen.sent", static_cast<double>(nom.sent));
  res->metric("loadgen.completed", static_cast<double>(nom.completed));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_serve --workload cold-predict|hot-tenants|"
               "ingest-retrain --seed N --seconds S --trace 0|1 --rate R "
               "--run-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(val);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--rate") {
      opts.rate = std::stod(val);
    } else if (key == "--run-dir") {
      opts.run_dir = val;
    } else {
      return usage();
    }
  }
  if (opts.workload == "cold-predict") {
    opts.kind = WorkloadKind::kColdPredict;
  } else if (opts.workload == "hot-tenants") {
    opts.kind = WorkloadKind::kHotTenants;
  } else if (opts.workload == "ingest-retrain") {
    opts.kind = WorkloadKind::kIngestRetrain;
  } else {
    return usage();
  }
  if (opts.run_dir.empty() || !(opts.rate > 0.0) || !(opts.seconds > 0.0)) {
    return usage();
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(opts.run_dir);
  pin_to_server_cpus();
  Result res;
  try {
    if (opts.trace) {
      run_traced(opts, &res);
    } else {
      run_end_to_end(opts, &res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : res.report) say(line);
  for (const std::string& e : res.errors) say("CHECK FAILED: " + e);
  std::printf("%s\n", to_json(opts, res, fs_type(opts.run_dir)).c_str());
  if (!res.correct) return 1;
  return res.valid ? 0 : 3;
}
