/// \file traced.cpp (perfbench)
/// The traced per-layer run: the request lines of an untraced TCP run are
/// replayed in-process, in windows of the micro-batch size that run
/// reported, over fresh copies of the same store:
///
///   1. untraced, through Server::handle_batch — the window times every
///      layer's share is taken against;
///   2. the same with span recording on, then untraced once more — the
///      traced time over the mean untraced one is the tracing overhead;
///   3. a decomposition of the same windows into the public calls the
///      server makes for them — parse_request, ModelPool::acquire,
///      PredictionCache::lookup/insert, InterpolationLevel::predict_curves,
///      TwoLevelModel::predict_curve_at_scales, render_predictions,
///      IngestScheduler::append — each timed under its own span, plus
///      ExtrapolationLevel::assign_cluster and, every kMirrorRetrainRecords
///      ingested runs, the retrain pipeline (ingest::fit_candidate and
///      judge_candidate, promoting winners), which no server-side trigger
///      runs. Without ingested runs its rendered bytes must equal (1)'s.
///
/// All spans come from this file (and replay_windows); the spans the
/// library itself records are exported alongside them.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "src/ingest/pipeline.hpp"
#include "src/ingest/scheduler.hpp"
#include "src/obs/trace.hpp"
#include "src/registry/registry.hpp"
#include "src/registry/residency.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Line = perfbench::Request;
using Parsed = hpcp::serve::Request;

/// The decomposed replay runs the retrain pipeline once per this many
/// ingested runs: the --retrain-records threshold the repository's
/// continuous-learning quick-start (README.md) and tests use.
constexpr std::size_t kMirrorRetrainRecords = 40;

struct Layer {
  double busy_us = 0.0;
  std::size_t calls = 0;
};

/// Times one call into `layer` and records it as a span named `name`.
class Probe {
 public:
  Probe(Layer& layer, const char* name)
      : layer_(layer), span_(name), t0_(now_ns()) {}
  ~Probe() {
    layer_.busy_us += static_cast<double>(now_ns() - t0_) * 1e-3;
    ++layer_.calls;
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  Layer& layer_;
  hpcp::obs::Span span_;
  std::int64_t t0_;
};

std::string copy_store(const std::string& from, const std::string& scratch,
                       const char* name) {
  const fs::path to = fs::path(scratch) / name;
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  return to.string();
}

struct Counters {
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t pool_hits = 0, pool_loads = 0, evictions = 0;
};

Counters counters(hpcp::serve::Server& server) {
  Counters c;
  c.cache_hits = server.cache().hits();
  c.cache_misses = server.cache().misses();
  if (auto* pool = server.model_pool()) {
    for (const auto& t : pool->stats()) {
      c.pool_hits += t.hits;
      c.pool_loads += t.loads;
    }
    c.evictions = pool->total_evictions();
  }
  return c;
}

/// The decomposed replay (step 3).
class Mirror {
 public:
  Mirror(const Deployment& dep, const std::string& root)
      : dep_(dep),
        root_(root),
        pool_(hpcp::registry::Registry::open(root).value_or_throw(),
              {.max_resident_models = dep.serve_opts.max_resident_models,
               .max_resident_bytes = dep.serve_opts.max_resident_bytes}),
        sched_(pool_, {}),
        cache_(dep.serve_opts.cache_entries, dep.serve_opts.cache_shards) {}

  /// Runs one window; returns the rendered predict responses by position
  /// (empty for non-predict lines).
  std::vector<std::string> window(const std::vector<Line>& lines,
                                  std::size_t begin, std::size_t end) {
    struct Row {
      Parsed req;
      std::string tenant;
      std::shared_ptr<const hpcp::registry::ResidentModel> pin;
      std::vector<std::size_t> scales;
      std::vector<double> preds;
      bool predict = false;
      bool compute = false;
    };
    std::vector<Row> rows(end - begin);
    std::vector<std::size_t> compute_rows;
    for (std::size_t i = begin; i < end; ++i) {
      Row& row = rows[i - begin];
      hpcp::serve::ErrorInfo err;
      bool parsed = false;
      {
        const Probe p(parse, "serve.protocol.parse_request");
        parsed = hpcp::serve::parse_request(lines[i].line, &row.req, &err);
      }
      if (!parsed) {
        ++parse_errors;
        continue;
      }
      row.tenant = row.req.tenant.empty() ? hpcp::registry::kDefaultTenant
                                          : row.req.tenant;
      if (row.req.cmd == Parsed::Cmd::kIngest) {
        ingest_record(row.req, row.tenant);
        continue;
      }
      if (row.req.cmd != Parsed::Cmd::kPredict) continue;
      row.predict = true;
      {
        const Probe p(acquire, "registry.acquire");
        row.pin = pool_.acquire(row.tenant).value_or_throw();
      }
      row.scales =
          row.req.scales.empty() ? row.pin->default_scales : row.req.scales;
      row.preds.resize(row.scales.size());
      bool all_hit = cache_.enabled();
      for (std::size_t s = 0; all_hit && s < row.scales.size(); ++s) {
        const Probe p(lookup, "serve.cache.lookup");
        const auto hit = cache_.lookup(row.tenant, row.pin->version,
                                       row.req.params, row.scales[s]);
        if (hit) {
          row.preds[s] = *hit;
        } else {
          all_hit = false;
        }
      }
      if (!all_hit) {
        row.compute = true;
        compute_rows.push_back(i - begin);
      }
    }

    // One level-1 call per distinct model, as the server groups them.
    std::vector<const hpcp::TwoLevelModel*> models;
    for (const std::size_t r : compute_rows) {
      const hpcp::TwoLevelModel* m = &rows[r].pin->model;
      if (std::find(models.begin(), models.end(), m) == models.end()) {
        models.push_back(m);
      }
    }
    for (const hpcp::TwoLevelModel* model : models) {
      std::vector<std::size_t> group;
      for (const std::size_t r : compute_rows) {
        if (&rows[r].pin->model == model) group.push_back(r);
      }
      hpcp::Matrix configs(group.size(),
                           model->interpolation().num_features());
      for (std::size_t g = 0; g < group.size(); ++g) {
        configs.set_row(g, rows[group[g]].req.params);
      }
      hpcp::Matrix curves;
      {
        const Probe p(l1, "core.l1.predict_curves");
        curves = model->interpolation().predict_curves(configs);
      }
      l1_rows += group.size();
      for (std::size_t g = 0; g < group.size(); ++g) {
        Row& row = rows[group[g]];
        {
          const Probe p(assign, "cluster.assign_cluster");
          (void)model->extrapolation().assign_cluster(curves.row(g));
        }
        const Probe p(l2, "core.l2.predict_curve_at_scales");
        row.preds = model->predict_curve_at_scales(curves.row(g), row.scales);
        l2_scales += row.scales.size();
      }
    }
    for (const std::size_t r : compute_rows) {
      const Row& row = rows[r];
      for (std::size_t s = 0; s < row.scales.size(); ++s) {
        const Probe p(insert, "serve.cache.insert");
        cache_.insert(row.tenant, row.pin->version, row.req.params,
                      row.scales[s], row.preds[s]);
      }
    }
    std::vector<std::string> out(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (!rows[r].predict) continue;
      const Probe p(render, "serve.protocol.render_predictions");
      out[r] = hpcp::serve::render_predictions(
          rows[r].req.id_json, rows[r].pin->version, rows[r].scales,
          rows[r].preds);
    }
    return out;
  }

  /// Busy time of the calls the server itself makes on its serving path.
  [[nodiscard]] double serving_busy_us() const {
    return parse.busy_us + acquire.busy_us + lookup.busy_us + l1.busy_us +
           l2.busy_us + insert.busy_us + render.busy_us + append.busy_us;
  }

  void reset_layers() {
    parse = acquire = lookup = insert = l1 = l2 = assign = render = append =
        fit = judge = Layer{};
    parse_errors = l1_rows = l2_scales = 0;
    fit_s.clear();
    judge_ms.clear();
    warm_scales = fitted_scales = promotions = rejections = 0;
  }

  Layer parse, acquire, lookup, insert, l1, l2, assign, render, append, fit,
      judge;
  std::size_t parse_errors = 0;
  std::size_t l1_rows = 0;
  std::size_t l2_scales = 0;
  std::vector<double> fit_s;
  std::vector<double> judge_ms;
  std::size_t warm_scales = 0;
  std::size_t fitted_scales = 0;
  std::size_t promotions = 0;
  std::size_t rejections = 0;

 private:
  /// IngestScheduler::append, and every kMirrorRetrainRecords appended runs
  /// the retrain pipeline the scheduler runs in the background, synchronously:
  /// fit a candidate on the whole log (warm-started from the last promoted
  /// one) and judge it against the incumbent.
  void ingest_record(const Parsed& req, const std::string& tenant) {
    hpcp::ExecutionRecord rec;
    rec.params = req.params;
    rec.nprocs = req.nprocs;
    rec.runtime = req.runtime;
    rec.run_id = req.run_id;
    {
      const Probe p(append, "ingest.append");
      (void)sched_.append(tenant, rec).value_or_throw();
    }
    if (++since_retrain_ < kMirrorRetrainRecords) return;
    since_retrain_ = 0;
    if (incumbent_ == nullptr) {
      pin_ = pool_.acquire(tenant).value_or_throw();
      incumbent_ = &pin_->model;
    }
    const auto log = hpcp::ingest::RunLog::read_file(
                         hpcp::ingest::RunLog::log_path(root_, tenant))
                         .value_or_throw();
    std::size_t records = 0;
    for (const auto& e : log.entries) {
      records += e.kind == hpcp::ingest::LogEntry::Kind::kRun ? 1 : 0;
    }
    std::optional<hpcp::Expected<hpcp::ingest::CandidateFit>> candidate;
    {
      const Probe p(fit, "ingest.fit_candidate");
      const std::int64_t t0 = now_ns();
      candidate.emplace(hpcp::ingest::fit_candidate(
          log.entries, records, tenant, chain_.get(), {}));
      fit_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    if (*candidate) {
      warm_scales += (*candidate)->warm_scales;
      fitted_scales += (*candidate)->model.interpolation().num_scales();
    }
    std::optional<hpcp::ingest::ShadowOutcome> verdict;
    {
      const Probe p(judge, "ingest.judge_candidate");
      const std::int64_t t0 = now_ns();
      verdict.emplace(hpcp::ingest::judge_candidate(std::move(*candidate),
                                                    records, incumbent_));
      judge_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    if (verdict->promoted && verdict->candidate) {
      ++promotions;
      chain_ = std::make_shared<const hpcp::TwoLevelModel>(
          std::move(*verdict->candidate));
      incumbent_ = chain_.get();
    } else {
      ++rejections;
    }
  }

  const Deployment& dep_;
  std::string root_;
  hpcp::registry::ModelPool pool_;
  hpcp::ingest::IngestScheduler sched_;
  hpcp::serve::PredictionCache cache_;
  std::size_t since_retrain_ = 0;
  std::shared_ptr<const hpcp::registry::ResidentModel> pin_;
  std::shared_ptr<const hpcp::TwoLevelModel> chain_;
  const hpcp::TwoLevelModel* incumbent_ = nullptr;
};

double per_call(const Layer& l) {
  return l.calls > 0 ? l.busy_us / static_cast<double>(l.calls) : 0.0;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

}  // namespace

LayerReport traced_replay(const TracedInputs& in) {
  LayerReport rep;
  const Deployment& dep = *in.dep;
  const std::vector<Line>& lines = *in.lines;
  const std::size_t window = std::max<std::size_t>(1, in.window);
  hpcp::obs::set_trace_enabled(false);

  // 1. Untraced window times through the real server, before and after
  // the traced replay (2), so that warm-up order does not bias the ratio.
  std::vector<double> window_us;
  std::vector<std::string> served;
  Counters before, after;
  const auto replay = [&](const char* name, bool traced,
                          std::vector<double>* times,
                          std::vector<std::string>* responses) {
    const std::string root = copy_store(in.pristine_store, in.scratch, name);
    auto server = start_server(dep, root, 1);
    if (responses != nullptr) before = counters(*server);
    hpcp::obs::set_trace_enabled(traced);
    replay_windows(*server, lines, window, times, responses);
    hpcp::obs::set_trace_enabled(false);
    if (responses != nullptr) after = counters(*server);
    double total = 0.0;
    for (const double w : *times) total += w;
    return total;
  };
  hpcp::obs::Tracer::instance().set_capacity(std::size_t{1} << 20);
  std::vector<double> traced_windows, again_windows;
  const double untraced_us = replay("replay1", false, &window_us, &served);
  const double traced_us = replay("replay2", true, &traced_windows, nullptr);
  const double untraced_again_us =
      replay("replay3", false, &again_windows, nullptr);

  // 3. The decomposition, spans on.
  const std::string root = copy_store(in.pristine_store, in.scratch, "replay4");
  Mirror mirror(dep, root);
  for (std::size_t i = 0; i < dep.warmup.size(); i += 32) {
    (void)mirror.window(dep.warmup, i, std::min(dep.warmup.size(), i + 32));
  }
  mirror.reset_layers();
  hpcp::obs::set_trace_enabled(true);
  const bool read_only =
      std::none_of(lines.begin(), lines.end(), [](const Line& l) {
        return l.kind == Line::Kind::kIngest;
      });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < lines.size(); i += window) {
    const std::size_t end = std::min(lines.size(), i + window);
    const auto rendered = mirror.window(lines, i, end);
    if (!read_only) continue;
    for (std::size_t j = i; j < end; ++j) {
      if (!rendered[j - i].empty() && rendered[j - i] != served[j]) {
        if (mismatches++ == 0) {
          rep.errors.push_back("decomposed replay differs from handle_batch: " +
                               rendered[j - i].substr(0, 120) + " | " +
                               served[j].substr(0, 120));
        }
      }
    }
  }
  hpcp::obs::set_trace_enabled(false);
  if (!hpcp::obs::Tracer::instance().write_chrome_json(in.trace_path)) {
    rep.errors.push_back("cannot write " + in.trace_path);
  }

  // Per-request in-process window time, as the TCP client's counterpart.
  std::vector<double> per_request;
  for (std::size_t w = 0; w < window_us.size(); ++w) {
    const std::size_t n =
        std::min(window, lines.size() - w * window);
    per_request.push_back(window_us[w] / static_cast<double>(n));
  }
  const auto n_lines = static_cast<double>(lines.size());
  const std::uint64_t lookups = (after.cache_hits - before.cache_hits) +
                                (after.cache_misses - before.cache_misses);
  const std::uint64_t acquires = (after.pool_hits - before.pool_hits) +
                                 (after.pool_loads - before.pool_loads);
  auto& m = rep.metrics;
  m["serve.protocol.parse_us"] = per_call(mirror.parse);
  m["serve.protocol.render_us"] = per_call(mirror.render);
  m["serve.protocol.errors"] = static_cast<double>(mirror.parse_errors);
  m["serve.cache.lookup_us"] = per_call(mirror.lookup);
  m["serve.cache.insert_us"] = per_call(mirror.insert);
  m["serve.cache.hit_ratio"] =
      ratio(static_cast<double>(after.cache_hits - before.cache_hits),
            static_cast<double>(lookups));
  m["serve.server.batch_lines"] = static_cast<double>(window);
  m["serve.server.self_us"] =
      (untraced_us - mirror.serving_busy_us()) / n_lines;
  m["serve.tcp.overhead_us"] = in.client_p50_us - median(per_request);
  m["core.l1.calls"] = static_cast<double>(mirror.l1.calls);
  m["core.l1.rows_per_call"] =
      ratio(static_cast<double>(mirror.l1_rows),
            static_cast<double>(mirror.l1.calls));
  m["core.l1.us_per_call"] = per_call(mirror.l1);
  m["core.l2.us_per_row"] = per_call(mirror.l2);
  m["core.l2.us_per_scale"] =
      ratio(mirror.l2.busy_us, static_cast<double>(mirror.l2_scales));
  m["cluster.assign_us"] = per_call(mirror.assign);
  m["core.compute_share"] =
      ratio(mirror.l1.busy_us + mirror.l2.busy_us, untraced_us);
  m["registry.acquire_us"] = per_call(mirror.acquire);
  m["registry.resident_hit_ratio"] =
      ratio(static_cast<double>(after.pool_hits - before.pool_hits),
            static_cast<double>(acquires));
  m["registry.loads"] = static_cast<double>(after.pool_loads - before.pool_loads);
  m["registry.evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  m["ingest.append_us"] = per_call(mirror.append);
  m["ingest.fit_s"] = median(mirror.fit_s);
  m["ingest.judge_ms"] = median(mirror.judge_ms);
  m["ingest.warm_ratio"] = ratio(static_cast<double>(mirror.warm_scales),
                                 static_cast<double>(mirror.fitted_scales));
  m["ingest.promotions"] = static_cast<double>(mirror.promotions);
  m["ingest.rejections"] = static_cast<double>(mirror.rejections);
  m["obs.trace_overhead"] =
      ratio(2.0 * traced_us, untraced_us + untraced_again_us);

  auto& out = rep.lines;
  out.push_back(fmt("replay: %.0f lines in windows of %.0f; handle_batch "
                    "busy %.1f ms",
                    n_lines, static_cast<double>(window), untraced_us * 1e-3));
  const std::pair<const char*, const Layer*> layers[] = {
      {"serve.protocol.parse_request", &mirror.parse},
      {"registry.acquire", &mirror.acquire},
      {"serve.cache.lookup", &mirror.lookup},
      {"core.l1.predict_curves", &mirror.l1},
      {"core.l2.predict_curve_at_scales", &mirror.l2},
      {"cluster.assign_cluster (extra call)", &mirror.assign},
      {"serve.cache.insert", &mirror.insert},
      {"serve.protocol.render_predictions", &mirror.render},
      {"ingest.append", &mirror.append},
      {"ingest.fit_candidate (off-thread)", &mirror.fit},
      {"ingest.judge_candidate", &mirror.judge},
  };
  for (const auto& [name, layer] : layers) {
    out.push_back(std::string("  ") + name + ": " +
                  fmt("%.0f calls, busy %.2f ms, %.1f%% of handle_batch",
                      static_cast<double>(layer->calls),
                      layer->busy_us * 1e-3,
                      100.0 * ratio(layer->busy_us, untraced_us)));
  }
  out.push_back(fmt("  server self time: %.2f ms (%.1f%%)",
                    (untraced_us - mirror.serving_busy_us()) * 1e-3,
                    100.0 * ratio(untraced_us - mirror.serving_busy_us(),
                                  untraced_us)));
  return rep;
}

}  // namespace perfbench
