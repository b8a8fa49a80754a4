#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "src/linear/matrix.hpp"
#include "src/obs/jsonlite.hpp"

namespace hpcp::serve {

namespace {

/// Requests whose line failed to parse or validate still occupy their slot
/// in the response order; this sentinel marks them as already rendered.
bool is_rendered(const std::string& response) { return !response.empty(); }

bool is_blank(const std::string& line) {
  return std::all_of(line.begin(), line.end(), [](unsigned char c) {
    return c == ' ' || c == '\t' || c == '\r';
  });
}

/// Lifecycle stamps are raw steady-clock microseconds on purpose: routing
/// them through the injectable millisecond clock would make every stamp a
/// tick of the chaos harness's skipping clock and perturb deadline
/// scenarios. The slow log is a wall-time diagnostic, exempt from the
/// byte-determinism contract.
std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Outcome of one bounded line read.
enum class LineRead {
  kLine,    ///< a complete line (or final unterminated line) was read
  kEof,     ///< end of stream, nothing read
  kTooLong  ///< the line exceeded the bound; its remainder was discarded
};

/// getline with a hard byte bound: a line longer than `max` is *discarded*
/// (consumed up to its newline so the stream stays line-aligned) instead
/// of being buffered without limit — one hostile client must not be able
/// to balloon the daemon's memory.
LineRead read_line_bounded(std::istream& in, std::string* line,
                           std::size_t max) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  constexpr int kEofCh = std::char_traits<char>::eof();
  for (;;) {
    const int c = buf->sbumpc();
    if (c == kEofCh) {
      in.setstate(std::ios::eofbit);
      return line->empty() ? LineRead::kEof : LineRead::kLine;
    }
    if (c == '\n') return LineRead::kLine;
    if (line->size() >= max) {
      int d = c;
      while (d != kEofCh && d != '\n') d = buf->sbumpc();
      if (d == kEofCh) in.setstate(std::ios::eofbit);
      return LineRead::kTooLong;
    }
    line->push_back(static_cast<char>(c));
  }
}

}  // namespace

std::atomic<bool>& reload_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cache_entries, opts_.cache_shards) {
  if (opts_.batch_max == 0) opts_.batch_max = 1;
  if (opts_.max_pending == 0) opts_.max_pending = 1;
  if (opts_.max_line_bytes == 0) opts_.max_line_bytes = 1;
  if (opts_.threads >= 1) {
    own_pool_ = std::make_unique<ThreadPool>(opts_.threads, "serve-worker");
    pool_ = own_pool_.get();
  }
  start_ms_ = now_ms();  // uptime_ms anchor, on the injectable clock
  slow_log_.reserve(kSlowLogEntries);
}

std::uint64_t Server::now_ms() const {
  if (opts_.clock_ms) return opts_.clock_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Expected<void> Server::attach_registry(const std::string& root) {
  auto reg = registry::Registry::open(root);
  if (!reg) return reg.error();
  registry::PoolOptions popts;
  popts.max_resident_models = opts_.max_resident_models;
  popts.max_resident_bytes = opts_.max_resident_bytes;
  model_pool_ =
      std::make_unique<registry::ModelPool>(std::move(*reg), popts);
  ingest::SchedulerOptions iopts;
  iopts.retrain_records = opts_.retrain_records;
  iopts.retrain_interval_ms = opts_.retrain_interval_ms;
  ingest_ = std::make_unique<ingest::IngestScheduler>(*model_pool_, iopts);
  return {};
}

void Server::poll_reloads() {
  // Once per window: the ingest pump completes finished background
  // retrains (judge / publish / epoch-swap) and fires due triggers.
  // Out-of-band like SIGHUP — no response lines, so replayed request
  // streams stay aligned with their responses.
  if (ingest_ != nullptr) {
    for (const std::string& tenant : ingest_->pump(now_ms())) {
      (void)tenant;
      obs::count("serve.ingest_promotions");
    }
  }
  if (reload_flag().exchange(false) && model_pool_) {
    // SIGHUP: pick up externally published tenants and versions, then
    // epoch-swap every resident tenant. Per-tenant failures degrade only
    // their tenant.
    (void)model_pool_->refresh();
    model_pool_->reload_all_resident();
  }
}

std::optional<Request> Server::enqueue(const std::string& line,
                                       std::vector<Pending>* batch) {
  Pending pending;  // Stopwatch starts here, when the line arrives
  ErrorInfo err;
  if (!parse_request(line, &pending.req, &err)) {
    pending.trace.code = err.code;
    pending.response = render_error(pending.req.id_json, 0, err);
    batch->push_back(std::move(pending));
    return std::nullopt;
  }
  if (pending.req.cmd != Request::Cmd::kPredict) {
    return std::move(pending.req);
  }
  // Admission control: more admitted-but-unanswered requests than
  // max_pending means the client is pipelining faster than we drain;
  // shed the overflow *now* with a typed hint instead of queueing
  // without bound. Shed responses still occupy their slot in the
  // response order.
  const std::size_t admitted = static_cast<std::size_t>(
      std::count_if(batch->begin(), batch->end(),
                    [](const Pending& p) { return p.admitted; }));
  if (admitted >= opts_.max_pending) {
    ++sheds_;
    ++shed_streak_;
    obs::count("serve.shed");
    if (opts_.degraded_shed_streak > 0 && !degraded_saturated_ &&
        shed_streak_ >= opts_.degraded_shed_streak) {
      degraded_saturated_ = true;
      obs::count("serve.degraded_entries");
      obs::gauge_set("serve.degraded", 1.0);
    }
    roll_sheds_.add(now_ms());
    pending.trace.code = kErrOverloaded;
    pending.response = render_error(
        pending.req.id_json, 0,
        {kErrOverloaded,
         "request queue full (max_pending=" +
             std::to_string(opts_.max_pending) + "), request shed",
         opts_.retry_after_ms});
  } else {
    shed_streak_ = 0;
    if (degraded_saturated_) {
      degraded_saturated_ = false;
      obs::gauge_set("serve.degraded", 0.0);
    }
    pending.admitted = true;
    pending.trace.id = ++next_request_id_;
    pending.trace.admit_us = steady_us();
    if (opts_.request_deadline_ms > 0) pending.arrival_ms = now_ms();
  }
  batch->push_back(std::move(pending));
  return std::nullopt;
}

void Server::resolve(std::vector<Pending>* batch) {
  if (batch->empty()) return;
  const obs::Span span("serve.batch");
  obs::count("serve.batches");
  obs::gauge_set("serve.batch_size", static_cast<double>(batch->size()));
  last_batch_lines_ = batch->size();
  last_queue_depth_ = static_cast<std::size_t>(
      std::count_if(batch->begin(), batch->end(),
                    [](const Pending& p) { return p.admitted; }));

  const bool cache_only = degraded();
  const std::uint64_t flush_now =
      opts_.request_deadline_ms > 0 ? now_ms() : 0;
  // One injectable-clock read per flush feeds every rolling-window update
  // in this batch: O(1) extra clock traffic, not O(requests).
  const std::uint64_t roll_now = flush_now != 0 ? flush_now : now_ms();
  const std::uint64_t dequeue_us = steady_us();

  // Resolve every request to either a rendered error, a full cache hit,
  // or a row of the batched compute. All serially, in request order, so
  // cache hit/miss accounting, LRU movement, and residency
  // loads/evictions are deterministic.
  struct Slot {
    std::vector<std::size_t> scales;
    std::vector<double> predictions;
    bool compute = false;
    const TwoLevelModel* model = nullptr;
    std::uint64_t version = 0;   ///< per-row model version (cache key)
    std::string tenant;          ///< cache key
    /// The residency pin: holds the resident model alive for the whole
    /// flush even if the pool evicts it mid-window.
    std::shared_ptr<const registry::ResidentModel> pin;
  };
  std::vector<Slot> slots(batch->size());
  std::vector<std::size_t> compute_rows;
  for (std::size_t i = 0; i < batch->size(); ++i) {
    Pending& p = (*batch)[i];
    if (p.trace.id != 0) p.trace.dequeue_us = dequeue_us;
    if (is_rendered(p.response)) continue;
    if (opts_.request_deadline_ms > 0 &&
        flush_now >= p.arrival_ms + opts_.request_deadline_ms) {
      // The answer would arrive after the client stopped caring; say so
      // explicitly instead of spending compute on it.
      ++deadline_expired_;
      obs::count("serve.deadline_expired");
      p.trace.code = kErrDeadline;
      p.response = render_error(
          p.req.id_json, 0,
          {kErrDeadline,
           "request deadline (" +
               std::to_string(opts_.request_deadline_ms) +
               "ms) expired before the response was produced"});
      continue;
    }
    if (!model_pool_) {
      p.trace.code = "unavailable";
      p.response = render_error(p.req.id_json, 0,
                                {"unavailable", "no model store attached"});
      continue;
    }
    // Resolve the request's tenant ("model" field, absent = default) to a
    // resident model, loading on a residency miss. A failed load is a
    // typed error for this request only — every other tenant in the
    // window is structurally unaffected.
    Slot& slot = slots[i];
    slot.tenant =
        p.req.tenant.empty() ? registry::kDefaultTenant : p.req.tenant;
    if (!model_pool_->known(slot.tenant)) {
      p.trace.code = kErrUnknownModel;
      p.response = render_error(
          p.req.id_json, 0,
          {kErrUnknownModel, "unknown model \"" + slot.tenant +
                                 "\": no such tenant in the registry"});
      continue;
    }
    auto acquired = model_pool_->acquire(slot.tenant);
    if (!acquired) {
      const std::string code = error_code_name(acquired.error().code);
      p.trace.code = code;
      p.response = render_error(p.req.id_json, 0,
                                {code, acquired.error().to_string()});
      continue;
    }
    slot.pin = std::move(*acquired);
    slot.model = &slot.pin->model;
    slot.version = slot.pin->version;
    const std::size_t num_features = slot.pin->num_features;
    if (p.req.params.size() != num_features) {
      p.trace.code = "bad-request";
      p.response = render_error(
          p.req.id_json, slot.version,
          {"bad-request",
           "params width mismatch: got " +
               std::to_string(p.req.params.size()) + ", model expects " +
               std::to_string(num_features)});
      continue;
    }
    slot.scales =
        p.req.scales.empty() ? slot.pin->default_scales : p.req.scales;
    slot.predictions.resize(slot.scales.size());
    bool all_hit = cache_.enabled();
    for (std::size_t s = 0; all_hit && s < slot.scales.size(); ++s) {
      const auto hit = cache_.lookup(slot.tenant, slot.version,
                                     p.req.params, slot.scales[s]);
      if (hit.has_value()) {
        slot.predictions[s] = *hit;
      } else {
        all_hit = false;
      }
    }
    if (all_hit) {
      obs::count("serve.cache_hit");
      roll_cache_hits_.add(roll_now);
      p.trace.cache_hit = true;
    } else if (cache_only) {
      // Degraded cache-only mode: hits above were served from the live
      // cache; a miss would need the compute path we are protecting, so
      // it gets a typed rejection with a retry hint.
      ++degraded_rejects_;
      obs::count("serve.degraded_rejects");
      p.trace.code = kErrDegraded;
      p.response = render_error(
          p.req.id_json, slot.version,
          {kErrDegraded,
           "server is in degraded cache-only mode; prediction not cached",
           opts_.retry_after_ms});
    } else {
      obs::count("serve.cache_miss");
      roll_cache_misses_.add(roll_now);
      slot.compute = true;
      compute_rows.push_back(i);
    }
  }

  const std::uint64_t batch_start_us = steady_us();
  if (!compute_rows.empty()) {
    const obs::Span compute_span("serve.batch_compute");
    // Group miss rows by resolved model, first-appearance order: one
    // batched level-1 call per distinct model in the window.
    std::vector<const TwoLevelModel*> group_models;
    std::vector<std::vector<std::size_t>> groups;
    for (const std::size_t row : compute_rows) {
      const TwoLevelModel* m = slots[row].model;
      std::size_t g = 0;
      while (g < group_models.size() && group_models[g] != m) ++g;
      if (g == group_models.size()) {
        group_models.push_back(m);
        groups.emplace_back();
      }
      groups[g].push_back(row);
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::vector<std::size_t>& rows = groups[g];
      const TwoLevelModel& model = *group_models[g];
      Matrix configs(rows.size(), model.interpolation().num_features());
      for (std::size_t r = 0; r < rows.size(); ++r) {
        configs.set_row(r, (*batch)[rows[r]].req.params);
      }
      // Level 1 batched over the group's miss rows at once; level 2 fans
      // the per-row evaluation out over the pool. parallel_map writes
      // results into index-ordered slots, so worker count never reorders
      // anything.
      const Matrix curves = model.interpolation().predict_curves(configs);
      auto results = parallel_map(
          rows.size(),
          [&](std::size_t r) {
            const Slot& slot = slots[rows[r]];
            return model.predict_curve_at_scales(curves.row(r),
                                                 slot.scales);
          },
          pool_);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        slots[rows[r]].predictions = std::move(results[r]);
      }
    }
    // Cache inserts happen serially in request order (across groups, not
    // group order) — eviction order is part of the determinism contract.
    // A non-finite answer gets a typed error instead of a JSON null under
    // "ok":true, and stays out of the cache.
    for (const std::size_t row : compute_rows) {
      const Slot& slot = slots[row];
      Pending& p = (*batch)[row];
      if (!std::all_of(slot.predictions.begin(), slot.predictions.end(),
                       [](double v) { return std::isfinite(v); })) {
        obs::count("serve.numeric_errors");
        p.trace.code = kErrNumeric;
        p.response = render_error(
            p.req.id_json, slot.version,
            {kErrNumeric, "prediction is not a finite number", 0});
        continue;
      }
      for (std::size_t s = 0; s < slot.scales.size(); ++s) {
        cache_.insert(slot.tenant, slot.version, p.req.params,
                      slot.scales[s], slot.predictions[s]);
      }
    }
  }

  const std::uint64_t predict_done_us = steady_us();
  for (std::size_t i = 0; i < batch->size(); ++i) {
    Pending& p = (*batch)[i];
    const obs::Span request_span("serve.request");
    if (!is_rendered(p.response)) {
      p.response = render_predictions(p.req.id_json, slots[i].version,
                                      slots[i].scales,
                                      slots[i].predictions);
      ++requests_served_;
    }
    note_response(p.trace.code.empty() ? "ok" : p.trace.code);
    roll_requests_.add(roll_now);
    roll_latency_.observe(roll_now, p.watch.seconds());
    if (p.trace.id != 0) {
      p.trace.batch_start_us = batch_start_us;
      p.trace.predict_done_us = predict_done_us;
      p.trace.render_us = steady_us();
      slow_log_insert(p.trace);
    }
    obs::count("serve.requests");
    obs::observe("serve.latency_seconds", p.watch.seconds(),
                 obs::default_time_bounds());
  }
}

Server::BatchOutcome Server::handle_batch(std::span<const BatchLine> lines) {
  poll_reloads();
  BatchOutcome result;
  result.responses.resize(lines.size());
  result.request_ids.resize(lines.size(), 0);
  std::vector<Pending> batch;
  std::vector<std::size_t> origin;  // window slot per batch entry
  const auto flush_into = [&] {
    if (batch.empty()) return;
    resolve(&batch);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      result.responses[origin[j]] = std::move(batch[j].response);
      result.request_ids[origin[j]] = batch[j].trace.id;
    }
    batch.clear();
    origin.clear();
  };
  std::size_t i = 0;
  for (; i < lines.size(); ++i) {
    const BatchLine& line = lines[i];
    if (line.too_long) {
      ++too_large_;
      obs::count("serve.too_large");
      Pending pending;
      pending.trace.code = kErrTooLarge;
      pending.response = render_error(
          "", 0,
          {kErrTooLarge,
           "request line exceeds max_line_bytes=" +
               std::to_string(opts_.max_line_bytes) + "; line discarded"});
      origin.push_back(i);
      batch.push_back(std::move(pending));
    } else if (is_blank(line.text)) {
      // no response; the slot stays empty
    } else {
      auto control = enqueue(line.text, &batch);
      if (control.has_value()) {
        // A control command observes everything admitted before it:
        // flush first, then answer.
        flush_into();
        result.responses[i] = handle_control(*control);
        if (control->cmd == Request::Cmd::kShutdown) {
          result.shutdown = true;
          ++i;
          break;
        }
        continue;
      }
      origin.push_back(i);
    }
    if (batch.size() >= opts_.batch_max) flush_into();
  }
  flush_into();
  result.consumed = i;
  result.responses.resize(result.consumed);
  result.request_ids.resize(result.consumed);
  return result;
}

std::string Server::handle_control(const Request& req) {
  const auto prefix = [&req](const char* cmd) {
    std::string out = "{";
    if (!req.id_json.empty()) {
      out += "\"id\":";
      out += req.id_json;
      out += ',';
    }
    out += "\"ok\":true,\"cmd\":\"";
    out += cmd;
    out += "\"";
    return out;
  };
  const auto fail = [this, &req](const std::string& code,
                                 const std::string& message) {
    note_response(code);
    return render_error(req.id_json, 0, {code, message});
  };
  const bool needs_store = req.cmd == Request::Cmd::kReload ||
                           req.cmd == Request::Cmd::kIngest ||
                           req.cmd == Request::Cmd::kRetrain;
  if (needs_store && model_pool_ == nullptr) {
    return fail("unavailable", "no model store attached");
  }
  switch (req.cmd) {
    case Request::Cmd::kPing: {
      note_response("ok");
      std::string out = prefix("ping");
      out += ",\"schema\":\"";
      out += kProtocolSchema;
      out += "\",\"model_version\":0}";
      return out;
    }
    case Request::Cmd::kHealth: {
      note_response("ok");
      return health_json(req.id_json);
    }
    case Request::Cmd::kReload: {
      const obs::Span span("serve.cmd_reload");
      if (!req.model_path.empty()) {
        return fail("bad-request",
                    "reload by path is not supported; publish the archive "
                    "with `hpcpredict_cli registry add`, then send "
                    "{\"cmd\":\"reload\",\"tenant\":...}");
      }
      if (!req.tenant.empty()) {
        // One tenant's epoch swap; failure degrades only that tenant
        // (the old resident epoch, if any, keeps serving).
        auto result = model_pool_->reload(req.tenant);
        if (!result) {
          return fail(model_pool_->known(req.tenant)
                          ? std::string(error_code_name(result.error().code))
                          : std::string(kErrUnknownModel),
                      result.error().to_string());
        }
        note_response("ok");
        std::string out = prefix("reload");
        out += ",\"tenant\":";
        out += obs::json_quote(req.tenant);
        out += ",\"model_version\":";
        out += std::to_string(*result);
        out += '}';
        return out;
      }
      // Tenant-less reload: pick up externally published archives, then
      // epoch-swap every resident tenant.
      (void)model_pool_->refresh();
      model_pool_->reload_all_resident();
      note_response("ok");
      std::string out = prefix("reload");
      out += ",\"registry\":true,\"resident\":";
      out += std::to_string(model_pool_->resident_count());
      out += '}';
      return out;
    }
    case Request::Cmd::kStats: {
      // The same hpcp-stats/1 snapshot the admin plane's GET /statsz
      // serves, wrapped in a protocol envelope so in-protocol probes need
      // no second port.
      note_response("ok");
      std::string out = prefix("stats");
      out += ",\"schema\":\"";
      out += kProtocolSchema;
      out += "\",\"stats\":";
      out += render_stats_json();
      out += '}';
      return out;
    }
    case Request::Cmd::kTraceDump: {
      if (req.model_path.empty()) {
        return fail("bad-request",
                    "trace-dump requires a \"path\" to write to");
      }
      const auto events = obs::Tracer::instance().snapshot();
      if (!obs::Tracer::instance().write_chrome_json(req.model_path)) {
        return fail("io", "cannot write trace to " + req.model_path);
      }
      note_response("ok");
      std::string out = prefix("trace-dump");
      out += ",\"schema\":\"";
      out += kProtocolSchema;
      out += "\",\"path\":";
      out += obs::json_quote(req.model_path);
      out += ",\"events\":";
      out += std::to_string(events.size());
      out += ",\"dropped\":";
      out += std::to_string(obs::Tracer::instance().dropped());
      out += ",\"enabled\":";
      out += obs::trace_enabled() ? "true" : "false";
      out += '}';
      return out;
    }
    case Request::Cmd::kIngest: {
      const obs::Span span("serve.cmd_ingest");
      const std::string tenant =
          req.tenant.empty() ? registry::kDefaultTenant : req.tenant;
      ExecutionRecord record;
      record.params = req.params;
      record.nprocs = req.nprocs;
      record.runtime = req.runtime;
      record.run_id = req.run_id;
      auto appended = ingest_->append(tenant, record);
      if (!appended) {
        return fail(error_code_name(appended.error().code),
                    appended.error().to_string());
      }
      note_response("ok");
      std::string out = prefix("ingest");
      out += ",\"tenant\":";
      out += obs::json_quote(tenant);
      out += ",\"records\":";
      out += std::to_string(*appended);
      out += '}';
      return out;
    }
    case Request::Cmd::kRetrain: {
      const obs::Span span("serve.cmd_retrain");
      const std::string tenant =
          req.tenant.empty() ? registry::kDefaultTenant : req.tenant;
      auto outcome = ingest_->retrain_now(tenant);
      if (!outcome) {
        return fail(error_code_name(outcome.error().code),
                    outcome.error().to_string());
      }
      note_response("ok");
      std::string out = prefix("retrain");
      out += ",\"tenant\":";
      out += obs::json_quote(tenant);
      out += ",\"verdict\":";
      out += obs::json_quote(outcome->marker.verdict);
      out += ",\"promoted\":";
      out += outcome->promoted ? "true" : "false";
      out += ",\"model_version\":";
      out += std::to_string(outcome->marker.version);
      out += ",\"records\":";
      out += std::to_string(outcome->marker.records);
      out += ",\"holdout_scale\":";
      out += std::to_string(outcome->marker.holdout_scale);
      out += ",\"candidate_mape\":";
      obs::json_number_into(out, outcome->marker.candidate_mape);
      out += ",\"incumbent_mape\":";
      obs::json_number_into(out, outcome->marker.incumbent_mape);
      out += ",\"quarantined\":";
      out += std::to_string(outcome->quarantined);
      out += ",\"warm_scales\":";
      out += std::to_string(outcome->warm_scales);
      out += '}';
      return out;
    }
    case Request::Cmd::kShutdown: {
      note_response("ok");
      std::string out = prefix("shutdown");
      out += '}';
      return out;
    }
    case Request::Cmd::kPredict:
      break;  // never routed here
  }
  return fail("bad-request", "unroutable command");
}

const char* Server::status() const {
  // "ok" serves everything, "degraded" serves cache hits only,
  // "unavailable" has no model store at all. An attached but empty store
  // is "ok": requests then fail per-tenant, not globally.
  if (model_pool_ == nullptr) return "unavailable";
  return degraded() ? "degraded" : "ok";
}

std::string Server::health_json(const std::string& id_json) const {
  // The readiness probe a load balancer or watchdog polls: liveness plus
  // *mode*. Every field is a pure function of the request stream and the
  // injectable clock, so probe responses are byte-stable under replay.
  std::string out = "{";
  if (!id_json.empty()) {
    out += "\"id\":";
    out += id_json;
    out += ',';
  }
  out += "\"ok\":true,\"cmd\":\"health\",\"schema\":\"";
  out += kProtocolSchema;
  out += "\",\"model_version\":0,\"status\":\"";
  out += status();
  out += "\",\"uptime_ms\":";
  out += std::to_string(uptime_ms());
  out += ",\"max_pending\":";
  out += std::to_string(opts_.max_pending);
  out += ",\"shed\":";
  out += std::to_string(sheds_);
  out += ",\"too_large\":";
  out += std::to_string(too_large_);
  out += ",\"deadline_expired\":";
  out += std::to_string(deadline_expired_);
  out += ",\"responses\":";
  append_code_counters(out);
  append_registry_block(out);
  append_ingest_block(out);
  if (model_pool_ == nullptr || degraded()) {
    out += ",\"retry_after_ms\":";
    out += std::to_string(opts_.retry_after_ms);
  }
  out += '}';
  return out;
}

bool Server::run(std::istream& in, std::ostream& out) {
  const obs::Span span("serve.session");
  std::vector<BatchLine> window;
  for (bool eof = false; !eof;) {
    // A window ends at batch_max lines, or as soon as the input would
    // block — an interactive client gets its answer now, a replayed
    // burst batches.
    window.clear();
    while (window.size() < opts_.batch_max) {
      BatchLine line;
      const LineRead status =
          read_line_bounded(in, &line.text, opts_.max_line_bytes);
      if (status == LineRead::kEof) {
        eof = true;
        break;
      }
      line.too_long = status == LineRead::kTooLong;
      window.push_back(std::move(line));
      if (in.rdbuf()->in_avail() <= 0) break;
    }
    if (window.empty()) break;
    const BatchOutcome outcome = handle_batch(window);
    for (const std::string& response : outcome.responses) {
      if (!response.empty()) out << response << '\n';
    }
    out.flush();
    // The ostream is this transport: a successful flush is the closest
    // analogue of "bytes left the process".
    for (const std::uint64_t id : outcome.request_ids) {
      note_write_drained(id);
    }
    if (outcome.shutdown) return true;
    // A dead output stream means the client is gone (EPIPE, timeout):
    // stop spending compute on responses nobody will read.
    if (!out) return false;
  }
  return false;
}

std::string Server::handle_line(const std::string& line) {
  BatchLine one;
  one.too_long = line.size() > opts_.max_line_bytes;
  if (!one.too_long) one.text = line;
  return std::move(handle_batch({&one, 1}).responses.front());
}

std::uint64_t Server::uptime_ms() const {
  const std::uint64_t now = now_ms();
  return now > start_ms_ ? now - start_ms_ : 0;
}

void Server::note_response(const std::string& code) {
  ++responses_by_code_[code];
}

void Server::append_code_counters(std::string& out) const {
  out += '{';
  bool first = true;
  for (const auto& [code, n] : responses_by_code_) {
    if (!first) out += ',';
    first = false;
    out += obs::json_quote(code);
    out += ':';
    out += std::to_string(n);
  }
  out += '}';
}

std::string Server::render_health_json() const { return health_json(""); }

void Server::append_registry_block(std::string& out) const {
  // Pool totals plus per-tenant counters, sorted by tenant name (the
  // pool's stats() is already sorted) — byte-stable under replay because
  // every counter is driven serially from the serving thread.
  if (model_pool_ == nullptr) return;
  out += ",\"registry\":{\"resident\":";
  out += std::to_string(model_pool_->resident_count());
  out += ",\"resident_bytes\":";
  out += std::to_string(model_pool_->resident_bytes());
  out += ",\"max_resident_models\":";
  out += std::to_string(model_pool_->options().max_resident_models);
  out += ",\"max_resident_bytes\":";
  out += std::to_string(model_pool_->options().max_resident_bytes);
  out += ",\"evictions\":";
  out += std::to_string(model_pool_->total_evictions());
  out += ",\"tenants\":{";
  bool first = true;
  for (const registry::TenantStats& t : model_pool_->stats()) {
    if (!first) out += ',';
    first = false;
    out += obs::json_quote(t.tenant);
    out += ":{\"version\":";
    out += std::to_string(t.version);
    out += ",\"resident\":";
    out += t.resident ? "true" : "false";
    out += ",\"hits\":";
    out += std::to_string(t.hits);
    out += ",\"loads\":";
    out += std::to_string(t.loads);
    out += ",\"evictions\":";
    out += std::to_string(t.evictions);
    out += ",\"load_failures\":";
    out += std::to_string(t.load_failures);
    if (!t.last_error.empty()) {
      out += ",\"last_error\":";
      out += obs::json_quote(t.last_error);
    }
    out += '}';
  }
  out += "}}";
}

void Server::append_ingest_block(std::string& out) const {
  // Session totals plus per-tenant verdict state, sorted by tenant (the
  // scheduler's stats() is already sorted). Counters are per-process on
  // purpose: the log is the durable account, and session-local counters
  // keep replayed response streams byte-identical even when two runs
  // share a store.
  if (ingest_ == nullptr) return;
  const ingest::IngestScheduler::Totals totals = ingest_->totals();
  out += ",\"ingest\":{\"appended\":";
  out += std::to_string(totals.appended);
  out += ",\"retrains\":";
  out += std::to_string(totals.retrains);
  out += ",\"promotions\":";
  out += std::to_string(totals.promotions);
  out += ",\"rejections\":";
  out += std::to_string(totals.rejections);
  out += ",\"in_flight\":";
  out += std::to_string(totals.in_flight);
  out += ",\"retrain_records\":";
  out += std::to_string(opts_.retrain_records);
  out += ",\"retrain_interval_ms\":";
  out += std::to_string(opts_.retrain_interval_ms);
  out += ",\"tenants\":{";
  bool first = true;
  for (const auto& [tenant, stats] : ingest_->stats()) {
    if (!first) out += ',';
    first = false;
    out += obs::json_quote(tenant);
    out += ":{\"appended\":";
    out += std::to_string(stats.appended);
    out += ",\"retrains\":";
    out += std::to_string(stats.retrains);
    out += ",\"promotions\":";
    out += std::to_string(stats.promotions);
    out += ",\"rejections\":";
    out += std::to_string(stats.rejections);
    out += ",\"quarantined\":";
    out += std::to_string(stats.quarantined);
    out += ",\"in_flight\":";
    out += stats.in_flight ? "true" : "false";
    if (!stats.last_verdict.empty()) {
      out += ",\"last_verdict\":";
      out += obs::json_quote(stats.last_verdict);
      out += ",\"last_version\":";
      out += std::to_string(stats.last_version);
      out += ",\"holdout_scale\":";
      out += std::to_string(stats.last_holdout_scale);
      out += ",\"candidate_mape\":";
      obs::json_number_into(out, stats.last_candidate_mape);
      out += ",\"incumbent_mape\":";
      obs::json_number_into(out, stats.last_incumbent_mape);
      out += ",\"warm_scales\":";
      out += std::to_string(stats.warm_scales);
    }
    out += '}';
  }
  out += "}}";
}

void Server::slow_log_insert(const RequestTrace& trace) {
  if (slow_log_.size() < kSlowLogEntries) {
    slow_log_.push_back(trace);
    return;
  }
  std::size_t min_at = 0;
  for (std::size_t i = 1; i < slow_log_.size(); ++i) {
    if (slow_log_[i].total_us() < slow_log_[min_at].total_us()) min_at = i;
  }
  if (trace.total_us() > slow_log_[min_at].total_us()) {
    slow_log_[min_at] = trace;
  }
}

void Server::note_write_drained(std::uint64_t request_id) noexcept {
  if (request_id == 0) return;
  for (RequestTrace& t : slow_log_) {
    if (t.id == request_id) {
      if (t.write_drained_us == 0) t.write_drained_us = steady_us();
      return;
    }
  }
}

std::vector<Server::RequestTrace> Server::slow_log() const {
  std::vector<RequestTrace> out = slow_log_;
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              if (a.total_us() != b.total_us()) {
                return a.total_us() > b.total_us();
              }
              return a.id < b.id;
            });
  return out;
}

std::string Server::render_stats_json() const {
  const std::uint64_t now = now_ms();
  std::string out = "{\"schema\":\"hpcp-stats/1\",\"uptime_ms\":";
  out += std::to_string(now > start_ms_ ? now - start_ms_ : 0);
  out += ",\"model_version\":0,\"status\":\"";
  out += status();
  out += "\",\"requests\":";
  out += std::to_string(requests_served_);
  out += ",\"queue_depth\":";
  out += std::to_string(last_queue_depth_);
  out += ",\"batch_lines\":";
  out += std::to_string(last_batch_lines_);
  out += ",\"batch_max\":";
  out += std::to_string(opts_.batch_max);
  out += ",\"batch_occupancy\":";
  obs::json_number_into(
      out, opts_.batch_max > 0
               ? static_cast<double>(last_batch_lines_) /
                     static_cast<double>(opts_.batch_max)
               : 0.0);
  out += ",\"cache_hits\":";
  out += std::to_string(cache_.hits());
  out += ",\"cache_misses\":";
  out += std::to_string(cache_.misses());
  out += ",\"cache_entries\":";
  out += std::to_string(cache_.size());
  out += ",\"cache_capacity\":";
  out += std::to_string(cache_.max_entries());
  out += ",\"cache_hit_rate\":";
  const std::uint64_t lookups = cache_.hits() + cache_.misses();
  obs::json_number_into(
      out, lookups > 0 ? static_cast<double>(cache_.hits()) /
                             static_cast<double>(lookups)
                       : 0.0);
  out += ",\"shed\":";
  out += std::to_string(sheds_);
  out += ",\"too_large\":";
  out += std::to_string(too_large_);
  out += ",\"deadline_expired\":";
  out += std::to_string(deadline_expired_);
  out += ",\"degraded_rejects\":";
  out += std::to_string(degraded_rejects_);
  out += ",\"responses\":";
  append_code_counters(out);
  append_registry_block(out);
  append_ingest_block(out);

  // 1s / 10s / 60s trailing windows over the rolling rings. Latency
  // quantiles are reported as the upper edge of the containing histogram
  // bucket, in microseconds.
  out += ",\"windows\":[";
  static constexpr std::uint64_t kWindowsS[] = {1, 10, 60};
  for (std::size_t w = 0; w < 3; ++w) {
    if (w > 0) out += ',';
    const std::uint64_t window_ms = kWindowsS[w] * 1000;
    const std::uint64_t requests = roll_requests_.sum(now, window_ms);
    const std::uint64_t shed = roll_sheds_.sum(now, window_ms);
    const std::uint64_t hits = roll_cache_hits_.sum(now, window_ms);
    const std::uint64_t misses = roll_cache_misses_.sum(now, window_ms);
    const auto latency = roll_latency_.window(now, window_ms);
    const auto bounds = roll_latency_.bounds();
    out += "{\"window_s\":";
    out += std::to_string(kWindowsS[w]);
    out += ",\"requests\":";
    out += std::to_string(requests);
    out += ",\"shed\":";
    out += std::to_string(shed);
    out += ",\"shed_rate\":";
    obs::json_number_into(
        out, requests > 0 ? static_cast<double>(shed) /
                                static_cast<double>(requests)
                          : 0.0);
    out += ",\"cache_hit_rate\":";
    obs::json_number_into(
        out, hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0);
    out += ",\"latency_p50_us\":";
    obs::json_number_into(out, latency.quantile(0.50, bounds) * 1e6);
    out += ",\"latency_p95_us\":";
    obs::json_number_into(out, latency.quantile(0.95, bounds) * 1e6);
    out += ",\"latency_p99_us\":";
    obs::json_number_into(out, latency.quantile(0.99, bounds) * 1e6);
    out += '}';
  }
  out += ']';

  out += ",\"slow_log\":[";
  const auto slowest = slow_log();
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    const RequestTrace& t = slowest[i];
    if (i > 0) out += ',';
    out += "{\"id\":";
    out += std::to_string(t.id);
    out += ",\"code\":";
    out += obs::json_quote(t.code.empty() ? "ok" : t.code);
    out += ",\"cache_hit\":";
    out += t.cache_hit ? "true" : "false";
    out += ",\"total_us\":";
    out += std::to_string(t.total_us());
    out += ",\"admit_us\":";
    out += std::to_string(t.admit_us);
    out += ",\"dequeue_us\":";
    out += std::to_string(t.dequeue_us);
    out += ",\"batch_start_us\":";
    out += std::to_string(t.batch_start_us);
    out += ",\"predict_done_us\":";
    out += std::to_string(t.predict_done_us);
    out += ",\"render_us\":";
    out += std::to_string(t.render_us);
    out += ",\"write_drained_us\":";
    out += std::to_string(t.write_drained_us);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace hpcp::serve
