#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/two_level_model.hpp"
#include "src/ingest/scheduler.hpp"
#include "src/obs/obs.hpp"
#include "src/registry/residency.hpp"
#include "src/serve/prediction_cache.hpp"
#include "src/serve/protocol.hpp"

/// \file server.hpp (serve)
/// The long-lived prediction server behind `hpcpredict_cli serve`. It
/// fronts a registry::ModelPool over an on-disk model store
/// (attach_registry) and answers `hpcp-serve/1` request lines
/// (protocol.hpp). A predict request's optional "model" field names the
/// tenant to serve from (absent = "default"); until a store is attached
/// every predict gets a typed "unavailable" error.
///
/// Request flow: handle_batch is the one request path. A transport hands
/// it a window of lines — the epoll front-end (tcp.hpp) every ready
/// connection's lines, run() the stdio lines read so far — and it
/// micro-batches them (up to `batch_max`; a control command flushes what
/// was admitted before it). Each batch resolves every request to its
/// tenant's resident model and the prediction cache, runs the misses
/// through one batched InterpolationLevel::predict_curves call per
/// distinct model, fans the per-row level-2 evaluation out over the
/// worker pool, then renders responses serially in request order.
///
/// Failure model (DESIGN.md "Failure model & degraded modes"):
///   - Bounded lines: a line over `max_line_bytes` is discarded by the
///     transport and answered with a typed "too-large" error, never
///     buffered without limit.
///   - Admission control: at most `max_pending` admitted-but-unanswered
///     predict requests per batch; overflow is shed immediately with a
///     typed "overloaded" error carrying a retry_after_ms hint. Shedding
///     is a pure function of the request stream and options, so it is as
///     replayable as everything else.
///   - Deadlines: with `request_deadline_ms` set, a request still
///     unanswered when its deadline passes is answered with a typed
///     "deadline" error instead of stale data. The clock is injectable
///     (`clock_ms`) so deadline behaviour is testable without wall time.
///   - Degraded cache-only mode: entered when admission stays saturated
///     (`degraded_shed_streak` consecutive sheds). While degraded, cache
///     hits are served normally and misses get a typed "degraded" error;
///     the first admitted request exits the mode.
///   - Per-tenant blast radius: a tenant whose archive fails to load
///     degrades only that tenant (typed error; the pool keeps any old
///     resident epoch serving, health reports its load_failures and
///     last_error).
///
/// Determinism contract: the *non-degraded* response byte stream is
/// identical for any worker count, cache configuration, resident-model
/// budget and window shape — per-row predictions are independent of batch
/// composition, cached values are the exact doubles the batched path
/// produced, rendering is canonical (jsonlite writers), and all cache
/// inserts and residency loads happen serially in request order. An
/// interleaved multi-tenant stream is byte-identical to serving each
/// tenant from its own one-tenant store. Degraded responses (overloaded /
/// degraded / deadline / too-large) depend on the resilience options and
/// injected clock by design and are exempt.
///
/// Hot swap: publish a new version into the store, then {"cmd":"reload",
/// "tenant":T} epoch-swaps that tenant (in-flight batches finish on the
/// old pinned model, so no request sees a torn one). A tenant-less reload
/// or SIGHUP (reload_flag()) rescans the store and reloads every resident
/// tenant. health/stats carry a "registry" block with per-tenant counters
/// and an "ingest" block for the continuous-learning loop.

namespace hpcp::serve {

struct ServeOptions {
  /// Worker threads for the batched level-2 fan-out: 0 = the process-global
  /// pool; N >= 1 builds a dedicated pool of that size (workers register
  /// as `serve-worker-<i>` in traces).
  std::size_t threads = 0;
  /// Micro-batch bound: at most this many request lines (admitted or
  /// already rendered) are grouped before a flush.
  std::size_t batch_max = 32;
  /// Prediction-cache capacity in entries ((params, scale) pairs);
  /// 0 disables caching.
  std::size_t cache_entries = 4096;
  std::size_t cache_shards = 8;

  /// Hard bound on one request line; longer lines are discarded and
  /// answered with a typed "too-large" error (default 1 MiB).
  std::size_t max_line_bytes = 1 << 20;
  /// Admission bound: max admitted-but-unanswered predict requests. A
  /// request arriving above the bound is shed with "overloaded". The
  /// effective in-flight bound is min(batch_max, max_pending) because a
  /// flush drains the queue; the default never sheds in normal operation.
  std::size_t max_pending = 256;
  /// Retry-After hint attached to overloaded/degraded responses.
  std::uint64_t retry_after_ms = 50;
  /// Per-request deadline in milliseconds; 0 disables (default). Checked
  /// at flush time against the injectable clock.
  std::uint64_t request_deadline_ms = 0;
  /// Consecutive shed admissions that flip the server into degraded
  /// cache-only mode (relieved as soon as an admission succeeds).
  std::size_t degraded_shed_streak = 1024;
  /// Resident-model LRU caps forwarded to the ModelPool — count cap and
  /// byte budget (0 = unlimited bytes).
  std::size_t max_resident_models = 4;
  std::uint64_t max_resident_bytes = 0;
  /// Continuous-learning triggers, forwarded to the IngestScheduler.
  /// `retrain_records` run records since the last
  /// attempt fire a background retrain; `retrain_interval_ms` retrains any
  /// tenant with new data on a wall-clock cadence. Both default off —
  /// {"cmd":"retrain"} always works regardless.
  std::size_t retrain_records = 0;
  std::uint64_t retrain_interval_ms = 0;
  /// Monotonic millisecond clock; unset = std::chrono::steady_clock. The
  /// chaos harness injects a deterministic skipping clock here.
  std::function<std::uint64_t()> clock_ms = {};
};

/// Process-wide asynchronous reload request, safe to set from a SIGHUP
/// handler (lock-free atomic store only). The server polls and clears it
/// between windows, then rescans the store and reloads every resident
/// tenant.
[[nodiscard]] std::atomic<bool>& reload_flag() noexcept;

class Server {
 public:
  explicit Server(ServeOptions opts = {});

  /// Opens (or creates) the model store at `root` and builds the
  /// resident-model pool under the max_resident_models /
  /// max_resident_bytes options. Loading is lazy, so attaching an empty
  /// store succeeds and requests fail per-tenant until models appear.
  [[nodiscard]] Expected<void> attach_registry(const std::string& root);

  /// The resident-model pool (nullptr until attach_registry succeeds).
  [[nodiscard]] registry::ModelPool* model_pool() noexcept {
    return model_pool_.get();
  }
  /// The continuous-learning scheduler (nullptr until attach_registry
  /// succeeds). Serving-thread confined, like the pool it feeds.
  [[nodiscard]] ingest::IngestScheduler* ingest_scheduler() noexcept {
    return ingest_.get();
  }

  /// The stdio transport: reads bounded lines from `in` into windows of
  /// up to batch_max lines (a window also ends as soon as the input would
  /// block, so an interactive client never waits), serves each window
  /// through handle_batch, and writes the responses to `out` in request
  /// order. Stops at EOF, a dead output stream (the client vanished), or
  /// {"cmd":"shutdown"}; returns true iff a shutdown ended the loop.
  bool run(std::istream& in, std::ostream& out);

  /// handle_batch over a one-line window: returns that line's response
  /// ("" for a blank line). Test/bench entry point; shutdown is
  /// acknowledged but only a transport loop can stop.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// One transport line submitted to handle_batch. `too_long` marks a line
  /// the transport already discarded for exceeding max_line_bytes; its
  /// text is ignored and a typed "too-large" error is rendered.
  struct BatchLine {
    std::string text;
    bool too_long = false;
  };

  /// Result of handle_batch. responses[i] answers lines[i]; an empty
  /// string means "no response" (a blank line). `consumed` counts lines
  /// actually processed — it falls short of the input only when a
  /// shutdown command stopped the window, in which case `shutdown` is
  /// true and the later lines were never looked at.
  struct BatchOutcome {
    std::vector<std::string> responses;
    /// Lifecycle trace id per window slot (0 = the slot carried no
    /// admitted predict request). A transport that knows when a response
    /// actually left the process reports it via note_write_drained().
    std::vector<std::uint64_t> request_ids;
    std::size_t consumed = 0;
    bool shutdown = false;
  };

  /// Serves one window of request lines gathered by a concurrent
  /// transport: the epoll front-end drains every ready connection into a
  /// single call, so requests from different connections share micro-
  /// batches (chunked at batch_max) and one batched predict_curves call
  /// serves the whole flush window. Position in the window is the only
  /// thing that matters, so per-connection response order and
  /// byte-identity are preserved no matter how many connections
  /// contributed.
  [[nodiscard]] BatchOutcome handle_batch(std::span<const BatchLine> lines);

  [[nodiscard]] const ServeOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const PredictionCache& cache() const noexcept {
    return cache_;
  }
  /// Total predict requests answered (cached or computed) since start.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_;
  }

  /// Currently in degraded cache-only mode (admission saturation)?
  [[nodiscard]] bool degraded() const noexcept { return degraded_saturated_; }
  /// Requests shed by admission control since start.
  [[nodiscard]] std::uint64_t sheds() const noexcept { return sheds_; }
  /// Over-long lines rejected since start.
  [[nodiscard]] std::uint64_t too_large_rejects() const noexcept {
    return too_large_;
  }
  /// Requests answered with a "deadline" error since start.
  [[nodiscard]] std::uint64_t deadline_rejects() const noexcept {
    return deadline_expired_;
  }

  // --- Live observability plane (DESIGN.md "Observability") -------------

  /// Slow-log capacity: the slowest-N completed requests are retained.
  static constexpr std::size_t kSlowLogEntries = 16;

  /// Lifecycle timestamps of one admitted predict request, microseconds on
  /// the raw steady clock (diagnostics; deliberately NOT the injectable
  /// clock, so stamping never perturbs deadline or chaos determinism).
  /// write_drained_us stays 0 until a transport reports the bytes gone.
  struct RequestTrace {
    std::uint64_t id = 0;
    std::uint64_t admit_us = 0;
    std::uint64_t dequeue_us = 0;
    std::uint64_t batch_start_us = 0;
    std::uint64_t predict_done_us = 0;
    std::uint64_t render_us = 0;
    std::uint64_t write_drained_us = 0;
    bool cache_hit = false;
    std::string code;  ///< response code; empty until rendered => "ok"

    /// admit -> write-drained when known, admit -> render otherwise.
    [[nodiscard]] std::uint64_t total_us() const noexcept {
      const std::uint64_t end =
          write_drained_us != 0 ? write_drained_us : render_us;
      return end > admit_us ? end - admit_us : 0;
    }
  };

  /// The `hpcp-stats/1` snapshot: uptime, model_version, per-code response
  /// counters, queue depth, batch occupancy, cache hit rate, 1s/10s/60s
  /// windowed aggregates, and the slow log. Served verbatim by the admin
  /// plane's GET /statsz and embedded in the {"cmd":"stats"} response.
  [[nodiscard]] std::string render_stats_json() const;

  /// The {"cmd":"health"} response body without a client id — what the
  /// admin plane's GET /healthz serves. Reading it never touches counters.
  [[nodiscard]] std::string render_health_json() const;

  /// Transport callback: the response for request `request_id` has been
  /// fully written to the peer (or flushed to the output stream). Stamps
  /// write_drained on the matching slow-log entry when it is retained.
  void note_write_drained(std::uint64_t request_id) noexcept;

  /// Slow log, slowest first (ties broken by id). Completed requests only.
  [[nodiscard]] std::vector<RequestTrace> slow_log() const;

  /// Milliseconds since construction on the injectable clock.
  [[nodiscard]] std::uint64_t uptime_ms() const;

 private:
  /// One request line waiting in the current micro-batch.
  struct Pending {
    Request req;
    std::string response;  ///< pre-rendered (parse error, shed) when non-empty
    bool admitted = false;  ///< occupies an admission slot
    std::uint64_t arrival_ms = 0;  ///< set when deadlines are enabled
    obs::Stopwatch watch;  ///< started when the line was read
    RequestTrace trace;    ///< id != 0 once admitted; code set when rendered
  };

  /// Monotonic milliseconds from opts_.clock_ms or steady_clock.
  [[nodiscard]] std::uint64_t now_ms() const;

  /// Ingest pump and the SIGHUP flag; called once per window.
  void poll_reloads();

  /// Parses a line into the batch, or returns the control request (ping /
  /// health / reload / stats / shutdown) that must flush the batch first.
  /// Applies admission control to predict requests.
  [[nodiscard]] std::optional<Request> enqueue(
      const std::string& line, std::vector<Pending>* batch);

  /// Predicts + renders every pending request in order: after resolve()
  /// every Pending carries its final response line.
  void resolve(std::vector<Pending>* batch);

  /// Ping / health / reload / stats / trace-dump / shutdown responses.
  [[nodiscard]] std::string handle_control(const Request& req);

  /// "ok", "degraded" or "unavailable" (no store attached yet).
  [[nodiscard]] const char* status() const;

  /// Health body shared by the control path and GET /healthz; `id_json`
  /// is prepended when non-empty.
  [[nodiscard]] std::string health_json(const std::string& id_json) const;

  /// Renders responses_by_code_ as a JSON object (keys sorted — std::map).
  void append_code_counters(std::string& out) const;

  /// Appends `,"registry":{...}` with pool totals and sorted per-tenant
  /// counters to a health/stats body (once a store is attached).
  void append_registry_block(std::string& out) const;

  /// Appends `,"ingest":{...}` with the scheduler's session totals and
  /// sorted per-tenant verdict state (once a store is attached).
  void append_ingest_block(std::string& out) const;

  /// Bumps the per-code response counter ("ok" or an error code); every
  /// rendered response line passes through here exactly once.
  void note_response(const std::string& code);

  /// Retains `trace` when it ranks among the slowest kSlowLogEntries.
  void slow_log_insert(const RequestTrace& trace);

  ServeOptions opts_;
  std::unique_ptr<ThreadPool> own_pool_;  ///< when opts_.threads >= 1
  ThreadPool* pool_ = nullptr;            ///< nullptr = global pool
  PredictionCache cache_;
  /// The resident-model LRU (serving-thread confined, like the
  /// resilience state). nullptr until attach_registry succeeds.
  std::unique_ptr<registry::ModelPool> model_pool_;
  /// The continuous-learning loop (append / retrain / shadow-gated
  /// promote). Pumped once per window alongside the SIGHUP flag.
  std::unique_ptr<ingest::IngestScheduler> ingest_;

  std::uint64_t requests_served_ = 0;

  // Resilience state (all touched only from the serving thread).
  std::uint64_t shed_streak_ = 0;
  bool degraded_saturated_ = false;
  std::uint64_t sheds_ = 0;
  std::uint64_t too_large_ = 0;
  std::uint64_t deadline_expired_ = 0;
  std::uint64_t degraded_rejects_ = 0;

  // Observability state (all touched only from the serving thread; the
  // admin plane shares that thread by construction — see tcp.hpp).
  std::uint64_t start_ms_ = 0;          ///< injectable-clock birth stamp
  std::uint64_t next_request_id_ = 0;   ///< monotonically increasing
  std::map<std::string, std::uint64_t> responses_by_code_;
  std::size_t last_queue_depth_ = 0;    ///< admitted entries at last flush
  std::size_t last_batch_lines_ = 0;    ///< batch size at last flush
  std::vector<RequestTrace> slow_log_;  ///< unordered; <= kSlowLogEntries

  // 1s buckets, 64 slots: windows up to 63s, so 1s/10s/60s all answerable.
  obs::RollingCounter roll_requests_{1000, 64};
  obs::RollingCounter roll_sheds_{1000, 64};
  obs::RollingCounter roll_cache_hits_{1000, 64};
  obs::RollingCounter roll_cache_misses_{1000, 64};
  obs::RollingHistogram roll_latency_{obs::default_time_bounds(), 1000, 64};
};

}  // namespace hpcp::serve
