#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file protocol.hpp (serve)
/// The `hpcp-serve/1` wire protocol: one JSON object per line in, one JSON
/// object per line out, in request order. Designed for replayability — a
/// response line is a pure function of (request line, model version), so
/// identical request streams produce bitwise-identical response streams
/// regardless of worker count or cache state (DESIGN.md "Serving").
///
/// Requests:
///   {"id":"q1","params":[256,8,0.1],"scales":[64,256]}   predict (default)
///   {"id":"q2","model":"tenant-a","params":[256,8]}       predict, named tenant
///   {"cmd":"ping"}                                        liveness probe
///   {"cmd":"health"}                                      readiness probe
///   {"cmd":"reload"}                                      rescan, reload residents
///   {"cmd":"reload","tenant":"tenant-a"}                  one tenant's hot swap
///   {"cmd":"stats"}                                       hpcp-stats/1 snapshot
///   {"cmd":"trace-dump","path":"t.json"}                  live Chrome-trace dump
///   {"cmd":"ingest","model":"t","params":[256,8],
///    "nprocs":64,"runtime":12.5,"run_id":7}               append a measured run
///   {"cmd":"retrain","model":"t"}                         synchronous retrain
///   {"cmd":"shutdown"}                                    stop the server
///
/// `ingest` appends one measured run to the named tenant's run log
/// (`model` absent = the default tenant, `run_id` optional) and acks
/// without touching the predict path. `retrain` runs the shadow-gated
/// retrain synchronously and reports the verdict.
///
/// `id` (string or number) is echoed verbatim on the response (a number
/// as its original token). `params` are the model's training parameter
/// columns, in history-schema order.
/// `scales` are the process counts to predict at; omitted means the
/// model's trained target scales, and an explicitly *empty* list is a
/// protocol error. Responses carry `"ok"` plus either the payload and
/// `"model_version"`, or `"error":{"code","message"}`. Numbers are
/// rendered with the shortest round-trip decimal (obs::json_number_into),
/// never with locale- or path-dependent formatting.

namespace hpcp::serve {

/// Protocol schema marker, reported by ping/health/stats responses.
inline constexpr const char* kProtocolSchema = "hpcp-serve/1";

/// Resilience-layer error codes (beyond "bad-request"/"unknown-cmd" and
/// the ErrorCode names). Responses carrying one of these are *degraded*
/// responses: they are the server protecting itself, not a function of
/// the request alone, so the byte-identity contract exempts them.
inline constexpr const char* kErrTooLarge = "too-large";      ///< line > --max-line-bytes
inline constexpr const char* kErrOverloaded = "overloaded";   ///< queue full, request shed
inline constexpr const char* kErrDeadline = "deadline";       ///< request deadline expired

/// The request named a tenant the model store does not know. Unlike the
/// codes above this is NOT a degraded response — it is a pure function of
/// the request and the store, so it participates in the byte-identity
/// contract like any other request-shaped error.
inline constexpr const char* kErrUnknownModel = "unknown-model";

/// The served model's answer is not a finite number (for example, a
/// calibration factor that overflowed). Like kErrUnknownModel it is a pure
/// function of the request and the model, so it participates in the
/// byte-identity contract; the answer is never cached.
inline constexpr const char* kErrNumeric = "numeric";

/// One parsed request line.
struct Request {
  enum class Cmd {
    kPredict,
    kPing,
    kHealth,
    kReload,
    kStats,
    kTraceDump,
    kIngest,
    kRetrain,
    kShutdown
  };

  Cmd cmd = Cmd::kPredict;
  /// The client's `id`, already rendered as a JSON token ("\"q1\"" or
  /// "17"); empty when the request carried none. Echoed on responses.
  std::string id_json;
  std::vector<double> params;       ///< predict only
  std::vector<std::size_t> scales;  ///< predict only; empty = model targets
  /// reload: the `model` field, which the server rejects (reload by path
  /// is not supported). trace-dump: the output file for the Chrome-trace
  /// snapshot (required).
  std::string model_path;
  /// predict: the `model` field — which registry tenant to serve from
  /// (empty = the default tenant).
  /// reload: the `tenant` field — which tenant to reload (empty = every
  /// resident tenant).
  /// ingest / retrain: the `model` field — which tenant's run log.
  std::string tenant;
  /// ingest only: the measured run (process count, wall-clock seconds,
  /// optional site-assigned run id). `runtime` passes the protocol layer
  /// whenever it is a finite number — semantically bad measurements (zero,
  /// negative) are the quarantine layer's call, not the parser's.
  std::size_t nprocs = 0;
  double runtime = 0.0;
  std::uint64_t run_id = 0;
};

/// A protocol-level failure, rendered as the response's `error` object.
/// Codes: "bad-request" (malformed JSON or fields), "unknown-cmd", and the
/// ErrorCode names ("io", "bad-data", …) for model-side failures.
struct ErrorInfo {
  std::string code;
  std::string message;
  /// Retry-After hint in milliseconds, rendered as "retry_after_ms" inside
  /// the error object when non-zero (overloaded responses).
  std::uint64_t retry_after_ms = 0;
};

/// Parses one request line. On success fills `out` and returns true; on a
/// protocol violation fills `err` and returns false. Never throws on
/// malformed input — garbage lines are expected at this trust boundary.
[[nodiscard]] bool parse_request(const std::string& line, Request* out,
                                 ErrorInfo* err);

/// Success response for a predict request:
/// {"id":…,"ok":true,"model_version":V,"scales":[…],"predictions":[…]}
[[nodiscard]] std::string render_predictions(
    const std::string& id_json, std::uint64_t model_version,
    const std::vector<std::size_t>& scales,
    const std::vector<double>& predictions);

/// Error response: {"id":…,"ok":false,"model_version":V,"error":{…}}.
[[nodiscard]] std::string render_error(const std::string& id_json,
                                       std::uint64_t model_version,
                                       const ErrorInfo& err);

}  // namespace hpcp::serve
