#include "src/serve/protocol.hpp"

#include <cmath>
#include <stdexcept>

#include "src/obs/jsonlite.hpp"

namespace hpcp::serve {

namespace {

using obs::JsonValue;

bool fail(ErrorInfo* err, std::string code, std::string message) {
  err->code = std::move(code);
  err->message = std::move(message);
  return false;
}

/// `id` may be a string or a number; anything else is a protocol error.
/// A numeric id is echoed as its original token: reformatting through a
/// double would turn 100000 into 1e+05 and lose digits above 2^53.
bool render_id(const JsonValue& v, std::string* out, ErrorInfo* err) {
  if (v.kind() == JsonValue::Kind::String) {
    *out = obs::json_quote(v.as_string());
    return true;
  }
  if (v.kind() == JsonValue::Kind::Number) {
    *out = v.number_token();
    return true;
  }
  return fail(err, "bad-request", "id must be a string or a number");
}

bool parse_params(const JsonValue& doc, Request* out, ErrorInfo* err) {
  if (!doc.contains("params")) {
    return fail(err, "bad-request", "request missing params");
  }
  const JsonValue& params = doc.at("params");
  if (params.kind() != JsonValue::Kind::Array) {
    return fail(err, "bad-request", "params must be an array of numbers");
  }
  if (params.as_array().empty()) {
    return fail(err, "bad-request", "params must not be empty");
  }
  out->params.reserve(params.as_array().size());
  for (const JsonValue& v : params.as_array()) {
    if (v.kind() != JsonValue::Kind::Number ||
        !std::isfinite(v.as_number())) {
      return fail(err, "bad-request", "params must be finite numbers");
    }
    out->params.push_back(v.as_number());
  }
  return true;
}

bool parse_scales(const JsonValue& doc, Request* out, ErrorInfo* err) {
  if (!doc.contains("scales")) return true;  // default: model targets
  const JsonValue& scales = doc.at("scales");
  if (scales.kind() != JsonValue::Kind::Array) {
    return fail(err, "bad-request", "scales must be an array of integers");
  }
  if (scales.as_array().empty()) {
    return fail(err, "bad-request", "empty scale list");
  }
  out->scales.reserve(scales.as_array().size());
  for (const JsonValue& v : scales.as_array()) {
    if (v.kind() != JsonValue::Kind::Number) {
      return fail(err, "bad-request", "scales must be integers");
    }
    const double s = v.as_number();
    if (!(s >= 1.0) || s != std::floor(s) || s > 1e12) {
      return fail(err, "bad-request",
                  "scales must be positive integers (got a non-integral, "
                  "non-positive, or oversized value)");
    }
    out->scales.push_back(static_cast<std::size_t>(s));
  }
  return true;
}

/// Shared by ingest's nprocs and run_id: a non-negative integral JSON
/// number that fits the target width.
bool parse_uint_field(const JsonValue& doc, const char* key, bool required,
                      std::uint64_t min, std::uint64_t* out,
                      ErrorInfo* err) {
  if (!doc.contains(key)) {
    if (!required) return true;
    return fail(err, "bad-request",
                std::string("ingest request missing ") + key);
  }
  const JsonValue& v = doc.at(key);
  if (v.kind() != JsonValue::Kind::Number) {
    return fail(err, "bad-request",
                std::string(key) + " must be an integer");
  }
  const double d = v.as_number();
  if (!(d >= static_cast<double>(min)) || d != std::floor(d) || d > 1e15) {
    return fail(err, "bad-request",
                std::string(key) +
                    " must be an integer >= " + std::to_string(min));
  }
  *out = static_cast<std::uint64_t>(d);
  return true;
}

/// The optional "model" field naming a tenant (predict / ingest / retrain).
bool parse_model_field(const JsonValue& doc, Request* out, ErrorInfo* err) {
  if (!doc.contains("model")) return true;
  if (doc.at("model").kind() != JsonValue::Kind::String) {
    return fail(err, "bad-request", "model must be a string tenant name");
  }
  out->tenant = doc.at("model").as_string();
  if (out->tenant.empty()) {
    return fail(err, "bad-request", "model must not be empty");
  }
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request* out, ErrorInfo* err) {
  *out = Request{};
  JsonValue doc;
  try {
    doc = obs::parse_json(line);
  } catch (const std::runtime_error& e) {
    return fail(err, "bad-request", std::string("malformed JSON: ") +
                                        e.what());
  }
  if (doc.kind() != JsonValue::Kind::Object) {
    return fail(err, "bad-request", "request must be a JSON object");
  }
  // Echo the id even on later failures: parse it before anything else.
  if (doc.contains("id") && !render_id(doc.at("id"), &out->id_json, err)) {
    return false;
  }

  std::string cmd = "predict";
  if (doc.contains("cmd")) {
    if (doc.at("cmd").kind() != JsonValue::Kind::String) {
      return fail(err, "bad-request", "cmd must be a string");
    }
    cmd = doc.at("cmd").as_string();
  }
  if (cmd == "predict") {
    out->cmd = Request::Cmd::kPredict;
    return parse_model_field(doc, out, err) && parse_params(doc, out, err) &&
           parse_scales(doc, out, err);
  }
  if (cmd == "ping") {
    out->cmd = Request::Cmd::kPing;
    return true;
  }
  if (cmd == "health") {
    out->cmd = Request::Cmd::kHealth;
    return true;
  }
  if (cmd == "reload") {
    out->cmd = Request::Cmd::kReload;
    if (doc.contains("model")) {
      if (doc.at("model").kind() != JsonValue::Kind::String) {
        return fail(err, "bad-request", "model must be a string path");
      }
      out->model_path = doc.at("model").as_string();
    }
    if (doc.contains("tenant")) {
      if (doc.at("tenant").kind() != JsonValue::Kind::String) {
        return fail(err, "bad-request", "tenant must be a string");
      }
      out->tenant = doc.at("tenant").as_string();
      if (out->tenant.empty()) {
        return fail(err, "bad-request", "tenant must not be empty");
      }
    }
    return true;
  }
  if (cmd == "stats") {
    out->cmd = Request::Cmd::kStats;
    return true;
  }
  if (cmd == "trace-dump") {
    out->cmd = Request::Cmd::kTraceDump;
    if (doc.contains("path")) {
      if (doc.at("path").kind() != JsonValue::Kind::String) {
        return fail(err, "bad-request", "path must be a string");
      }
      out->model_path = doc.at("path").as_string();
    }
    return true;
  }
  if (cmd == "ingest") {
    out->cmd = Request::Cmd::kIngest;
    if (!parse_model_field(doc, out, err) || !parse_params(doc, out, err)) {
      return false;
    }
    std::uint64_t nprocs = 0;
    if (!parse_uint_field(doc, "nprocs", /*required=*/true, 1, &nprocs,
                          err)) {
      return false;
    }
    out->nprocs = static_cast<std::size_t>(nprocs);
    if (!doc.contains("runtime")) {
      return fail(err, "bad-request", "ingest request missing runtime");
    }
    if (doc.at("runtime").kind() != JsonValue::Kind::Number ||
        !std::isfinite(doc.at("runtime").as_number())) {
      return fail(err, "bad-request", "runtime must be a finite number");
    }
    out->runtime = doc.at("runtime").as_number();
    std::uint64_t run_id = 0;
    if (!parse_uint_field(doc, "run_id", /*required=*/false, 0, &run_id,
                          err)) {
      return false;
    }
    out->run_id = run_id;
    return true;
  }
  if (cmd == "retrain") {
    out->cmd = Request::Cmd::kRetrain;
    return parse_model_field(doc, out, err);
  }
  if (cmd == "shutdown") {
    out->cmd = Request::Cmd::kShutdown;
    return true;
  }
  return fail(err, "unknown-cmd", "unknown cmd: " + cmd);
}

std::string render_predictions(const std::string& id_json,
                               std::uint64_t model_version,
                               const std::vector<std::size_t>& scales,
                               const std::vector<double>& predictions) {
  std::string out = "{";
  if (!id_json.empty()) {
    out += "\"id\":";
    out += id_json;
    out += ',';
  }
  out += "\"ok\":true,\"model_version\":";
  out += std::to_string(model_version);
  out += ",\"scales\":[";
  for (std::size_t i = 0; i < scales.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(scales[i]);
  }
  out += "],\"predictions\":[";
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (i > 0) out += ',';
    obs::json_number_into(out, predictions[i]);
  }
  out += "]}";
  return out;
}

std::string render_error(const std::string& id_json,
                         std::uint64_t model_version, const ErrorInfo& err) {
  std::string out = "{";
  if (!id_json.empty()) {
    out += "\"id\":";
    out += id_json;
    out += ',';
  }
  out += "\"ok\":false,\"model_version\":";
  out += std::to_string(model_version);
  out += ",\"error\":{\"code\":";
  out += obs::json_quote(err.code);
  out += ",\"message\":";
  out += obs::json_quote(err.message);
  if (err.retry_after_ms > 0) {
    out += ",\"retry_after_ms\":";
    out += std::to_string(err.retry_after_ms);
  }
  out += "}}";
  return out;
}

}  // namespace hpcp::serve
