#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file jsonlite.hpp
/// Minimal validating JSON reader for the observability artifacts: the
/// trace/metrics exporters are write-only, so the tests (and any tooling)
/// need an independent parser to round-trip their output. Full JSON
/// grammar, DOM result, throws std::runtime_error with a byte offset on
/// malformed input. Not a performance path — keep it obvious.

namespace hpcp::obs {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::Number), num_(n) {}
  /// A parsed number that also keeps its source token, so a reader can
  /// echo it byte for byte (number_token()).
  JsonValue(double n, std::string token)
      : kind_(Kind::Number), num_(n), str_(std::move(token)) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::String), str_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : kind_(Kind::Array), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : kind_(Kind::Object),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  /// The number's token as it appeared in the parsed text; empty for a
  /// number built in memory. Throws on a kind mismatch.
  [[nodiscard]] const std::string& number_token() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member access; throws if not an object or the key is absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws std::runtime_error on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Writer-side helpers shared by the hand-rolled JSON emitters (metrics,
/// serve protocol). Kept here so every subsystem escapes and formats
/// numbers the same way — the serve determinism contract depends on one
/// canonical rendering.

/// Appends `s` JSON-escaped (without surrounding quotes).
void json_escape_into(std::string& out, std::string_view s);

/// `s` as a complete quoted JSON string token.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Appends the shortest decimal that round-trips `v` (std::to_chars).
/// Non-finite values — which plain JSON cannot carry — render as null.
void json_number_into(std::string& out, double v);

}  // namespace hpcp::obs
