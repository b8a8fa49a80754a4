#pragma once

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/obs.hpp"

/// \file cli_support.hpp
/// Command-line plumbing for hpcpredict_cli, split out so tests can drive
/// the parser without spawning a process: flag specs per subcommand, a
/// strict Args parser (unknown options are errors, not silently ignored),
/// and the RAII session that turns the shared observability flags
/// (--trace / --metrics-out / --metrics-text) into files on exit.

namespace hpcp::cli {

/// Malformed command line: unknown option, missing value, stray
/// positional. main() turns this into usage text + exit code 2, distinct
/// from runtime failures (exit 1) and validation findings (exit 3).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The flags one subcommand accepts; anything else is a UsageError.
struct FlagSpec {
  std::vector<std::string> value_flags;  ///< take exactly one argument
  std::vector<std::string> bool_flags;   ///< present/absent switches

  [[nodiscard]] bool is_value(const std::string& flag) const {
    return std::find(value_flags.begin(), value_flags.end(), flag) !=
           value_flags.end();
  }
  [[nodiscard]] bool is_bool(const std::string& flag) const {
    return std::find(bool_flags.begin(), bool_flags.end(), flag) !=
           bool_flags.end();
  }
};

/// Observability flags every subcommand accepts (see ObsSession).
inline const std::vector<std::string>& obs_flags() {
  static const std::vector<std::string> flags{"trace", "metrics-out",
                                              "metrics-text"};
  return flags;
}

/// Flag spec for `command`; throws UsageError for an unknown command.
/// `fit` is accepted as an alias of `train`.
inline FlagSpec spec_for(const std::string& command) {
  FlagSpec spec;
  spec.value_flags = obs_flags();
  const auto add = [&spec](std::initializer_list<const char*> flags) {
    for (const char* f : flags) spec.value_flags.emplace_back(f);
  };
  if (command == "generate") {
    add({"app", "out", "scales", "configs", "runs-per-point", "seed"});
  } else if (command == "train" || command == "fit") {
    add({"history", "targets", "save", "seed", "max-bins", "threads"});
  } else if (command == "predict") {
    add({"model", "history", "targets", "queries", "out", "seed",
         "max-bins", "threads"});
    spec.bool_flags = {"uncertainty"};
  } else if (command == "evaluate") {
    add({"app", "configs", "test-configs", "scales", "targets", "seed"});
  } else if (command == "validate") {
    add({"history", "out", "report"});
    spec.bool_flags = {"strict"};
  } else if (command == "serve") {
    add({"registry", "max-resident", "resident-bytes", "port",
         "admin-port", "threads", "batch-max", "cache-entries",
         "cache-shards", "max-line-bytes", "max-pending", "deadline-ms",
         "io-timeout-ms", "max-conns", "seq-log", "retrain-records"});
    spec.bool_flags = {"stdio"};
  } else if (command == "ingest") {
    add({"registry", "tenant", "history", "rebuild", "threads"});
    spec.bool_flags = {"retrain"};
  } else if (command == "registry") {
    // The action (ls|add|gc) is peeled off by main() before Args parsing —
    // Args itself rejects positionals by design.
    add({"root", "tenant", "model", "keep"});
  } else {
    throw UsageError("unknown command: " + command);
  }
  return spec;
}

/// Parsed --flag arguments, validated against a FlagSpec.
class Args {
 public:
  Args(const FlagSpec& spec, const std::vector<std::string>& tail) {
    for (std::size_t i = 0; i < tail.size(); ++i) {
      const std::string& arg = tail[i];
      if (arg.rfind("--", 0) != 0) {
        throw UsageError("unexpected argument: " + arg);
      }
      const std::string name = arg.substr(2);
      if (spec.is_value(name)) {
        if (i + 1 >= tail.size() || tail[i + 1].rfind("--", 0) == 0) {
          throw UsageError("flag --" + name + " expects a value");
        }
        values_[name] = tail[++i];
      } else if (spec.is_bool(name)) {
        values_[name] = "";
      } else {
        throw UsageError("unknown option: --" + name);
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (fallback.empty()) {
        throw UsageError("missing required flag --" + key);
      }
      return fallback;
    }
    return it->second;
  }
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const {
    if (!has(key)) return fallback;
    try {
      return std::stoull(get(key));
    } catch (const std::exception&) {
      throw UsageError("flag --" + key + " expects a number, got '" +
                       get(key) + "'");
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Enables tracing and/or metrics for the lifetime of one subcommand when
/// the shared observability flags are present, and writes the requested
/// files on destruction. With none of the flags given this is a no-op and
/// the instrumented hot paths stay on their disabled (branch-only) path.
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : trace_path_(args.has("trace") ? args.get("trace") : ""),
        metrics_json_path_(
            args.has("metrics-out") ? args.get("metrics-out") : ""),
        metrics_text_path_(
            args.has("metrics-text") ? args.get("metrics-text") : "") {
    if (!trace_path_.empty()) {
      obs::Tracer::instance().clear();
      obs::set_trace_enabled(true);
    }
    if (!metrics_json_path_.empty() || !metrics_text_path_.empty()) {
      obs::global_metrics().reset_values();
      obs::set_metrics_enabled(true);
    }
  }

  ~ObsSession() {
    if (!trace_path_.empty()) {
      obs::set_trace_enabled(false);
      if (obs::Tracer::instance().write_chrome_json(trace_path_)) {
        std::cout << "wrote trace to " << trace_path_ << '\n';
      } else {
        std::cerr << "error: cannot write trace file: " << trace_path_
                  << '\n';
      }
    }
    if (!metrics_json_path_.empty() || !metrics_text_path_.empty()) {
      obs::set_metrics_enabled(false);
      if (!metrics_json_path_.empty()) {
        if (obs::global_metrics().write_json(metrics_json_path_)) {
          std::cout << "wrote metrics to " << metrics_json_path_ << '\n';
        } else {
          std::cerr << "error: cannot write metrics file: "
                    << metrics_json_path_ << '\n';
        }
      }
      if (!metrics_text_path_.empty()) {
        if (obs::global_metrics().write_prometheus(metrics_text_path_)) {
          std::cout << "wrote metrics text to " << metrics_text_path_
                    << '\n';
        } else {
          std::cerr << "error: cannot write metrics file: "
                    << metrics_text_path_ << '\n';
        }
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_json_path_;
  std::string metrics_text_path_;
};

}  // namespace hpcp::cli
