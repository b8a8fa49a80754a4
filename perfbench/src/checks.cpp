/// \file checks.cpp (perfbench)
/// Correctness of the answers a run served over TCP.
///
///   - quality: every captured predict response is parsed, its scales must
///     be the requested ones and its predictions finite and positive; MAPE
///     is recomputed against the simulator's noise-free runtime at every
///     requested scale (each distinct request and version counted once);
///   - byte identity: a sample of the captured responses is replayed
///     through Server::handle_line on a fresh server whose store holds
///     exactly the model version the response names, and must come back
///     byte-identical.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>

#include "bench.hpp"
#include "src/obs/jsonlite.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Captured answers replayed for byte identity, evenly spaced.
constexpr std::size_t kReplays = 512;

void fail(CheckResult* out, std::string msg) {
  out->ok = false;
  if (out->errors.size() < 8) out->errors.push_back(std::move(msg));
}

/// A store holding version `version` of every tenant that has it.
std::string store_at_version(const Deployment& dep, std::uint64_t version,
                             const std::string& scratch) {
  const fs::path root = fs::path(scratch) / ("replay_v" + std::to_string(version));
  fs::remove_all(root);
  for (const std::string& tenant : dep.tenants) {
    const fs::path src = fs::path(dep.store_root) / tenant /
                         (std::to_string(version) + ".hpcp");
    if (!fs::exists(src)) continue;
    fs::create_directories(root / tenant);
    fs::copy_file(src, root / tenant / src.filename());
  }
  return root.string();
}

}  // namespace

CheckResult check_responses(const Deployment& dep,
                            const std::vector<Request>& reqs,
                            const std::vector<Captured>& caps,
                            const std::string& scratch) {
  CheckResult out;
  const std::size_t replay_every =
      std::max<std::size_t>(1, caps.size() / kReplays);
  std::set<std::string> seen;
  std::map<std::uint64_t, std::vector<const Captured*>> by_version;
  double ape_sum = 0.0;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    const Captured& cap = caps[k];
    const Request& req = reqs[cap.index];
    // Each distinct (request bar its id, answering version) is checked
    // once; the version is read before the full parse to skip repeats.
    const std::size_t at = cap.response.find("\"model_version\":");
    const std::string key =
        cap.response.substr(at, cap.response.find(',', at) - at) +
        req.line.substr(req.line.find(','));
    const bool replay = k % replay_every == 0;
    if (!seen.insert(key).second && !replay) continue;
    try {
      const hpcp::obs::JsonValue doc = hpcp::obs::parse_json(cap.response);
      if (!doc.at("ok").as_bool()) throw std::runtime_error("not ok");
      const auto& scales = doc.at("scales").as_array();
      const auto& preds = doc.at("predictions").as_array();
      if (scales.size() != req.scales.size() ||
          preds.size() != req.scales.size()) {
        throw std::runtime_error("wrong number of scales");
      }
      for (std::size_t s = 0; s < scales.size(); ++s) {
        if (static_cast<std::size_t>(scales[s].as_number()) != req.scales[s]) {
          throw std::runtime_error("scales differ from the request");
        }
        const double pred = preds[s].as_number();
        if (!std::isfinite(pred) || pred <= 0.0) {
          throw std::runtime_error("non-finite or non-positive prediction");
        }
      }
      const auto version =
          static_cast<std::uint64_t>(doc.at("model_version").as_number());
      if (replay) by_version[version].push_back(&cap);
      const hpcp::Experiment& exp = dep.apps[req.app];
      for (std::size_t s = 0; s < preds.size(); ++s) {
        const double truth =
            exp.simulator.true_time(*exp.app, req.params, req.scales[s]);
        ape_sum += std::abs(preds[s].as_number() - truth) / truth;
        ++out.mape_points;
      }
    } catch (const std::exception& e) {
      fail(&out, "request " + std::to_string(req.id) + ": " + e.what() +
                     ": " + cap.response.substr(0, 160));
    }
  }
  out.mape_pct =
      out.mape_points > 0
          ? 100.0 * ape_sum / static_cast<double>(out.mape_points)
          : 0.0;
  if (out.mape_points == 0) fail(&out, "no predict response was captured");

  for (const auto& [version, group] : by_version) {
    const std::string root = store_at_version(dep, version, scratch);
    {
      hpcp::serve::ServeOptions opts = dep.serve_opts;
      opts.threads = 1;
      hpcp::serve::Server fresh(opts);
      fresh.attach_registry(root).value_or_throw();
      for (const Captured* cap : group) {
        const std::string again = fresh.handle_line(reqs[cap->index].line);
        ++out.replayed;
        if (again != cap->response) {
          fail(&out, "byte mismatch at model_version " +
                         std::to_string(version) + ": served " +
                         cap->response.substr(0, 160) + " | replayed " +
                         again.substr(0, 160));
        }
      }
    }
    fs::remove_all(root);
  }
  return out;
}

}  // namespace perfbench
