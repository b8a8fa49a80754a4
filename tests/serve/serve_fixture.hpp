#pragma once

/// \file serve_fixture.hpp
/// The setup every serve suite and bench_serve share. The server serves
/// only from a model store, so serving an in-memory model means
/// publishing it into a fresh store first: write_store() does that for a
/// {tenant -> model} list, attach() puts a Server in front of the store,
/// and make_server() does both. Also the small trained model most suites
/// serve, and its canonical predict lines.
///
/// Header-only and free of gtest, so the bench binaries can include it.

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/registry.hpp"
#include "src/serve/server.hpp"

namespace hpcp::serve::fixture {

/// Tenants and their models, published in order as version 1 of each.
using TenantModels =
    std::vector<std::pair<std::string, const TwoLevelModel*>>;

/// The directories fresh_dir() handed out; removed when the process exits
/// (every server and listener is gone by then).
struct ScratchDirs {
  std::mutex mutex;
  std::vector<std::filesystem::path> dirs;

  ScratchDirs() = default;
  ScratchDirs(const ScratchDirs&) = delete;
  ScratchDirs& operator=(const ScratchDirs&) = delete;
  ~ScratchDirs() {
    for (const auto& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

inline ScratchDirs& scratch_dirs() {
  static ScratchDirs dirs;
  return dirs;
}

/// A fresh, empty directory under the system temp dir, removed at process
/// exit. Keyed by pid and a per-process counter: ctest runs each TEST as
/// its own process, and one process must never clear a store another is
/// serving from.
inline std::string fresh_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hpcp_" + tag + "_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScratchDirs& scratch = scratch_dirs();
  const std::lock_guard lock(scratch.mutex);
  scratch.dirs.push_back(dir);
  return dir.string();
}

/// Publishes `tenants` into a fresh store and returns its root.
inline std::string write_store(const TenantModels& tenants) {
  const std::string root = fresh_dir("store");
  auto reg = registry::Registry::open(root).value_or_throw();
  for (const auto& [tenant, model] : tenants) {
    (void)reg.add_model(tenant, *model).value_or_throw();
  }
  return root;
}

/// A Server attached to the store at `root`. Server owns a pool and
/// atomics, so it is pinned in place behind a unique_ptr.
inline std::unique_ptr<Server> attach(const std::string& root,
                                      ServeOptions opts = {}) {
  auto server = std::make_unique<Server>(std::move(opts));
  server->attach_registry(root).value_or_throw();
  return server;
}

/// A Server over a fresh store holding `tenants`.
inline std::unique_ptr<Server> make_server(const TenantModels& tenants,
                                           ServeOptions opts = {}) {
  return attach(write_store(tenants), std::move(opts));
}

/// The small model most serve suites share (minimd, 60 training
/// configurations), and the experiment whose test rows feed requests.
struct Trained {
  Experiment exp;
  TwoLevelModel model;
};

/// Built once per process: fitting dominates the suites' runtime, and
/// the model itself is immutable.
inline const Trained& trained() {
  static const Trained* t = [] {
    auto* out = new Trained;
    ExperimentConfig cfg;
    cfg.app_name = "minimd";
    cfg.num_train = 60;
    cfg.num_test = 8;
    cfg.seed = 101;
    out->exp = make_experiment(cfg);
    Rng rng(2);
    out->model.fit(out->exp.problem, rng);
    return out;
  }();
  return *t;
}

/// One store per process holding trained() as the "default" tenant.
inline const std::string& default_store() {
  static const std::string root =
      write_store({{registry::kDefaultTenant, &trained().model}});
  return root;
}

/// A Server serving trained() as the "default" tenant.
inline std::unique_ptr<Server> default_server(ServeOptions opts = {}) {
  return attach(default_store(), std::move(opts));
}

/// A canonical predict line for test config `i` (modulo the test set);
/// an empty `scales_json` omits the field (model default scales).
inline std::string predict_line(std::size_t i,
                                const std::string& scales_json = "[64]") {
  const auto& test = trained().exp.test;
  const auto row = test.configs.row(i % test.size());
  std::string line = "{\"id\":" + std::to_string(i) + ",\"params\":[";
  for (std::size_t d = 0; d < row.size(); ++d) {
    if (d > 0) line += ',';
    obs::json_number_into(line, row[d]);
  }
  line += ']';
  if (!scales_json.empty()) line += ",\"scales\":" + scales_json;
  line += '}';
  return line;
}

}  // namespace hpcp::serve::fixture
