/// Pinned-seed training-pipeline performance suite: the end-to-end
/// TwoLevelModel fit on the canonical synthetic inventory at 1, 2, and 8
/// worker threads. Also enforces the parallel-training contract inline:
/// the serialized models from the 1- and 8-thread fits must be byte
/// identical (see DESIGN.md, "Parallel training & determinism contract")
/// — a mismatch is a hard failure, not a statistic.
///
/// Like bench_micro_forest this is a plain executable (no
/// google-benchmark): a fixed workload from a fixed seed, results written
/// as JSON (schema "hpcp-bench-train/1", documented in EXPERIMENTS.md) for
/// the tracked BENCH_train.json at the repo root. `tools/ci.sh` runs
/// `--short` mode and validates the output. Speedups are measured on
/// whatever host runs the bench; `hardware_concurrency` is recorded so a
/// 1x "speedup" on a single-core box reads as what it is.
///
/// Usage: bench_micro_train [--short] [--json PATH]

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/core/two_level_model.hpp"

namespace {

using hpcp::ExperimentConfig;
using hpcp::Rng;
using hpcp::TwoLevelModel;
using hpcp::bench::BenchCase;
using hpcp::bench::run_case;

/// One end-to-end fit at a fixed thread count; returns the serialized
/// model so callers can byte-compare fits across thread counts.
std::string fit_once(const hpcp::ExtrapolationProblem& problem,
                     std::size_t threads) {
  TwoLevelModel model{hpcp::TwoLevelOptions{}};
  Rng rng(42);
  model.fit_checked(problem, rng, {.threads = threads}).value_or_throw();
  std::string archive;
  hpcp::Serializer out(archive);
  model.save(out);
  return archive;
}

void write_json(const std::string& path, bool short_mode,
                std::size_t num_configs, std::size_t hw,
                const std::vector<BenchCase>& cases, double speedup_t8,
                bool byte_identical) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"hpcp-bench-train/1\",\n";
  out << "  \"short_mode\": " << (short_mode ? "true" : "false") << ",\n";
  out << "  \"config\": {\n";
  out << "    \"app\": \"heat3d\",\n";
  out << "    \"train_configs\": " << num_configs << ",\n";
  out << "    \"hardware_concurrency\": " << hw << "\n";
  out << "  },\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    out << "    {\"name\": \"" << cases[i].name
        << "\", \"seconds\": " << cases[i].seconds
        << ", \"reps\": " << cases[i].reps << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedups\": {\n";
  out << "    \"fit_t8_vs_t1\": " << speedup_t8 << "\n";
  out << "  },\n";
  out << "  \"determinism\": {\n";
  out << "    \"byte_identical_models_t1_t8\": "
      << (byte_identical ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("\nspeedup: fit t8/t1 = %.2fx (hardware_concurrency=%zu)\n"
              "determinism: t1 vs t8 archives %s\nwrote %s\n",
              speedup_t8, hw, byte_identical ? "byte-identical" : "DIFFER",
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--short") {
      short_mode = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--short] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  // The reference case is the canonical full-size inventory; short mode
  // shrinks the configuration count for the CI smoke run.
  ExperimentConfig cfg = hpcp::bench::full_config("heat3d");
  if (short_mode) cfg.num_train = 96;
  const auto exp = hpcp::make_experiment(cfg);
  const std::size_t reps = short_mode ? 1 : 3;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf("train bench: app=heat3d configs=%zu scales=%zu hw_threads=%zu\n\n",
              cfg.num_train, cfg.small_scales.size(), hw);

  std::string archive_t1;
  std::string archive_t8;
  std::vector<BenchCase> cases;
  cases.push_back(run_case("fit_t1", reps, [&] {
    archive_t1 = fit_once(exp.problem, 1);
  }));
  cases.push_back(run_case("fit_t2", reps, [&] {
    (void)fit_once(exp.problem, 2);
  }));
  cases.push_back(run_case("fit_t8", reps, [&] {
    archive_t8 = fit_once(exp.problem, 8);
  }));

  const double speedup =
      cases[2].seconds > 0.0 ? cases[0].seconds / cases[2].seconds : 0.0;
  const bool byte_identical = archive_t1 == archive_t8;
  if (!byte_identical) {
    std::fprintf(stderr,
                 "FATAL: 1-thread and 8-thread fits serialized differently "
                 "(%zu vs %zu bytes) — the determinism contract is broken\n",
                 archive_t1.size(), archive_t8.size());
    return 1;
  }

  if (!json_path.empty()) {
    write_json(json_path, short_mode, cfg.num_train, hw, cases, speedup,
               byte_identical);
  }
  return 0;
}
