/// Pinned-seed forest performance suite: fit (exact vs histogram split
/// finding), prediction (per-row reference walk vs batched FlatForest), and
/// the out-of-bag pass, at one and `hardware_concurrency` threads. Also
/// guards the observability contract: with tracing/metrics off the
/// instrumented fit path must cost nothing beyond measurement noise (A/A
/// re-measure), and turning them on must not change predictions bitwise.
///
/// Unlike the other microbenchmarks this is a plain executable (no
/// google-benchmark): every case runs a fixed workload from a fixed seed so
/// runs are comparable across commits, and the results are written as JSON
/// (schema "hpcp-bench-forest/1", documented in EXPERIMENTS.md) for the
/// tracked BENCH_forest.json at the repo root. `tools/ci.sh bench-smoke`
/// runs `--short` mode and validates the output, including the obs
/// overhead guard.
///
/// Usage: bench_micro_forest [--short] [--json PATH]

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/forest/flat_forest.hpp"
#include "src/forest/random_forest.hpp"
#include "src/linear/matrix.hpp"
#include "src/obs/obs.hpp"

namespace {

using hpcp::Matrix;
using hpcp::RandomForest;
using hpcp::Rng;
using hpcp::SplitMode;
using hpcp::ThreadPool;
using hpcp::bench::BenchCase;
using hpcp::bench::run_case;

struct Data {
  Matrix x;
  std::vector<double> y;
};

/// Synthetic regression task from a pinned seed: mildly nonlinear response
/// over uniform features plus noise, the same shape every run.
Data make_data(std::size_t n, std::size_t d) {
  Rng rng(42);
  Data data;
  data.x = Matrix(n, d);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double v = rng.uniform();
      data.x(i, j) = v;
      acc += (static_cast<double>(j) + 1.0) * v;
      if (j + 1 < d) acc += 0.5 * v * v;
    }
    data.y[i] = acc + rng.normal(0.0, 0.1);
  }
  return data;
}

hpcp::ForestOptions forest_options(std::size_t trees, SplitMode mode,
                                   std::size_t max_bins, bool oob) {
  hpcp::ForestOptions opts;
  opts.num_trees = trees;
  opts.compute_oob = oob;
  opts.tree.split_mode = mode;
  opts.tree.max_bins = max_bins;
  return opts;
}

/// The seed's per-row prediction path: walk every pointer-style tree for
/// every row. The batched case runs the same forest through FlatForest.
std::vector<double> predict_per_row(const RandomForest& forest,
                                    const Matrix& x) {
  std::vector<double> out(x.rows(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      acc += forest.tree(t).predict(x.row(r));
    }
    out[r] = acc / static_cast<double>(forest.num_trees());
  }
  return out;
}

/// Median of per-pair ratios a / b. Each pair times both sides back to
/// back inside one slice of host noise, so frequency drift or steal time
/// on a shared runner moves both sides of a pair together instead of
/// randomly deflating one side's best-of.
double median_ratio(std::vector<double> ratios) {
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

/// Derived ratios, each the median of back-to-back pairs (median_ratio).
struct Ratios {
  double fit_hist_vs_exact = 0.0;
  double predict_batched_vs_per_row = 0.0;
  double predict_n1_vs_per_row = 0.0;
};

void write_json(const std::string& path, bool short_mode, std::size_t rows,
                std::size_t cols, std::size_t trees, std::size_t max_bins,
                std::size_t threads, const std::vector<BenchCase>& cases,
                const Ratios& ratios, bool obs_bitwise_identical,
                bool batched_parity_bitwise) {
  auto find = [&cases](const std::string& name) -> double {
    for (const auto& c : cases) {
      if (c.name == name) return c.seconds;
    }
    return 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // Off overhead is an A/A ratio: the same disabled-path workload measured
  // twice. Anything persistently above ~1.01 means the disabled spans are
  // no longer free. Traced overhead is informational (tracing on is allowed
  // to cost something).
  const double off_overhead =
      ratio(find("fit_hist_t1_obs_off"), find("fit_hist_t1"));
  const double traced_overhead =
      ratio(find("fit_hist_t1_traced"), find("fit_hist_t1"));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"hpcp-bench-forest/1\",\n";
  out << "  \"short_mode\": " << (short_mode ? "true" : "false") << ",\n";
  out << "  \"config\": {\n";
  out << "    \"rows\": " << rows << ",\n";
  out << "    \"cols\": " << cols << ",\n";
  out << "    \"trees\": " << trees << ",\n";
  out << "    \"max_bins\": " << max_bins << ",\n";
  out << "    \"max_threads\": " << threads << ",\n";
  out << "    \"hardware_concurrency\": " << threads << "\n";
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
  out << "    \"fit_hist_vs_exact\": " << ratios.fit_hist_vs_exact << ",\n";
  out << "    \"predict_batched_vs_per_row\": "
      << ratios.predict_batched_vs_per_row << "\n";
  out << "  },\n";
  // Recorded, not gated: the regression gate reads only `speedups`.
  out << "  \"info\": {\n";
  out << "    \"predict_n1_vs_per_row\": " << ratios.predict_n1_vs_per_row
      << "\n";
  out << "  },\n";
  out << "  \"determinism\": {\n";
  out << "    \"batched_parity_bitwise\": "
      << (batched_parity_bitwise ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"obs\": {\n";
  out << "    \"off_overhead\": " << off_overhead << ",\n";
  out << "    \"traced_overhead\": " << traced_overhead << ",\n";
  out << "    \"bitwise_identical_on_off\": "
      << (obs_bitwise_identical ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("\nspeedups: fit hist/exact = %.2fx, predict batched/per-row = "
              "%.2fx (parity %s), n=1 flat/per-row = %.2fx\n"
              "obs: off overhead = %.3fx (A/A), traced = %.2fx\n"
              "wrote %s\n",
              ratios.fit_hist_vs_exact, ratios.predict_batched_vs_per_row,
              batched_parity_bitwise ? "bitwise" : "BROKEN",
              ratios.predict_n1_vs_per_row, off_overhead, traced_overhead,
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

  // Full mode is the acceptance workload from DESIGN.md "Performance";
  // short mode shrinks it for the CI smoke run. The row count keeps each
  // unlimited-depth tree (~1.3k nodes at 1024 rows) L2-resident, so the
  // predict cases time the walk rather than memory latency.
  const std::size_t rows = short_mode ? 512 : 1024;
  const std::size_t cols = short_mode ? 8 : 16;
  const std::size_t trees = short_mode ? 20 : 300;
  const std::size_t max_bins = 64;
  const std::size_t reps = short_mode ? 1 : 2;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const Data data = make_data(rows, cols);
  ThreadPool one_thread(1);
  ThreadPool many_threads(hw);

  std::printf("forest bench: n=%zu d=%zu trees=%zu max_bins=%zu threads=%zu\n\n",
              rows, cols, trees, max_bins, hw);

  std::vector<BenchCase> cases;
  Ratios ratios;
  const auto fit_t1 = [&](SplitMode mode) {
    RandomForest forest(forest_options(trees, mode, max_bins, /*oob=*/false));
    Rng rng(7);
    forest.fit(data.x, data.y, rng, &one_thread);
  };
  // fit_hist_vs_exact: exact and histogram fits back to back, the median
  // of the pairs' ratios. fit_exact_t1 records the best exact fit of the
  // pairs; fit_hist_t1 is timed on its own below because the obs A/A
  // ratio divides by it and must compare like with like.
  const std::size_t fit_pairs = std::max<std::size_t>(reps, 5);
  {
    double best_exact = 0.0;
    std::vector<double> pair_ratios;
    for (std::size_t rep = 0; rep < fit_pairs; ++rep) {
      const hpcp::obs::Stopwatch exact_watch;
      fit_t1(SplitMode::kExact);
      const double exact_s = exact_watch.seconds();
      const hpcp::obs::Stopwatch hist_watch;
      fit_t1(SplitMode::kHistogram);
      const double hist_s = hist_watch.seconds();
      if (rep == 0 || exact_s < best_exact) best_exact = exact_s;
      pair_ratios.push_back(hist_s > 0.0 ? exact_s / hist_s : 0.0);
    }
    ratios.fit_hist_vs_exact = median_ratio(pair_ratios);
    cases.push_back(BenchCase{"fit_exact_t1", best_exact, fit_pairs});
    std::printf("%-28s %10.4f s   (best of %zu)\n", "fit_exact_t1", best_exact,
                fit_pairs);
  }
  const auto fit_hist_t1 = [&] { fit_t1(SplitMode::kHistogram); };
  cases.push_back(run_case("fit_hist_t1", reps, fit_hist_t1));
  // A/A re-measure of the identical disabled-path workload: the ratio to
  // fit_hist_t1 is the off-mode overhead guard (tools/ci.sh asserts ~1.0).
  cases.push_back(run_case("fit_hist_t1_obs_off", reps, fit_hist_t1));
  // The same workload with tracing + metrics live (informational).
  hpcp::obs::Tracer::instance().clear();
  hpcp::obs::set_trace_enabled(true);
  hpcp::obs::set_metrics_enabled(true);
  cases.push_back(run_case("fit_hist_t1_traced", reps, fit_hist_t1));
  hpcp::obs::set_trace_enabled(false);
  hpcp::obs::set_metrics_enabled(false);
  if (hw > 1) {
    cases.push_back(run_case("fit_hist_tN", reps, [&] {
      RandomForest forest(forest_options(trees, SplitMode::kHistogram,
                                         max_bins, /*oob=*/false));
      Rng rng(7);
      forest.fit(data.x, data.y, rng, &many_threads);
    }));
  }
  cases.push_back(run_case("fit_oob_hist_t1", reps, [&] {
    RandomForest forest(forest_options(trees, SplitMode::kHistogram, max_bins,
                                       /*oob=*/true));
    Rng rng(7);
    forest.fit(data.x, data.y, rng, &one_thread);
  }));

  RandomForest forest(forest_options(trees, SplitMode::kHistogram, max_bins,
                                     /*oob=*/false));
  {
    Rng rng(7);
    forest.fit(data.x, data.y, rng, &one_thread);
  }
  const hpcp::FlatForest& flat = forest.flat();
  // predict_batched_vs_per_row: the per-row pointer walk and the batched
  // FlatForest walk over the whole batch, back to back, the median of the
  // pairs' ratios; each case records its best of the pairs, per call.
  // Each side runs one untimed call first, so it is timed with its own
  // nodes in cache, then times `inner` consecutive calls as one region:
  // short mode's batched predict is ~0.2 ms, a slice a single scheduler
  // hiccup can double.
  const std::size_t predict_reps = short_mode ? 5 : 9;
  const std::size_t inner = short_mode ? 8 : 1;
  const auto time_walk = [inner](const char* name, const auto& walk) {
    walk();
    const hpcp::obs::Span span("bench.case", name);
    const hpcp::obs::Stopwatch watch;
    for (std::size_t it = 0; it < inner; ++it) walk();
    return watch.seconds() / static_cast<double>(inner);
  };
  std::vector<double> reference;
  std::vector<double> batched;
  {
    double best_per_row = 0.0;
    double best_batched = 0.0;
    std::vector<double> pair_ratios;
    for (std::size_t rep = 0; rep < predict_reps; ++rep) {
      const double per_row_s = time_walk("predict_per_row", [&] {
        reference = predict_per_row(forest, data.x);
      });
      const double batched_s = time_walk(
          "predict_batched", [&] { batched = forest.predict(data.x); });
      if (rep == 0 || per_row_s < best_per_row) best_per_row = per_row_s;
      if (rep == 0 || batched_s < best_batched) best_batched = batched_s;
      pair_ratios.push_back(batched_s > 0.0 ? per_row_s / batched_s : 0.0);
    }
    ratios.predict_batched_vs_per_row = median_ratio(pair_ratios);
    cases.push_back(BenchCase{"predict_per_row", best_per_row, predict_reps});
    cases.push_back(BenchCase{"predict_batched", best_batched, predict_reps});
    std::printf("%-28s %10.4f s   (best of %zu)\n", "predict_per_row",
                best_per_row, predict_reps);
    std::printf("%-28s %10.4f s   (best of %zu)\n", "predict_batched",
                best_batched, predict_reps);
  }
  // Parity: the batched walk must agree with the per-row reference walk
  // bit for bit; a fast path that changes bits is a bug, not a trade.
  bool batched_parity = true;
  for (std::size_t r = 0; r < rows; ++r) {
    if (std::bit_cast<std::uint64_t>(batched[r]) !=
        std::bit_cast<std::uint64_t>(reference[r])) {
      batched_parity = false;
      std::fprintf(stderr, "batched/per-row mismatch at row %zu\n", r);
      return 1;
    }
  }

  // Small batches, the cold serving shape: one-row and eight-row calls
  // over the same forest, where the tile walk runs every tree at once.
  // Each region times `small_calls` consecutive calls over different
  // rows; the recorded seconds are per call. predict_n1_vs_per_row is the
  // median of back-to-back pairs against the per-row pointer walk of the
  // same rows, recorded in the ungated `info` block.
  const std::size_t small_calls = short_mode ? 64 : 128;
  std::vector<Matrix> one_row(small_calls, Matrix(1, cols));
  std::vector<Matrix> eight_rows(small_calls, Matrix(8, cols));
  for (std::size_t c = 0; c < small_calls; ++c) {
    one_row[c].set_row(0, data.x.row(c % rows));
    for (std::size_t k = 0; k < 8; ++k) {
      eight_rows[c].set_row(k, data.x.row((8 * c + k) % rows));
    }
  }
  for (std::size_t c = 0; c < small_calls; ++c) {
    if (std::bit_cast<std::uint64_t>(flat.predict_mean(one_row[c])[0]) !=
        std::bit_cast<std::uint64_t>(reference[c % rows])) {
      batched_parity = false;
      std::fprintf(stderr, "one-row/per-row mismatch at row %zu\n",
                   c % rows);
      return 1;
    }
  }
  double best_n1 = 0.0;
  double best_n8 = 0.0;
  double small_sink = 0.0;
  std::vector<double> n1_ratios;
  for (std::size_t rep = 0; rep < predict_reps; ++rep) {
    const hpcp::obs::Stopwatch per_row_watch;
    for (const Matrix& m : one_row) {
      small_sink += predict_per_row(forest, m)[0];
    }
    const double per_row_s = per_row_watch.seconds();
    const hpcp::obs::Stopwatch n1_watch;
    for (const Matrix& m : one_row) small_sink += flat.predict_mean(m)[0];
    const double n1_s = n1_watch.seconds();
    const hpcp::obs::Stopwatch n8_watch;
    for (const Matrix& m : eight_rows) small_sink += flat.predict_mean(m)[0];
    const double n8_s = n8_watch.seconds();
    if (rep == 0 || n1_s < best_n1) best_n1 = n1_s;
    if (rep == 0 || n8_s < best_n8) best_n8 = n8_s;
    n1_ratios.push_back(n1_s > 0.0 ? per_row_s / n1_s : 0.0);
  }
  ratios.predict_n1_vs_per_row = median_ratio(n1_ratios);
  const auto calls = static_cast<double>(small_calls);
  cases.push_back(BenchCase{"predict_flat_n1", best_n1 / calls, predict_reps});
  cases.push_back(BenchCase{"predict_flat_n8", best_n8 / calls, predict_reps});
  std::printf("%-28s %10.2e s   (per call, best of %zu; sink %g)\n",
              "predict_flat_n1", best_n1 / calls, predict_reps, small_sink);
  std::printf("%-28s %10.2e s   (per call, best of %zu)\n",
              "predict_flat_n8", best_n8 / calls, predict_reps);

  // Observability must never change results: an identical fit + predict
  // with tracing and metrics live has to be bitwise equal to obs-off.
  bool obs_identical = true;
  {
    hpcp::obs::Tracer::instance().clear();
    hpcp::obs::set_trace_enabled(true);
    hpcp::obs::set_metrics_enabled(true);
    RandomForest traced(forest_options(trees, SplitMode::kHistogram, max_bins,
                                       /*oob=*/false));
    Rng rng(7);
    traced.fit(data.x, data.y, rng, &one_thread);
    const auto traced_pred = traced.predict(data.x);
    hpcp::obs::set_trace_enabled(false);
    hpcp::obs::set_metrics_enabled(false);
    for (std::size_t r = 0; r < rows; ++r) {
      if (traced_pred[r] != batched[r]) {
        obs_identical = false;
        std::fprintf(stderr, "obs on/off prediction mismatch at row %zu\n", r);
        return 1;
      }
    }
  }

  if (!json_path.empty()) {
    write_json(json_path, short_mode, rows, cols, trees, max_bins, hw, cases,
               ratios, obs_identical, batched_parity);
  }
  return 0;
}
