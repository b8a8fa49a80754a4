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
#include <cmath>
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
#include "src/forest/forest_isa.hpp"
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

void write_json(const std::string& path, bool short_mode, std::size_t rows,
                std::size_t cols, std::size_t trees, std::size_t max_bins,
                std::size_t threads, const std::vector<BenchCase>& cases,
                double simd_speedup, double n1_vs_per_row,
                bool obs_bitwise_identical,
                bool simd_parity_bitwise) {
  auto find = [&cases](const std::string& name) -> double {
    for (const auto& c : cases) {
      if (c.name == name) return c.seconds;
    }
    return 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double fit_speedup = ratio(find("fit_exact_t1"), find("fit_hist_t1"));
  const double predict_speedup =
      ratio(find("predict_per_row"), find("predict_batched"));
  // simd_speedup arrives precomputed: it is the median of back-to-back
  // scalar/SIMD rep pairs (see the measurement loop in main), not a
  // quotient of the two best-of case times printed above.
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
  out << "    \"hardware_concurrency\": " << threads << ",\n";
  out << "    \"simd_isa\": \""
      << hpcp::forest_isa_name(hpcp::detect_forest_isa()) << "\"\n";
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
  out << "    \"fit_hist_vs_exact\": " << fit_speedup << ",\n";
  out << "    \"predict_batched_vs_per_row\": " << predict_speedup << ",\n";
  out << "    \"predict_simd_vs_scalar\": " << simd_speedup << "\n";
  out << "  },\n";
  // The SIMD ratio is only meaningful when the host resolves a vector
  // ISA; the regression gate skips it (and its --require floor) when
  // config.simd_isa is "scalar".
  out << "  \"scaling\": {\n";
  out << "    \"predict_simd_vs_scalar\": {\"requires_simd\": true}\n";
  out << "  },\n";
  // Recorded, not gated: the regression gate reads only `speedups`.
  out << "  \"info\": {\n";
  out << "    \"predict_n1_vs_per_row\": " << n1_vs_per_row << "\n";
  out << "  },\n";
  out << "  \"determinism\": {\n";
  out << "    \"simd_parity_bitwise\": "
      << (simd_parity_bitwise ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"obs\": {\n";
  out << "    \"off_overhead\": " << off_overhead << ",\n";
  out << "    \"traced_overhead\": " << traced_overhead << ",\n";
  out << "    \"bitwise_identical_on_off\": "
      << (obs_bitwise_identical ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("\nspeedups: fit hist/exact = %.2fx, predict batched/per-row = "
              "%.2fx, simd/scalar = %.2fx (%s, parity %s), "
              "n=1 flat/per-row = %.2fx\n"
              "obs: off overhead = %.3fx (A/A), traced = %.2fx\n"
              "wrote %s\n",
              fit_speedup, predict_speedup, simd_speedup,
              hpcp::forest_isa_name(hpcp::detect_forest_isa()),
              simd_parity_bitwise ? "bitwise" : "BROKEN", n1_vs_per_row,
              off_overhead,
              traced_overhead, path.c_str());
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
  // unlimited-depth tree (~1.3k nodes at 1024 rows) L2-resident: the
  // scalar-vs-SIMD ratio is an algorithmic contrast (compaction skips
  // parked rows), and once trees outgrow the cache both kernels converge
  // on memory latency and the ratio stops measuring the code.
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
  cases.push_back(run_case("fit_exact_t1", reps, [&] {
    RandomForest forest(forest_options(trees, SplitMode::kExact, max_bins,
                                       /*oob=*/false));
    Rng rng(7);
    forest.fit(data.x, data.y, rng, &one_thread);
  }));
  const auto fit_hist_t1 = [&] {
    RandomForest forest(forest_options(trees, SplitMode::kHistogram, max_bins,
                                       /*oob=*/false));
    Rng rng(7);
    forest.fit(data.x, data.y, rng, &one_thread);
  };
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
  // Predict cases are sub-millisecond in short mode and low-millisecond
  // in full mode; extra reps cost little and the min-of-reps must
  // converge for the gated simd/scalar ratio to be reproducible.
  const std::size_t predict_reps = short_mode ? 5 : 9;
  std::vector<double> sink;
  cases.push_back(run_case("predict_per_row", predict_reps, [&] {
    sink = predict_per_row(forest, data.x);
  }));
  const std::vector<double> reference = sink;
  cases.push_back(run_case("predict_batched", predict_reps, [&] {
    sink = forest.predict(data.x);
  }));
  // Sanity: the fast path must agree with the reference walk bit-for-bit.
  for (std::size_t r = 0; r < rows; ++r) {
    if (sink[r] != reference[r]) {
      std::fprintf(stderr, "batched/per-row mismatch at row %zu\n", r);
      return 1;
    }
  }

  // Scalar vs SIMD FlatForest kernels over the same fitted forest: the
  // HPCP_FOREST_ISA override pins each case to one code path, and the
  // parity contract (bitwise-identical predictions) is enforced inline —
  // a vector kernel that changes bits is a correctness bug, not a trade.
  //
  // The gated ratio is the median of per-rep back-to-back pairs rather
  // than a quotient of two independent min-of-reps: each rep times the
  // scalar walk and then the SIMD walk inside one slice of host noise,
  // so frequency drift or steal time on a shared runner moves both sides
  // of a pair together instead of randomly deflating one min. The
  // per-case best-of wall times are still recorded alongside.
  const hpcp::FlatForest& flat = forest.flat();
  // Short mode's 20-tree predict is ~0.1 ms — below what a steady-clock
  // read measures reliably — so each side times `inner` consecutive
  // calls as one region. The ratio is scale-invariant; the recorded
  // per-case seconds are per-region (the baseline is refreshed in kind).
  const std::size_t inner = short_mode ? 8 : 1;
  std::vector<double> scalar_pred;
  std::vector<double> simd_pred;
  double best_scalar = 0.0;
  double best_simd = 0.0;
  std::vector<double> pair_ratios;
  for (std::size_t rep = 0; rep < predict_reps; ++rep) {
    double scalar_s = 0.0;
    double simd_s = 0.0;
    ::setenv("HPCP_FOREST_ISA", "scalar", 1);
    {
      const hpcp::obs::Span span("bench.case", "predict_flat_scalar");
      const hpcp::obs::Stopwatch watch;
      for (std::size_t it = 0; it < inner; ++it) {
        scalar_pred = flat.predict_mean(data.x);
      }
      scalar_s = watch.seconds();
    }
    ::setenv("HPCP_FOREST_ISA", "auto", 1);
    {
      const hpcp::obs::Span span("bench.case", "predict_flat_simd");
      const hpcp::obs::Stopwatch watch;
      for (std::size_t it = 0; it < inner; ++it) {
        simd_pred = flat.predict_mean(data.x);
      }
      simd_s = watch.seconds();
    }
    if (rep == 0 || scalar_s < best_scalar) best_scalar = scalar_s;
    if (rep == 0 || simd_s < best_simd) best_simd = simd_s;
    pair_ratios.push_back(simd_s > 0.0 ? scalar_s / simd_s : 0.0);
  }
  ::unsetenv("HPCP_FOREST_ISA");
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double simd_speedup = pair_ratios[pair_ratios.size() / 2];
  cases.push_back(BenchCase{"predict_flat_scalar", best_scalar, predict_reps});
  cases.push_back(BenchCase{"predict_flat_simd", best_simd, predict_reps});
  std::printf("%-28s %10.4f s   (best of %zu)\n", "predict_flat_scalar",
              best_scalar, predict_reps);
  std::printf("%-28s %10.4f s   (best of %zu)\n", "predict_flat_simd",
              best_simd, predict_reps);
  bool simd_parity = true;
  for (std::size_t r = 0; r < rows; ++r) {
    if (scalar_pred[r] != simd_pred[r] ||
        std::signbit(scalar_pred[r]) != std::signbit(simd_pred[r])) {
      simd_parity = false;
      std::fprintf(stderr, "scalar/simd parity mismatch at row %zu\n", r);
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
    if (flat.predict_mean(one_row[c])[0] != reference[c % rows]) {
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
  std::sort(n1_ratios.begin(), n1_ratios.end());
  const double n1_vs_per_row = n1_ratios[n1_ratios.size() / 2];
  const auto calls = static_cast<double>(small_calls);
  cases.push_back(
      BenchCase{"predict_flat_simd_n1", best_n1 / calls, predict_reps});
  cases.push_back(
      BenchCase{"predict_flat_simd_n8", best_n8 / calls, predict_reps});
  std::printf("%-28s %10.2e s   (per call, best of %zu; sink %g)\n",
              "predict_flat_simd_n1", best_n1 / calls, predict_reps,
              small_sink);
  std::printf("%-28s %10.2e s   (per call, best of %zu)\n",
              "predict_flat_simd_n8", best_n8 / calls, predict_reps);

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
      if (traced_pred[r] != sink[r]) {
        obs_identical = false;
        std::fprintf(stderr, "obs on/off prediction mismatch at row %zu\n", r);
        return 1;
      }
    }
  }

  if (!json_path.empty()) {
    write_json(json_path, short_mode, rows, cols, trees, max_bins, hw, cases,
               simd_speedup, n1_vs_per_row, obs_identical, simd_parity);
  }
  return 0;
}
