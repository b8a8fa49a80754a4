/// hpcpredict_cli — drive the library from the command line.
///
/// Subcommands:
///   generate  Simulate an execution history for a bundled application and
///             write it as CSV (stand-in for exporting a site's logs).
///   train     Train the two-level model on a history CSV; optionally save
///             it as a `.hpcp` model archive for later prediction (the
///             file `registry add` publishes). `fit` is an alias.
///   predict   Predict target-scale runtimes of query configurations (CSV
///             in/out), with optional uncertainty intervals. Trains from
///             --history, or loads a `.hpcp` model saved by `train --save`.
///   evaluate  Run the full model-vs-baselines comparison for a bundled
///             application and print the headline table.
///   validate  Check a history CSV without training: parse leniently,
///             quarantine invalid records, and report what was removed.
///             Exit code 0 = clean, 3 = records quarantined, 1 = fatal
///             (unreadable/unusable file). Never crashes on corrupt input.
///   serve     Long-lived prediction server speaking the line-delimited
///             hpcp-serve/1 JSON protocol: fronts a --registry model store
///             (publish a saved model into it with `registry add`), then
///             answers predict/ping/stats/reload/shutdown request lines
///             on stdin/stdout (default, or --stdio) or over TCP
///             (--port N). SIGHUP rescans the store and hot-reloads every
///             resident tenant in place.
///   registry  Manage a named+versioned model store: `ls` the tenants,
///             `add` a model file as a tenant's next version, `gc` old
///             versions. `serve --registry DIR` serves the same store.
///   ingest    Drive the continuous-learning loop offline: append measured
///             runs to a tenant's append-only run log, retrain through the
///             shadow gate (--retrain; exit 3 when the candidate loses), or
///             rebuild the promoted model bit-for-bit from the log alone
///             (--rebuild OUT — the replay-determinism gate in CI).
///
/// Every subcommand also takes the observability flags --trace FILE
/// (Chrome trace-event JSON of pipeline spans), --metrics-out FILE
/// (hpcp-metrics/1 JSON), and --metrics-text FILE (Prometheus text).
/// Malformed command lines — unknown options included — print the usage
/// text and exit 2.
///
/// Examples:
///   hpcpredict_cli generate --app heat3d --configs 300
///       --scales 1,2,4,8,16 --out history.csv
///   hpcpredict_cli fit --history history.csv --targets 64,256
///       --trace trace.json --metrics-out metrics.json
///   hpcpredict_cli predict --history history.csv --targets 64,256
///       --queries queries.csv --uncertainty
///   hpcpredict_cli evaluate --app minimd --targets 32,64,128,256

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "src/hpcpredict.hpp"
#include "src/ingest/pipeline.hpp"
#include "src/ingest/scheduler.hpp"
#include "src/registry/archive.hpp"
#include "src/registry/registry.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"
#include "tools/cli_support.hpp"

namespace {

using namespace hpcp;
using cli::Args;

std::vector<std::size_t> parse_scales(const std::string& csv) {
  std::vector<std::size_t> scales;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    scales.push_back(std::stoull(token));
  }
  if (scales.empty()) throw std::invalid_argument("empty scale list");
  return scales;
}

int cmd_generate(const Args& args) {
  const std::string app_name = args.get("app");
  const auto app = make_application(app_name);
  const auto scales = parse_scales(args.get("scales", "1,2,4,8,16"));
  const std::size_t num_configs = args.get_size("configs", 300);
  const std::uint64_t seed = args.get_size("seed", 2020);
  const std::size_t runs = args.get_size("runs-per-point", 1);
  const std::string out = args.get("out");

  const PlatformSimulator sim(reference_machine(), seed ^ 0x9e3779b9);
  Rng rng(seed);
  const auto configs = app->parameter_space().sample_lhs(num_configs, rng);
  const HistoryStore history =
      generate_history(sim, *app, configs, scales, runs);
  csv_write_file(out, history.to_csv());
  std::cout << "wrote " << history.size() << " runs (" << num_configs
            << " configurations x " << scales.size() << " scales x " << runs
            << " repeats) to " << out << '\n';
  return 0;
}

TwoLevelModel train_from_history(const Args& args,
                                 std::vector<std::string>* param_names) {
  const std::string history_path = args.get("history");
  const auto targets = parse_scales(args.get("targets"));

  // Lenient ingestion: unparseable rows and invalid records are quarantined
  // (and reported) instead of aborting the whole training run.
  HistoryLoad load =
      load_history_csv("history", csv_read_file(history_path))
          .value_or_throw();
  if (!load.bad_rows.empty()) {
    std::cout << "quarantined " << load.bad_rows.size()
              << " unparseable row(s) at load\n";
  }
  ValidatedHistory validated =
      validate_history(load.store).value_or_throw();
  if (!validated.report.clean()) {
    std::cout << "quarantined " << validated.report.num_quarantined()
              << " invalid record(s):\n"
              << validated.report.summary();
  }
  const HistoryStore& history = validated.store;

  const ExtrapolationProblem problem =
      make_problem(history, history.scales(), targets);
  std::cout << "history: " << problem.num_configs() << " configurations at "
            << history.scales().size() << " small scales\n";
  TwoLevelOptions opts;
  // Histogram resolution of the interpolation forests' split finding
  // (tree.hpp); fits of at most `exact_cutoff` rows use exact splits and
  // ignore this.
  opts.forest.tree.max_bins =
      args.get_size("max-bins", opts.forest.tree.max_bins);
  TwoLevelModel model(opts);
  Rng rng(args.get_size("seed", 42));
  // --threads N caps the parallel fit stages at N workers; the default (0)
  // uses hardware concurrency. Any value trains the byte-identical model.
  const TwoLevelModel::FitOptions fit_opts{
      .threads = args.get_size("threads", 0)};
  const TrainReport report =
      model.fit_checked(problem, rng, fit_opts).value_or_throw();
  std::cout << "trained two-level model ("
            << model.extrapolation().num_clusters() << " cluster(s), "
            << report.threads << " thread(s))\n";
  if (!report.timings.empty()) {
    std::cout << "stage timings:";
    for (const auto& t : report.timings) {
      std::cout << ' ' << t.stage << '='
                << format_double(t.seconds * 1e3, 3) << "ms";
    }
    std::cout << '\n';
  }
  if (!report.fully_nominal()) {
    std::cout << "training degraded from the nominal path:\n"
              << report.summary();
  }
  if (param_names != nullptr) *param_names = problem.param_names;
  return model;
}

int cmd_validate(const Args& args) {
  // Data faults must come back as messages and exit codes, never as
  // uncaught exceptions — this subcommand exists to be pointed at garbage.
  const std::string history_path = args.get("history");
  auto table = csv_read_file_checked(history_path);
  if (!table) {
    std::cerr << "error: " << table.error().to_string() << '\n';
    return 1;
  }
  auto load = load_history_csv("history", *table);
  if (!load) {
    std::cerr << "error: " << load.error().to_string() << '\n';
    return 1;
  }
  if (!load->bad_rows.empty()) {
    std::cout << load->bad_rows.size() << " unparseable row(s):\n";
    for (const auto& fault : load->bad_rows) {
      std::cout << "  data row " << fault.row << ": " << fault.detail << '\n';
    }
  }

  ValidationOptions opts;
  opts.strict = args.has("strict");
  auto validated = validate_history(load->store, opts);
  if (!validated) {
    std::cerr << "error: " << validated.error().to_string() << '\n';
    return 1;
  }
  std::cout << validated->report.summary();
  if (args.has("report")) {
    csv_write_file(args.get("report"), validated->report.to_csv());
    std::cout << "wrote quarantine listing to " << args.get("report") << '\n';
  }
  if (args.has("out")) {
    csv_write_file(args.get("out"), validated->store.to_csv());
    std::cout << "wrote cleaned history ("<< validated->store.size()
              << " record(s)) to " << args.get("out") << '\n';
  }
  const std::size_t faults =
      load->bad_rows.size() + validated->report.num_quarantined();
  return faults > 0 ? 3 : 0;
}

int cmd_train(const Args& args) {
  std::vector<std::string> param_names;
  const TwoLevelModel model = train_from_history(args, &param_names);
  if (args.has("save")) {
    const std::string path = args.get("save");
    registry::write_model_archive(path, model, {}).value_or_throw();
    std::cout << "saved model to " << path << '\n';
    // Record the parameter schema next to the model so predict can check it.
    CsvTable schema;
    schema.header = param_names;
    csv_write_file(path + ".schema.csv", schema);
  }
  return 0;
}

int cmd_predict(const Args& args) {
  TwoLevelModel model;
  std::vector<std::string> param_names;
  if (args.has("model")) {
    // Model files sit at a trust boundary: a truncated or corrupt archive
    // (or a file in the retired text format) must come back as a clean
    // error message, not a crash.
    model = registry::load_model_any(args.get("model")).value_or_throw();
    // `train --save` writes the parameter names beside the model. A store
    // archive has no such sidecar; its parameters are p0..p{d-1}, the
    // names the ingest log gives store models.
    const std::string schema = args.get("model") + ".schema.csv";
    if (std::filesystem::exists(schema)) {
      param_names = csv_read_file(schema).header;
    } else {
      for (std::size_t d = 0; d < model.interpolation().num_features(); ++d) {
        param_names.push_back("p" + std::to_string(d));
      }
    }
    std::cout << "loaded model " << args.get("model") << " ("
              << model.extrapolation().num_clusters() << " cluster(s))\n";
  } else {
    model = train_from_history(args, &param_names);
  }
  const auto targets = model.extrapolation().target_scales();

  // Queries: a CSV whose columns are the history's parameter columns.
  const CsvTable queries = csv_read_file(args.get("queries"));
  std::vector<std::size_t> col_of(param_names.size());
  for (std::size_t d = 0; d < param_names.size(); ++d) {
    col_of[d] = queries.column(param_names[d]);
  }
  const bool uncertainty = args.has("uncertainty");

  CsvTable out;
  out.header = queries.header;
  for (const std::size_t p : targets) {
    out.header.push_back("t_p" + std::to_string(p));
    if (uncertainty) {
      out.header.push_back("t_p" + std::to_string(p) + "_lo");
      out.header.push_back("t_p" + std::to_string(p) + "_hi");
    }
  }
  for (const auto& row : queries.rows) {
    std::vector<double> params(param_names.size());
    for (std::size_t d = 0; d < params.size(); ++d) {
      params[d] = std::stod(row[col_of[d]]);
    }
    std::vector<std::string> out_row = row;
    if (uncertainty) {
      const auto intervals = model.predict_with_uncertainty(params);
      for (const auto& iv : intervals) {
        out_row.push_back(format_double(iv.value, 6));
        out_row.push_back(format_double(iv.lower, 6));
        out_row.push_back(format_double(iv.upper, 6));
      }
    } else {
      for (const double v : model.predict(params)) {
        out_row.push_back(format_double(v, 6));
      }
    }
    out.rows.push_back(std::move(out_row));
  }

  if (args.has("out")) {
    csv_write_file(args.get("out"), out);
    std::cout << "wrote " << out.rows.size() << " predictions to "
              << args.get("out") << '\n';
  } else {
    csv_write(std::cout, out);
  }
  return 0;
}

int cmd_registry(const std::string& action, const Args& args) {
  registry::Registry reg =
      registry::Registry::open(args.get("root")).value_or_throw();
  if (action == "ls") {
    const auto tenants = reg.list();
    if (tenants.empty()) {
      std::cout << "registry " << reg.root() << ": empty\n";
      return 0;
    }
    for (const auto& info : tenants) {
      std::cout << info.tenant << "  latest=" << info.latest
                << "  versions=" << info.versions.size()
                << "  bytes=" << info.bytes << '\n';
    }
    return 0;
  }
  if (action == "add") {
    const std::string tenant = args.get("tenant");
    const std::uint64_t version =
        reg.add_from_file(tenant, args.get("model")).value_or_throw();
    std::cout << "added " << tenant << " version " << version << " ("
              << reg.version_path(tenant, version) << ")\n";
    return 0;
  }
  if (action == "gc") {
    const std::size_t keep = args.get_size("keep", 1);
    const std::size_t removed = reg.gc(keep).value_or_throw();
    std::cout << "removed " << removed << " archive(s), keeping newest "
              << keep << " version(s) per tenant\n";
    return 0;
  }
  throw cli::UsageError("unknown registry action: " + action +
                        " (expected ls, add, or gc)");
}

int cmd_ingest(const Args& args) {
  // The offline face of the continuous-learning loop: append measured runs
  // to a tenant's append-only log, optionally retrain through the shadow
  // gate, or rebuild the promoted model bit-for-bit from the log alone.
  const std::string root = args.get("registry");
  const std::string tenant =
      args.has("tenant") ? args.get("tenant") : registry::kDefaultTenant;

  if (args.has("rebuild")) {
    // Replay is a pure function of the log: same log, same options -> the
    // same archive bytes at any --threads, byte-compared in CI.
    const std::string log_path =
        root + "/" + tenant + "/" + ingest::kLogFileName;
    const auto read = ingest::RunLog::read_file(log_path).value_or_throw();
    if (read.truncated_tail) {
      std::cerr << "ingest: log has a truncated tail record (ignored)\n";
    }
    if (read.malformed_lines > 0) {
      std::cerr << "ingest: " << read.malformed_lines
                << " malformed log line(s) skipped\n";
    }
    ingest::RetrainOptions ropts;
    ropts.threads = args.get_size("threads", 0);
    const auto replay =
        ingest::replay_log(read.entries, tenant, ropts).value_or_throw();
    registry::ArchiveMeta meta;
    meta.tenant = tenant;
    meta.version = replay.version;
    registry::write_model_archive(args.get("rebuild"), replay.model, meta)
        .value_or_throw();
    std::cout << "rebuilt " << tenant << " version " << replay.version
              << " from " << log_path << " (" << replay.promotions
              << " promotion(s), " << replay.rejections
              << " rejection(s)) -> " << args.get("rebuild") << '\n';
    return 0;
  }

  registry::Registry reg = registry::Registry::open(root).value_or_throw();
  registry::ModelPool pool(std::move(reg), {});
  ingest::IngestScheduler scheduler(pool, {});

  if (args.has("history")) {
    const HistoryLoad load =
        load_history_csv("history", csv_read_file(args.get("history")))
            .value_or_throw();
    if (!load.bad_rows.empty()) {
      std::cout << "skipped " << load.bad_rows.size()
                << " unparseable row(s)\n";
    }
    std::uint64_t appended = 0;
    for (const ExecutionRecord& record : load.store.records()) {
      appended = scheduler.append(tenant, record).value_or_throw();
    }
    std::cout << "appended " << appended << " run record(s) to tenant "
              << tenant << '\n';
  }

  if (args.has("retrain")) {
    const ingest::ShadowOutcome outcome =
        scheduler.retrain_now(tenant).value_or_throw();
    std::cout << "retrain " << tenant << ": verdict="
              << outcome.marker.verdict
              << " records=" << outcome.marker.records
              << " holdout_scale=" << outcome.marker.holdout_scale
              << " candidate_mape="
              << format_double(outcome.marker.candidate_mape, 4)
              << " incumbent_mape="
              << format_double(outcome.marker.incumbent_mape, 4)
              << " quarantined=" << outcome.quarantined
              << " warm_scales=" << outcome.warm_scales;
    if (outcome.promoted) {
      std::cout << " -> promoted as version " << outcome.marker.version;
    } else {
      std::cout << " -> incumbent keeps serving";
    }
    std::cout << '\n';
    return outcome.promoted ? 0 : 3;
  }

  if (!args.has("history")) {
    throw cli::UsageError(
        "ingest expects --history FILE, --retrain, or --rebuild OUT");
  }
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ServeOptions opts;
  opts.threads = args.get_size("threads", 0);
  opts.batch_max = args.get_size("batch-max", 32);
  opts.cache_entries = args.get_size("cache-entries", 4096);
  opts.cache_shards = args.get_size("cache-shards", 8);
  opts.max_line_bytes = args.get_size("max-line-bytes", 1 << 20);
  opts.max_pending = args.get_size("max-pending", 256);
  opts.request_deadline_ms = args.get_size("deadline-ms", 0);
  opts.max_resident_models = args.get_size("max-resident", 4);
  opts.max_resident_bytes = args.get_size("resident-bytes", 0);
  opts.retrain_records = args.get_size("retrain-records", 0);
  if (args.has("port") && args.has("stdio")) {
    throw cli::UsageError("--port and --stdio are mutually exclusive");
  }
  const std::string root = args.get("registry");

  // A peer that disconnects mid-response must surface as a write error on
  // our side, never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  serve::FaultInjector* faults = serve::process_faults();
  if (faults != nullptr) {
    std::cerr << "serve: FAULT INJECTION ACTIVE (HPCP_SERVE_FAULTS, seed="
              << faults->spec().seed << ")\n";
    // Always virtualize the clock under chaos, not just when clock_skip
    // is set: health/stats report uptime_ms, and the chaos harness cmp's
    // two same-seed runs byte-for-byte — wall time must not leak in. With
    // clock_skip=0 the injected clock is a pure +1ms-per-read counter
    // (roll(0) consumes no RNG state, so transport fault decisions are
    // unchanged).
    opts.clock_ms = serve::make_skipping_clock(faults);
  }

  serve::Server server(opts);
  // Diagnostics go to stderr: in stdio mode stdout carries only protocol
  // response lines, so replayed sessions can be compared byte-for-byte.
  server.attach_registry(root).value_or_throw();
  std::cerr << "serve: registry " << root << " ("
            << server.model_pool()->registry().list().size()
            << " tenant(s), max_resident=" << opts.max_resident_models
            << ", resident_bytes="
            << (opts.max_resident_bytes > 0
                    ? std::to_string(opts.max_resident_bytes)
                    : std::string("unlimited"))
            << ", threads=" << opts.threads
            << ", batch_max=" << opts.batch_max
            << ", cache_entries=" << opts.cache_entries
            << ", max_pending=" << opts.max_pending << ")\n";
  std::signal(SIGHUP,
              [](int) { serve::reload_flag().store(true); });

  if (args.has("port")) {
    const std::size_t port = args.get_size("port", 0);
    if (port > 65535) {
      throw cli::UsageError("--port expects a value in [0, 65535]");
    }
    serve::TcpOptions tcp_opts;
    // Daemon sockets default to a finite idle deadline so one stalled
    // client cannot pin a connection slot forever; --io-timeout-ms 0
    // explicitly restores "block forever".
    const std::size_t io_timeout = args.get_size("io-timeout-ms", 30000);
    tcp_opts.io_timeout_ms =
        io_timeout > 0 ? static_cast<int>(io_timeout) : -1;
    tcp_opts.max_connections = args.get_size("max-conns", 256);
    std::ofstream seq_log;
    if (args.has("seq-log")) {
      seq_log.open(args.get("seq-log"));
      if (!seq_log) {
        throw cli::UsageError("cannot open --seq-log file " +
                              args.get("seq-log"));
      }
      tcp_opts.seq_log = &seq_log;
    }
    if (args.has("admin-port")) {
      const std::size_t admin_port = args.get_size("admin-port", 0);
      if (admin_port > 65535) {
        throw cli::UsageError("--admin-port expects a value in [0, 65535]");
      }
      tcp_opts.admin_port = static_cast<int>(admin_port);
      // A scrape plane without metrics is an empty page; asking for the
      // admin port is asking for the registry.
      obs::set_metrics_enabled(true);
    }
    tcp_opts.faults = faults;
    serve::run_tcp_server(server, static_cast<std::uint16_t>(port),
                          std::cerr, tcp_opts)
        .value_or_throw();
    return 0;
  }
  if (faults != nullptr) {
    serve::ChaosStreambuf chaos(std::cin.rdbuf(), faults);
    std::istream chaotic(&chaos);
    server.run(chaotic, std::cout);
    if (chaos.disconnected()) {
      std::cerr << "serve: injected disconnect ended the session\n";
    }
    return 0;
  }
  server.run(std::cin, std::cout);
  return 0;
}

int cmd_evaluate(const Args& args) {
  ExperimentConfig config;
  config.app_name = args.get("app");
  config.num_train = args.get_size("configs", 300);
  config.num_test = args.get_size("test-configs", 48);
  config.seed = args.get_size("seed", 2020);
  if (args.has("scales")) config.small_scales = parse_scales(args.get("scales"));
  if (args.has("targets")) config.target_scales = parse_scales(args.get("targets"));

  const Experiment exp = make_experiment(config);
  auto paper = make_paper_model();
  auto baselines = make_baseline_suite();
  std::vector<ExtrapolationModel*> models{paper.get()};
  for (const auto& b : baselines) models.push_back(b.get());
  Rng rng(7);
  const auto report = evaluate_models(models, exp.problem, exp.test, rng);

  std::vector<std::string> header{"model"};
  for (const std::size_t p : report.target_scales) {
    header.push_back("p=" + std::to_string(p));
  }
  header.push_back("overall");
  TextTable table(std::move(header));
  for (const auto& m : report.models) {
    std::vector<double> row = m.mape;
    row.push_back(m.overall_mape);
    table.add_row_numeric(m.model, row);
  }
  print_section(std::cout, config.app_name + " — extrapolation MAPE (%)");
  table.print(std::cout);
  return 0;
}

void print_usage() {
  std::cout <<
      "usage: hpcpredict_cli "
      "<generate|train|predict|evaluate|validate|serve|ingest> [--flags]\n"
      "  generate --app NAME --out FILE [--configs N] [--scales 1,2,4,8,16]\n"
      "           [--runs-per-point N] [--seed S]\n"
      "  train    --history FILE --targets P1,P2,... [--save FILE.hpcp]\n"
      "           [--seed S] [--max-bins N] [--threads N]   (alias: fit)\n"
      "  predict  (--model FILE.hpcp | --history FILE --targets P1,P2,...)\n"
      "           --queries FILE [--out FILE] [--uncertainty] [--seed S]\n"
      "           [--max-bins N] [--threads N]\n"
      "           query columns: the names in FILE.hpcp.schema.csv, or\n"
      "           p0,p1,... for a model without one (a store archive)\n"
      "  evaluate --app NAME [--configs N] [--test-configs N]\n"
      "           [--scales ...] [--targets ...] [--seed S]\n"
      "  validate --history FILE [--strict] [--out CLEAN_FILE]\n"
      "           [--report QUARANTINE_FILE]\n"
      "  serve    --registry DIR [--port N | --stdio]\n"
      "           [--max-resident N] [--resident-bytes N] [--threads N]\n"
      "           [--batch-max N] [--cache-entries N] [--cache-shards N]\n"
      "           [--max-line-bytes N] [--max-pending N] [--deadline-ms N]\n"
      "           [--io-timeout-ms N (default 30000; 0 = no deadline)]\n"
      "           [--max-conns N] [--seq-log FILE]\n"
      "           [--admin-port N (HTTP /metrics /healthz /statsz)]\n"
      "           [--retrain-records N]\n"
      "           (env HPCP_SERVE_FAULTS=chaos spec)\n"
      "  ingest   --registry DIR [--tenant NAME] (--history FILE |\n"
      "           --retrain | --rebuild OUT [--threads N])\n"
      "           appends runs to the tenant's run log, retrains through\n"
      "           the shadow gate (exit 3 = rejected), or rebuilds the\n"
      "           promoted model bit-for-bit from the log\n"
      "  registry ls  --root DIR\n"
      "  registry add --root DIR --tenant NAME --model FILE.hpcp\n"
      "  registry gc  --root DIR [--keep N (default 1)]\n"
      "observability (all commands):\n"
      "  [--trace FILE] [--metrics-out FILE] [--metrics-text FILE]\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  std::string command = argv[1];
  if (command == "fit") command = "train";
  // Nothing may escape main: a malformed command line (unknown command or
  // option, missing value) prints the usage text and exits 2; any other
  // exception (including data errors on the non-validate paths) becomes
  // exit code 1 with a one-line message.
  try {
    if (command == "registry") {
      // The action (ls|add|gc) is a positional, which Args rejects by
      // design; peel it before parsing the --flags.
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        throw cli::UsageError("registry expects an action: ls, add, or gc");
      }
      const std::string action = argv[2];
      const cli::FlagSpec spec = cli::spec_for(command);
      const Args args(spec,
                      std::vector<std::string>(argv + 3, argv + argc));
      const cli::ObsSession obs_session(args);
      return cmd_registry(action, args);
    }
    if (command == "serve" &&
        std::find(argv + 2, argv + argc, std::string("--model")) !=
            argv + argc) {
      throw cli::UsageError(
          "serve --model was removed: publish the file with `hpcpredict_cli "
          "registry add --root DIR --tenant default --model FILE`, then "
          "serve it with `serve --registry DIR`");
    }
    const cli::FlagSpec spec = cli::spec_for(command);
    const Args args(spec, std::vector<std::string>(argv + 2, argv + argc));
    const cli::ObsSession obs_session(args);
    if (command == "generate") return cmd_generate(args);
    if (command == "train") return cmd_train(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "ingest") return cmd_ingest(args);
    return cmd_validate(args);
  } catch (const cli::UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
