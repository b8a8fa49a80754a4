/// The continuous-learning loop, bottom up: the append-only run log
/// (canonical rendering, crash-truncated tails, malformed lines), the
/// deterministic retrain pipeline (quarantine tolerance, thread-count
/// invariance, warm-started refits), and the shadow-gated scheduler (a
/// losing candidate is rejected and the incumbent keeps serving
/// byte-identically; a winning candidate is promoted, annotated, and —
/// the load-bearing contract — reproducible bit-for-bit from the log
/// alone at any thread count, matching the archive the live path
/// published).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/ingest/pipeline.hpp"
#include "src/ingest/run_log.hpp"
#include "src/ingest/scheduler.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/archive.hpp"
#include "src/registry/registry.hpp"
#include "src/registry/residency.hpp"
#include "src/serve/server.hpp"

namespace hpcp::ingest {
namespace {

struct Fixture {
  Experiment exp;
  TwoLevelModel strong;  ///< fit on every small scale (sees the holdout)
  TwoLevelModel weak;    ///< root-only single-tree forests: near-constant
                         ///< level-1 curves, reliably loses the shadow gate
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* out = new Fixture;
    ExperimentConfig cfg;
    cfg.app_name = "minimd";
    cfg.num_train = 60;
    cfg.num_test = 6;
    cfg.seed = 404;
    out->exp = make_experiment(cfg);
    Rng strong_rng(7);
    out->strong.fit(out->exp.problem, strong_rng);
    TwoLevelOptions weak_opts;
    weak_opts.forest.num_trees = 1;
    weak_opts.forest.tree.min_samples_leaf = 1u << 20;  // root-only trees
    weak_opts.forest.compute_oob = false;
    out->weak = TwoLevelModel(weak_opts);
    Rng weak_rng(8);
    out->weak.fit(out->exp.problem, weak_rng);
    return out;
  }();
  return *f;
}

/// A fresh store rooted under the test temp dir with `incumbent`
/// published as version 1 of the default tenant.
std::string make_store(const std::string& name,
                       const TwoLevelModel& incumbent) {
  const std::string root = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(root);
  auto reg = registry::Registry::open(root).value_or_throw();
  (void)reg.add_model(registry::kDefaultTenant, incumbent).value_or_throw();
  return root;
}

std::uint64_t append_history(IngestScheduler& scheduler,
                             std::size_t limit = SIZE_MAX) {
  std::uint64_t appended = 0;
  std::size_t n = 0;
  for (const ExecutionRecord& rec : fixture().exp.history.records()) {
    if (n++ >= limit) break;
    appended =
        scheduler.append(registry::kDefaultTenant, rec).value_or_throw();
  }
  return appended;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- run log -------------------------------------------------------------

TEST(IngestRunLog, RenderParseRoundTrip) {
  LogEntry config;
  config.kind = LogEntry::Kind::kConfig;
  config.config.param_names = {"atoms", "cutoff"};
  config.config.target_scales = {64, 256, 1024};

  LogEntry run;
  run.kind = LogEntry::Kind::kRun;
  run.run = ExecutionRecord{{1.5, -2.25}, 32, 12.0625, 7};

  LogEntry promote;
  promote.kind = LogEntry::Kind::kPromote;
  promote.promote =
      PromoteRecord{240, 2, "promoted", 16, 0.0625, 0.125};

  std::string text;
  for (const LogEntry* e : {&config, &run, &promote}) {
    text += render_entry(*e);
    text += '\n';
  }
  const LogReadResult parsed = parse_log(text);
  ASSERT_EQ(parsed.entries.size(), 3u);
  EXPECT_EQ(parsed.malformed_lines, 0u);
  EXPECT_FALSE(parsed.truncated_tail);
  // Canonical rendering is a fixed point: render(parse(render(x))) is
  // byte-identical, which is what replay identity leans on.
  std::string round;
  for (const LogEntry& e : parsed.entries) {
    round += render_entry(e);
    round += '\n';
  }
  EXPECT_EQ(round, text);
  EXPECT_EQ(parsed.entries[0].config.param_names, config.config.param_names);
  EXPECT_EQ(parsed.entries[1].run.run_id, 7u);
  EXPECT_EQ(parsed.entries[2].promote.verdict, "promoted");
  EXPECT_EQ(parsed.entries[2].promote.version, 2u);
}

TEST(IngestRunLog, MalformedAndTruncatedLinesAreCountedNotFatal) {
  LogEntry run;
  run.kind = LogEntry::Kind::kRun;
  run.run = ExecutionRecord{{1.0}, 4, 3.5, 1};
  std::string text = render_entry(run) + "\n";
  text += "not json at all\n";
  text += "{\"schema\":\"wrong/9\",\"type\":\"run\"}\n";
  run.run.run_id = 2;
  text += render_entry(run) + "\n";
  text += "{\"schema\":\"hpcp-ingest/1\",\"type\":\"run\",\"run_id\":3";
  // no closing brace, no newline: a crash-torn tail

  const LogReadResult parsed = parse_log(text);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.malformed_lines, 2u);
  EXPECT_TRUE(parsed.truncated_tail);
  EXPECT_EQ(parsed.entries[1].run.run_id, 2u);
}

TEST(IngestRunLog, AppendThenTruncateRecoversPrefix) {
  const std::string root = ::testing::TempDir() + "/ingest_trunc";
  std::filesystem::remove_all(root);
  auto log = RunLog::open(root, "default").value_or_throw();
  LogEntry entry;
  entry.kind = LogEntry::Kind::kRun;
  for (std::uint64_t i = 0; i < 5; ++i) {
    entry.run = ExecutionRecord{{1.0, 2.0}, 8, 10.0 + double(i), i};
    ASSERT_TRUE(log.append(entry).has_value());
  }
  const std::string path = RunLog::log_path(root, "default");
  const auto full = RunLog::read_file(path).value_or_throw();
  ASSERT_EQ(full.entries.size(), 5u);

  // A crash mid-append can only tear the tail line; the reader must hand
  // back the intact prefix and flag the tail, never fail.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  const auto torn = RunLog::read_file(path).value_or_throw();
  EXPECT_EQ(torn.entries.size(), 4u);
  EXPECT_TRUE(torn.truncated_tail);
  EXPECT_EQ(torn.entries.back().run.run_id, 3u);
}

// --- pipeline ------------------------------------------------------------

/// Log entries built from the experiment history: one config record (the
/// parameter names the fit will use) followed by every run record.
std::vector<LogEntry> history_entries() {
  const auto& exp = fixture().exp;
  std::vector<LogEntry> entries;
  LogEntry config;
  config.kind = LogEntry::Kind::kConfig;
  for (std::size_t d = 0; d < exp.problem.train_configs.cols(); ++d) {
    config.config.param_names.push_back("p" + std::to_string(d));
  }
  config.config.target_scales = exp.problem.target_scales;
  entries.push_back(config);
  for (const ExecutionRecord& rec : exp.history.records()) {
    LogEntry run;
    run.kind = LogEntry::Kind::kRun;
    run.run = rec;
    entries.push_back(run);
  }
  return entries;
}

TEST(IngestPipeline, QuarantineAbsorbsBadAndDuplicateRecords) {
  std::vector<LogEntry> entries = history_entries();
  // Semantically poisoned but representable: the log keeps them, the
  // validation layer must quarantine them without failing the fit.
  LogEntry bad;
  bad.kind = LogEntry::Kind::kRun;
  bad.run = ExecutionRecord{entries[1].run.params, entries[1].run.nprocs,
                            -1.0, 900001};
  entries.push_back(bad);
  bad.run.runtime = 0.0;
  bad.run.run_id = 900002;
  entries.push_back(bad);
  bad.run = entries[1].run;  // exact duplicate, same run_id
  entries.push_back(bad);

  const RetrainOptions opts;
  const auto fit =
      fit_candidate(entries, SIZE_MAX, "default", nullptr, opts)
          .value_or_throw();
  EXPECT_GE(fit.quarantined, 3u);
  EXPECT_GT(fit.holdout_scale, 0u);
  EXPECT_GT(fit.holdout_times.size(), 0u);
  EXPECT_EQ(fit.warm_scales, 0u);
}

TEST(IngestPipeline, FitIsThreadCountInvariant) {
  const std::vector<LogEntry> entries = history_entries();
  RetrainOptions opts;
  opts.threads = 1;
  const auto t1 = fit_candidate(entries, SIZE_MAX, "default", nullptr, opts)
                      .value_or_throw();
  opts.threads = 4;
  const auto t4 = fit_candidate(entries, SIZE_MAX, "default", nullptr, opts)
                      .value_or_throw();
  const std::string dir = ::testing::TempDir();
  const registry::ArchiveMeta meta{"default", 1};
  ASSERT_TRUE(registry::write_model_archive(dir + "/fit_t1.hpcp", t1.model,
                                            meta)
                  .has_value());
  ASSERT_TRUE(registry::write_model_archive(dir + "/fit_t4.hpcp", t4.model,
                                            meta)
                  .has_value());
  EXPECT_EQ(read_bytes(dir + "/fit_t1.hpcp"), read_bytes(dir + "/fit_t4.hpcp"))
      << "candidate fit must be bitwise identical at every thread count";
}

TEST(IngestPipeline, WarmFitReusesStructureAndStaysDeterministic) {
  const std::vector<LogEntry> entries = history_entries();
  RetrainOptions opts;
  opts.threads = 1;
  const auto cold = fit_candidate(entries, SIZE_MAX, "default", nullptr, opts)
                        .value_or_throw();
  const auto warm1 =
      fit_candidate(entries, SIZE_MAX, "default", &cold.model, opts)
          .value_or_throw();
  EXPECT_GT(warm1.warm_scales, 0u)
      << "a structurally compatible prior must take the warm path";
  opts.threads = 4;
  const auto warm4 =
      fit_candidate(entries, SIZE_MAX, "default", &cold.model, opts)
          .value_or_throw();
  const std::string dir = ::testing::TempDir();
  const registry::ArchiveMeta meta{"default", 2};
  ASSERT_TRUE(registry::write_model_archive(dir + "/warm_t1.hpcp",
                                            warm1.model, meta)
                  .has_value());
  ASSERT_TRUE(registry::write_model_archive(dir + "/warm_t4.hpcp",
                                            warm4.model, meta)
                  .has_value());
  EXPECT_EQ(read_bytes(dir + "/warm_t1.hpcp"),
            read_bytes(dir + "/warm_t4.hpcp"));
}

// --- scheduler + shadow gate --------------------------------------------

TEST(IngestScheduler, UnknownTenantCannotIngest) {
  const std::string root = make_store("ingest_unknown", fixture().strong);
  auto reg = registry::Registry::open(root).value_or_throw();
  registry::ModelPool pool(std::move(reg), {});
  IngestScheduler scheduler(pool, {});
  const auto result =
      scheduler.append("ghost", fixture().exp.history.records().front());
  ASSERT_FALSE(result.has_value());
}

TEST(IngestScheduler, LosingCandidateIsRejectedAndIncumbentKeepsServing) {
  // The strong incumbent trained on every small scale — including the
  // scale the candidate must hold out — so the candidate loses the shadow
  // comparison. The gate must keep the incumbent, publish nothing, and
  // leave predict bytes untouched. Driven fully in-protocol.
  const std::string root = make_store("ingest_reject", fixture().strong);
  serve::ServeOptions opts;
  serve::Server server(opts);
  server.attach_registry(root).value_or_throw();

  const auto row = fixture().exp.test.configs.row(0);
  std::string predict = "{\"id\":1,\"params\":[";
  for (std::size_t d = 0; d < row.size(); ++d) {
    if (d > 0) predict += ',';
    obs::json_number_into(predict, row[d]);
  }
  predict += "],\"scales\":[64,256]}";
  const std::string before = server.handle_line(predict);
  ASSERT_NE(before.find("\"ok\":true"), std::string::npos) << before;

  for (const ExecutionRecord& rec : fixture().exp.history.records()) {
    std::string line = "{\"cmd\":\"ingest\",\"run_id\":" +
                       std::to_string(rec.run_id) + ",\"params\":[";
    for (std::size_t d = 0; d < rec.params.size(); ++d) {
      if (d > 0) line += ',';
      obs::json_number_into(line, rec.params[d]);
    }
    line += "],\"nprocs\":" + std::to_string(rec.nprocs) + ",\"runtime\":";
    obs::json_number_into(line, rec.runtime);
    line += '}';
    const std::string ack = server.handle_line(line);
    ASSERT_NE(ack.find("\"ok\":true,\"cmd\":\"ingest\""), std::string::npos)
        << ack;
  }

  const std::string verdict = server.handle_line("{\"cmd\":\"retrain\"}");
  EXPECT_NE(verdict.find("\"verdict\":\"rejected\""), std::string::npos)
      << verdict;
  EXPECT_NE(verdict.find("\"promoted\":false"), std::string::npos) << verdict;

  const std::string after = server.handle_line(predict);
  EXPECT_EQ(after, before)
      << "a rejected candidate must not perturb serving bytes";
  auto reg = registry::Registry::open(root).value_or_throw();
  EXPECT_EQ(reg.latest_version(registry::kDefaultTenant), 1u)
      << "rejection must not publish a new version";
}

TEST(IngestScheduler, DegenerateLogNeverPromotes) {
  // All records at one scale: leave-largest-scale-out has nothing left to
  // train on. The attempt must degrade to a verdict, not promote and not
  // disturb the incumbent.
  const std::string root = make_store("ingest_degenerate", fixture().strong);
  auto reg = registry::Registry::open(root).value_or_throw();
  registry::ModelPool pool(std::move(reg), {});
  IngestScheduler scheduler(pool, {});
  const std::size_t lone_scale =
      fixture().exp.history.records().front().nprocs;
  for (const ExecutionRecord& rec : fixture().exp.history.records()) {
    if (rec.nprocs != lone_scale) continue;
    (void)scheduler.append(registry::kDefaultTenant, rec).value_or_throw();
  }
  const auto outcome =
      scheduler.retrain_now(registry::kDefaultTenant).value_or_throw();
  EXPECT_FALSE(outcome.promoted);
  EXPECT_EQ(outcome.marker.verdict, "insufficient-data");
  EXPECT_EQ(outcome.marker.version, 0u);
  EXPECT_EQ(pool.registry().latest_version(registry::kDefaultTenant), 1u);
}

TEST(IngestScheduler, PromotionIsReplayableByteIdenticallyFromTheLog) {
  // The weak incumbent loses to a candidate trained on real history, so
  // the gate promotes version 2. The promoted archive must then be
  // reconstructible from the log alone — same bytes at thread counts 1
  // and 4, and the same bytes the live path published.
  const std::string root = make_store("ingest_promote", fixture().weak);
  auto reg = registry::Registry::open(root).value_or_throw();
  registry::ModelPool pool(std::move(reg), {});
  IngestScheduler scheduler(pool, {});
  (void)append_history(scheduler);

  const auto outcome =
      scheduler.retrain_now(registry::kDefaultTenant).value_or_throw();
  ASSERT_TRUE(outcome.promoted)
      << "verdict: " << outcome.marker.verdict
      << " candidate_mape=" << outcome.marker.candidate_mape
      << " incumbent_mape=" << outcome.marker.incumbent_mape;
  EXPECT_EQ(outcome.marker.verdict, "promoted");
  EXPECT_EQ(outcome.marker.version, 2u);
  EXPECT_LT(outcome.marker.candidate_mape, outcome.marker.incumbent_mape);
  EXPECT_EQ(pool.registry().latest_version(registry::kDefaultTenant), 2u);
  const auto resident = pool.acquire(registry::kDefaultTenant);
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ((*resident)->version, 2u)
      << "promotion must epoch-swap the resident model";
  const auto* notes = pool.registry().annotations(registry::kDefaultTenant);
  ASSERT_NE(notes, nullptr);
  EXPECT_EQ(notes->at("shadow_verdict"), "promoted");

  const auto log =
      RunLog::read_file(RunLog::log_path(root, registry::kDefaultTenant))
          .value_or_throw();
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.malformed_lines, 0u);

  const std::string dir = ::testing::TempDir();
  std::vector<std::string> replays;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RetrainOptions opts;
    opts.threads = threads;
    const auto replay =
        replay_log(log.entries, registry::kDefaultTenant, opts)
            .value_or_throw();
    EXPECT_EQ(replay.version, 2u);
    EXPECT_EQ(replay.promotions, 1u);
    const std::string path =
        dir + "/replay_t" + std::to_string(threads) + ".hpcp";
    ASSERT_TRUE(registry::write_model_archive(
                    path, replay.model,
                    registry::ArchiveMeta{registry::kDefaultTenant,
                                          replay.version})
                    .has_value());
    replays.push_back(read_bytes(path));
  }
  ASSERT_EQ(replays.size(), 2u);
  EXPECT_EQ(replays[0], replays[1])
      << "log replay must be thread-count invariant";
  const std::string published = read_bytes(
      pool.registry().version_path(registry::kDefaultTenant, 2));
  EXPECT_EQ(replays[0], published)
      << "log replay must reproduce the archive the live path published";
}

TEST(IngestScheduler, ThresholdTriggerRetrainsInBackgroundViaPump) {
  const std::string root = make_store("ingest_bg", fixture().weak);
  auto reg = registry::Registry::open(root).value_or_throw();
  registry::ModelPool pool(std::move(reg), {});
  SchedulerOptions opts;
  opts.retrain_records = 40;
  IngestScheduler scheduler(pool, opts);
  (void)append_history(scheduler, 64);

  // The first due pump starts (at most) one background fit; later pumps
  // complete it. The serving loop never blocks on the fit itself.
  std::vector<std::string> promoted = scheduler.pump();
  EXPECT_TRUE(promoted.empty());
  EXPECT_LE(scheduler.totals().in_flight, 1u);
  for (int i = 0; i < 4000 && promoted.empty(); ++i) {
    promoted = scheduler.pump();
    if (promoted.empty() && scheduler.busy()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(promoted.size(), 1u) << "background retrain never completed";
  EXPECT_EQ(promoted[0], registry::kDefaultTenant);
  EXPECT_EQ(pool.registry().latest_version(registry::kDefaultTenant), 2u);
  const auto stats = scheduler.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.promotions, 1u);
  EXPECT_FALSE(stats[0].second.in_flight);
}

}  // namespace
}  // namespace hpcp::ingest
