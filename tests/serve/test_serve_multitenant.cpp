/// Multi-tenant serving determinism: an interleaved request stream over
/// three tenants, served by one server under a resident-model budget
/// smaller than the tenant count, must be byte-identical to serving each
/// tenant on its own one-tenant server — residency (evictions, cold
/// reloads) and cross-tenant batching must be invisible in the bytes.
/// Also the replay contract (worker count, cache config, batch bound, LRU
/// budget all leak-free) and per-tenant blast radius: a corrupt tenant
/// archive degrades that tenant only.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/two_level_model.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/registry.hpp"
#include "src/serve/server.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

constexpr const char* kTenants[] = {"default", "beta", "gamma"};

struct Fixture {
  std::string registry_root;
  std::map<std::string, TwoLevelModel> models;
  Experiment exp;  ///< shared problem shape: every tenant takes these rows
};

/// Three distinct models (same feature width, different fits) published
/// as version 1 of three tenants in one on-disk store.
const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* out = new Fixture;
    std::uint64_t seed = 300;
    for (const char* tenant : kTenants) {
      ExperimentConfig cfg;
      cfg.app_name = "minimd";
      cfg.num_train = 50;
      cfg.num_test = 8;
      cfg.seed = static_cast<unsigned>(seed++);
      Experiment exp = make_experiment(cfg);
      TwoLevelModel model;
      Rng rng(seed);
      model.fit(exp.problem, rng);
      out->models.emplace(tenant, std::move(model));
      if (std::string(tenant) == "default") out->exp = std::move(exp);
    }
    fixture::TenantModels tenants;
    for (const char* tenant : kTenants) {
      tenants.emplace_back(tenant, &out->models.at(tenant));
    }
    out->registry_root = fixture::write_store(tenants);
    return out;
  }();
  return *f;
}

std::unique_ptr<Server> registry_server(ServeOptions opts = {}) {
  return fixture::attach(fixture().registry_root, opts);
}

/// One request of the interleaved stream. `tenant` "" means the "model"
/// field is omitted (the implicit default route); `control` lines carry
/// raw JSON and are excluded from the per-tenant comparison.
struct Item {
  std::size_t id = 0;
  std::size_t config = 0;       ///< test-config row index
  std::string tenant;           ///< routing tag ("" = implicit default)
  std::string scales;           ///< scales JSON ("" = model defaults)
  std::string control;          ///< non-empty: verbatim control line
};

/// Renders `item` as a request line; `with_model` controls whether the
/// "model" routing field is emitted (the one-tenant reference servers
/// must see the identical line minus routing).
std::string render_line(const Item& item, bool with_model) {
  if (!item.control.empty()) return item.control;
  const auto& test = fixture().exp.test;
  const auto row = test.configs.row(item.config % test.size());
  std::string line = "{\"id\":" + std::to_string(item.id);
  if (with_model && !item.tenant.empty()) {
    line += ",\"model\":\"" + item.tenant + "\"";
  }
  line += ",\"params\":[";
  for (std::size_t d = 0; d < row.size(); ++d) {
    if (d > 0) line += ',';
    obs::json_number_into(line, row[d]);
  }
  line += ']';
  if (!item.scales.empty()) line += ",\"scales\":" + item.scales;
  line += '}';
  return line;
}

/// Round-robin over tenants (explicit "default", implicit default, beta,
/// gamma), repeats for cache hits, identical params across tenants (the
/// keyed-isolation trap), varying scales, one mid-stream tenant reload.
std::vector<Item> interleaved_items() {
  std::vector<Item> items;
  for (std::size_t i = 0; i < 180; ++i) {
    Item item;
    item.id = i;
    item.config = i;
    switch (i % 9) {
      case 0: item.tenant = "default"; item.scales = "[64,256]"; break;
      case 1: item.tenant = "beta"; item.scales = "[64,256]"; break;
      case 2: item.tenant = "gamma"; item.scales = "[64,256]"; break;
      case 3: item.tenant = ""; item.scales = "[64,256]"; break;
      // Same params row across tenants: keyed isolation, not clear(),
      // must keep these from cross-hitting in the prediction cache.
      case 4: item.tenant = "beta"; item.config = 0; item.scales = "[64,256]"; break;
      case 5: item.tenant = "gamma"; item.config = 0; item.scales = "[64,256]"; break;
      case 6: item.tenant = "beta"; break;  // default scales
      case 7: item.tenant = "gamma"; item.scales = "[128]"; break;
      case 8:
        if (i == 89) {
          item.control = R"({"cmd":"reload","tenant":"beta"})";
        } else {
          item.tenant = "default";
        }
        break;
    }
    items.push_back(std::move(item));
  }
  return items;
}

std::string replay_text(const std::vector<Item>& items, bool with_model) {
  std::string replay;
  for (const Item& item : items) {
    replay += render_line(item, with_model);
    replay += '\n';
  }
  return replay;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string run_stream(Server& server, const std::string& replay) {
  std::istringstream in(replay);
  std::ostringstream out;
  (void)server.run(in, out);
  return out.str();
}

/// True when `item` routes to `tenant` (implicit default included).
bool routes_to(const Item& item, const std::string& tenant) {
  if (!item.control.empty()) return false;
  return item.tenant == tenant ||
         (item.tenant.empty() && tenant == "default");
}

TEST(ServeMultitenant, InterleavedStreamMatchesSingleModelServersByteForByte) {
  const std::vector<Item> items = interleaved_items();
  // LRU budget 2 < 3 tenants: every round-robin pass forces evictions
  // and cold reloads, none of which may show in the bytes.
  const auto server =
      registry_server({.threads = 2, .max_resident_models = 2});
  const std::vector<std::string> got =
      split_lines(run_stream(*server, replay_text(items, true)));
  ASSERT_EQ(got.size(), items.size());

  for (const char* tenant : kTenants) {
    // The one-tenant reference: the identical lines minus the "model"
    // routing field, against a store holding that tenant's model alone
    // as "default", fresh cache.
    const auto single = fixture::make_server(
        {{registry::kDefaultTenant, &fixture().models.at(tenant)}},
        {.threads = 2});
    std::size_t compared = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!routes_to(items[i], tenant)) continue;
      const std::string expect =
          single->handle_line(render_line(items[i], false));
      EXPECT_EQ(got[i], expect)
          << "tenant " << tenant << " line " << i
          << " diverged from its one-tenant server";
      ++compared;
    }
    EXPECT_GT(compared, 30u) << tenant;
  }

  // The mid-stream reload acked with the tenant's (unchanged) version.
  const std::string& reload_ack = got[89];
  EXPECT_NE(reload_ack.find("\"cmd\":\"reload\""), std::string::npos);
  EXPECT_NE(reload_ack.find("\"tenant\":\"beta\""), std::string::npos);
  EXPECT_NE(reload_ack.find("\"model_version\":1"), std::string::npos);
}

TEST(ServeMultitenant, ReplayIsBitwiseIdenticalAcrossServingConfigs) {
  const std::vector<Item> items = interleaved_items();
  const std::string replay = replay_text(items, true);
  const auto run_with = [&replay](ServeOptions opts) {
    const auto server = registry_server(opts);
    return run_stream(*server, replay);
  };

  const std::string reference =
      run_with({.threads = 1, .max_resident_models = 2});
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run_with({.threads = 4, .max_resident_models = 2}), reference)
      << "worker count leaked";
  EXPECT_EQ(run_with({.threads = 4, .max_resident_models = 8}), reference)
      << "LRU residency budget leaked";
  EXPECT_EQ(run_with({.threads = 2, .max_resident_models = 1,
                      .max_resident_bytes = 1}),
            reference)
      << "byte budget thrash leaked";
  EXPECT_EQ(run_with({.threads = 4, .cache_entries = 0,
                      .max_resident_models = 2}),
            reference)
      << "cache on/off leaked";
  EXPECT_EQ(run_with({.threads = 2, .cache_entries = 5, .cache_shards = 2,
                      .max_resident_models = 2}),
            reference)
      << "cache eviction leaked";
  EXPECT_EQ(run_with({.threads = 4, .batch_max = 1,
                      .max_resident_models = 2}),
            reference)
      << "batching leaked";
  EXPECT_EQ(run_with({.threads = 4, .batch_max = 512,
                      .max_resident_models = 2}),
            reference)
      << "batching leaked";
}

TEST(ServeMultitenant, UnknownModelIsATypedNonDegradedError) {
  const auto server = registry_server();
  Item item;
  item.id = 7;
  item.tenant = "ghost";
  item.scales = "[64]";
  const std::string response = server->handle_line(render_line(item, true));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"code\":\"unknown-model\""), std::string::npos);
  EXPECT_NE(response.find("\"model_version\":0"), std::string::npos);
  EXPECT_NE(response.find("\"id\":7"), std::string::npos);
  // Unknown-model is a pure request error: the server is not degraded
  // and keeps serving known tenants.
  item.tenant = "beta";
  EXPECT_NE(server->handle_line(render_line(item, true)).find("\"ok\":true"),
            std::string::npos);
  const std::string health = server->handle_line(R"({"cmd":"health"})");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
}

TEST(ServeMultitenant, CorruptTenantArchiveDegradesOnlyThatTenant) {
  // A private copy of the store with one tenant's archive corrupted.
  const std::string root = fixture::fresh_dir("mt_corrupt_store");
  std::filesystem::copy(fixture().registry_root, root,
                        std::filesystem::copy_options::recursive);
  {
    std::ofstream bad(std::filesystem::path(root) / "beta" / "1.hpcp",
                      std::ios::binary | std::ios::trunc);
    bad << "HPCPARC1 truncated to garbage";
  }
  const auto server = fixture::attach(root);

  Item item;
  item.id = 1;
  item.tenant = "beta";
  item.scales = "[64]";
  const std::string beta = server->handle_line(render_line(item, true));
  EXPECT_NE(beta.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(beta.find("\"code\":\"bad-data\""), std::string::npos) << beta;

  // The other tenants load and serve normally.
  for (const char* tenant : {"default", "gamma"}) {
    item.id = 2;
    item.tenant = tenant;
    const std::string response = server->handle_line(render_line(item, true));
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
        << tenant << ": " << response;
  }
  // Health reports the per-tenant failure without a global degrade.
  const std::string health = server->handle_line(R"({"cmd":"health"})");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"load_failures\":1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"last_error\""), std::string::npos) << health;
}

}  // namespace
}  // namespace hpcp::serve
