// Tests for the cost-calibration loop (obs/costprofile.h, obs/costmodel.h):
// artifact round-trip through the jsonlite reader, harvesting from metrics
// snapshots, the SIT_COST loading path, semantic neutrality (a calibrated
// model may change *decisions*, never program *outputs*), and the pinned
// decision flips -- a skewed synthetic profile must actually move the LPT
// partition and the coarsen fission gate, or the whole loop is decorative.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "linear/cost.h"
#include "obs/costmodel.h"
#include "obs/costprofile.h"
#include "obs/trace.h"
#include "opt/compile.h"
#include "parallel/transforms.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace sit::ir::dsl;
using obs::CostProfile;
using obs::CostProfileActor;

// Every test in this file must leave the process-wide model static: the rest
// of the suite assumes uncalibrated costs.
class CostCalTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_cost_model(); }
  void TearDown() override { obs::reset_cost_model(); }
};

CostProfileActor actor_row(const std::string& name, std::int64_t firings,
                           std::int64_t wall_ns, double model_cycles) {
  CostProfileActor a;
  a.name = name;
  a.firings = firings;
  a.wall_ns = wall_ns;
  a.model_cycles_per_fire = model_cycles;
  return a;
}

CostProfile sample_profile() {
  CostProfile p;
  p.git_sha = "abc123def456";
  p.hostname = "testhost";
  p.cpus = 4;
  p.apps = {"FIR", "Vocoder"};
  CostProfileActor a = actor_row("alpha", 64, 640000, 850.5);
  a.ops.int_ops = 100;
  a.ops.flops = 200;
  a.ops.divs = 3;
  a.ops.trans = 1;
  a.ops.mem = 50;
  a.ops.channel = 70;
  p.actors.push_back(a);
  p.actors.push_back(actor_row("beta", 8, 1600, 2.0));
  p.super = {{"mac-loop", 42}, {"sum-loop", 7}};
  return p;
}

// The static model's per-firing cycles by flat actor name, the harvest-side
// join input (streamprof computes the same map).
std::map<std::string, double> model_map(const runtime::FlatGraph& g) {
  std::map<std::string, double> m;
  for (const auto& a : g.actors) {
    if (a.is_filter()) m[a.name] = linear::leaf_ops_per_firing(*a.node);
  }
  return m;
}

// ---- artifact round-trip ----------------------------------------------------

TEST_F(CostCalTest, JsonRoundTripIsBitEqual) {
  const CostProfile p = sample_profile();
  const std::string text = p.to_json();

  CostProfile back;
  std::string err;
  ASSERT_TRUE(CostProfile::parse(text, &back, &err)) << err;

  EXPECT_EQ(back.schema, CostProfile::kSchema);
  EXPECT_EQ(back.git_sha, p.git_sha);
  EXPECT_EQ(back.hostname, p.hostname);
  EXPECT_EQ(back.cpus, p.cpus);
  EXPECT_EQ(back.apps, p.apps);
  ASSERT_EQ(back.actors.size(), p.actors.size());
  for (std::size_t i = 0; i < p.actors.size(); ++i) {
    EXPECT_EQ(back.actors[i].name, p.actors[i].name);
    EXPECT_EQ(back.actors[i].firings, p.actors[i].firings);
    EXPECT_EQ(back.actors[i].wall_ns, p.actors[i].wall_ns);
    EXPECT_EQ(back.actors[i].model_cycles_per_fire,
              p.actors[i].model_cycles_per_fire);
    EXPECT_EQ(back.actors[i].ops.int_ops, p.actors[i].ops.int_ops);
    EXPECT_EQ(back.actors[i].ops.channel, p.actors[i].ops.channel);
  }
  EXPECT_EQ(back.super, p.super);

  // Serialize -> parse -> serialize must reproduce the bytes exactly; this
  // is what lets CI artifacts survive storage and diffing without drift.
  EXPECT_EQ(back.to_json(), text);
}

TEST_F(CostCalTest, ParseRejectsMalformedProfiles) {
  CostProfile p;
  std::string err;
  EXPECT_FALSE(CostProfile::parse("not json at all", &p, &err));
  EXPECT_FALSE(CostProfile::parse("{}", &p, &err));  // no schema
  EXPECT_FALSE(CostProfile::parse(R"({"schema": 99, "actors": []})", &p, &err));
  EXPECT_FALSE(CostProfile::parse(
      R"({"schema": 1, "actors": [{"name": "x", "firings": -5}]})", &p, &err));
  EXPECT_FALSE(CostProfile::parse(
      R"({"schema": 1, "actors": [{"firings": 5}]})", &p, &err));  // unnamed
  // A minimal valid profile parses.
  EXPECT_TRUE(CostProfile::parse(R"({"schema": 1, "actors": []})", &p, &err))
      << err;
}

TEST_F(CostCalTest, MergeAccumulatesByActorName) {
  CostProfile a;
  a.actors.push_back(actor_row("x", 10, 1000, 5.0));
  a.apps = {"A"};
  CostProfile b;
  b.actors.push_back(actor_row("x", 30, 3000, 5.0));
  b.actors.push_back(actor_row("y", 1, 50, 2.0));
  b.apps = {"A", "B"};
  b.super = {{"mac-loop", 3}};

  a.merge(b);
  ASSERT_EQ(a.actors.size(), 2u);
  EXPECT_EQ(a.find("x")->firings, 40);
  EXPECT_EQ(a.find("x")->wall_ns, 4000);
  EXPECT_EQ(a.find("y")->wall_ns, 50);
  EXPECT_EQ(a.apps, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(a.super.size(), 1u);
}

// ---- harvesting -------------------------------------------------------------

TEST_F(CostCalTest, HarvestJoinsMeasuredAndModeledPerActor) {
  // Per-firing timing is compiled out without observability.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  sched::ExecOptions opts;
  opts.trace = sched::TraceMode::On;
  sched::Executor ex(apps::make_app("FIR"), opts);
  ex.set_input_generator([](std::int64_t i) {
    return static_cast<double>((i % 64) - 32) / 32.0;
  });
  ex.run_steady(4);
  obs::MetricsSnapshot m = ex.metrics_snapshot();
  m.app = "FIR";

  CostProfile p;
  p.add_run(m, model_map(ex.graph()));
  ASSERT_FALSE(p.actors.empty());
  EXPECT_EQ(p.apps, std::vector<std::string>{"FIR"});
  const CostProfileActor* fir = p.find("fir");
  ASSERT_NE(fir, nullptr);
  EXPECT_GT(fir->firings, 0);
  EXPECT_GT(fir->wall_ns, 0);
  EXPECT_GT(fir->ns_per_fire(), 0.0);
  // The static model covered the actor, so divergence is computable.
  EXPECT_GT(fir->model_cycles_per_fire, 0.0);
  EXPECT_GT(p.cycles_per_ns(), 0.0);
}

// The satellite fix: the sequential engines must produce usable calibration
// cost columns even with per-op counting disabled (timing-only profiling).
TEST_F(CostCalTest, SequentialSnapshotFillsCalibCyclesFromTiming) {
  // Per-firing timing is compiled out without observability.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  sched::ExecOptions opts;
  opts.count_ops = false;
  opts.trace = sched::TraceMode::On;
  sched::Executor ex(apps::make_app("FIR"), opts);
  ex.set_input_generator([](std::int64_t i) {
    return static_cast<double>(i % 8);
  });
  ex.run_steady(4);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  bool any = false;
  for (const auto& a : m.actors) {
    if (a.firings > 0) {
      EXPECT_GT(a.calib_cycles, 0.0)
          << "actor '" << a.name << "' has firings but a zero cost column";
      any = true;
    }
  }
  EXPECT_TRUE(any);
}

// ---- model loading ----------------------------------------------------------

TEST_F(CostCalTest, ModelAnswersMeasuredWeightsWithStaticFallback) {
  CostProfile p = sample_profile();
  obs::set_cost_model(p, "inmem");
  const obs::CostModel& cm = obs::cost_model();
  EXPECT_TRUE(cm.calibrated());
  EXPECT_STREQ(cm.source(), "calibrated");

  double w = 0.0;
  ASSERT_TRUE(cm.measured_cycles_per_fire("alpha", &w));
  // alpha: 10000 ns/fire; bridge = (850.5*64 + 2*8) / (640000 + 1600).
  const double cpns = (850.5 * 64 + 2.0 * 8) / (640000.0 + 1600.0);
  EXPECT_NEAR(w, 10000.0 * cpns, 1e-9);
  double ratio = 0.0;
  ASSERT_TRUE(cm.divergence("alpha", &ratio));
  EXPECT_NEAR(ratio, 10000.0 * cpns / 850.5, 1e-9);
  // Unknown actors report no measurement: callers keep the static estimate.
  EXPECT_FALSE(cm.measured_cycles_per_fire("never-profiled", &w));

  obs::reset_cost_model();
  EXPECT_FALSE(obs::cost_model().calibrated());
  EXPECT_STREQ(obs::cost_model().source(), "static");
}

TEST_F(CostCalTest, SitCostEnvironmentVariableLoadsProfile) {
  const std::string path = "test_costcal_env.json";
  {
    std::ofstream f(path);
    f << sample_profile().to_json();
  }
  ::setenv("SIT_COST", path.c_str(), 1);
  obs::reset_cost_model();  // force the next query to re-consult SIT_COST
  EXPECT_TRUE(obs::cost_model().calibrated());
  EXPECT_EQ(obs::cost_model().profile_path(), path);
  ::unsetenv("SIT_COST");
  obs::reset_cost_model();
  EXPECT_FALSE(obs::cost_model().calibrated());
  std::remove(path.c_str());
}

TEST_F(CostCalTest, SnapshotAnnotationCarriesDivergence) {
  // Per-firing timing is compiled out without observability.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  // Harvest FIR, install the profile, re-snapshot: the cost_model section
  // must flip to calibrated and carry per-actor ratios.
  sched::ExecOptions opts;
  opts.trace = sched::TraceMode::On;
  sched::Executor ex(apps::make_app("FIR"), opts);
  ex.set_input_generator([](std::int64_t i) {
    return static_cast<double>(i % 16);
  });
  ex.run_steady(4);
  obs::MetricsSnapshot m0 = ex.metrics_snapshot();
  EXPECT_EQ(m0.cost_source, "static");
  EXPECT_TRUE(m0.cost_divergence.empty());

  CostProfile p;
  p.add_run(m0, model_map(ex.graph()));
  obs::set_cost_model(p, "inmem");
  obs::MetricsSnapshot m1 = ex.metrics_snapshot();
  EXPECT_EQ(m1.cost_source, "calibrated");
  EXPECT_EQ(m1.cost_profile, "inmem");
  EXPECT_FALSE(m1.cost_divergence.empty());
  for (const auto& [name, ratio] : m1.cost_divergence) {
    EXPECT_GT(ratio, 0.0) << name;
  }
  EXPECT_NE(m1.to_json().find("\"cost_model\""), std::string::npos);
}

// ---- semantic neutrality ----------------------------------------------------

// Calibration steers decisions (placement, fusion order, fission gates) but
// every transform stays semantics-preserving, so program outputs must be
// bit-equal between a static-model and a calibrated-model compile of every
// app at -O2.
TEST_F(CostCalTest, CalibratedCompileKeepsOutputsBitEqualAcrossAllApps) {
  const auto run_o2 = [](const std::string& name) {
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O2;
    sched::Executor ex(opt::compile(apps::make_app(name), copts));
    ex.set_input_generator([](std::int64_t i) {
      return static_cast<double>((i % 32) - 16) / 16.0;
    });
    return ex.run_steady(4);
  };

  for (const auto& app : apps::all_apps()) {
    // Harvest this app's own measurements into a fresh profile.
    obs::reset_cost_model();
    sched::ExecOptions popts;
    popts.trace = sched::TraceMode::On;
    sched::Executor prof(apps::make_app(app.name), popts);
    prof.set_input_generator([](std::int64_t i) {
      return static_cast<double>((i % 32) - 16) / 16.0;
    });
    prof.run_steady(2);
    obs::MetricsSnapshot m = prof.metrics_snapshot();
    m.app = app.name;
    CostProfile p;
    p.add_run(m, model_map(prof.graph()));

    const std::vector<double> want = run_o2(app.name);
    obs::set_cost_model(p, "harvested");
    const std::vector<double> got = run_o2(app.name);
    obs::reset_cost_model();
    ASSERT_EQ(want.size(), got.size()) << app.name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << app.name << " diverges at item " << i;
    }
  }
}

// ---- pinned decision flips --------------------------------------------------

namespace flips {

// Heavy peeking filter: enough arithmetic per firing that the static model
// gives it a dominant share.  Peek > pop keeps coarsen_stateless from fusing
// it away (names must survive into the flat graph for the profile to match).
ir::NodeP heavy(const std::string& name) {
  using namespace sit::ir::dsl;
  auto e = peek_(0) * c(1.1) + peek_(1) * c(0.9);
  for (int i = 0; i < 24; ++i) e = e * c(1.01) + c(0.001);
  return filter(name).rates(2, 1, 1).work(seq({push_(e), discard(1)})).node();
}

// Light peeking filter (one add per firing).
ir::NodeP light(const std::string& name) {
  using namespace sit::ir::dsl;
  return filter(name)
      .rates(2, 1, 1)
      .work(seq({push_(peek_(0) + peek_(1)), discard(1)}))
      .node();
}

// A profile asserting the given per-firing wall-ns for each named actor.
// model_cycles_per_fire = 1 everywhere keeps the cycles/ns bridge simple;
// only the *relative* measured weights drive LPT and the fission gate.
CostProfile skewed(const std::vector<std::pair<std::string, double>>& ns) {
  CostProfile p;
  for (const auto& [name, per_fire] : ns) {
    p.actors.push_back(actor_row(
        name, 1000, static_cast<std::int64_t>(per_fire * 1000.0), 1.0));
  }
  std::sort(p.actors.begin(), p.actors.end(),
            [](const CostProfileActor& a, const CostProfileActor& b) {
              return a.name < b.name;
            });
  return p;
}

// Worker assignment as a partition (set of actor-name groups), invariant
// under worker-id permutation.
std::multiset<std::set<std::string>> partition_of(
    const sched::ThreadedExecutor& tex) {
  std::map<int, std::set<std::string>> by_worker;
  const auto& owner = tex.report().owner;
  for (std::size_t i = 0; i < owner.size(); ++i) {
    by_worker[owner[i]].insert(tex.graph().actors[i].name);
  }
  std::multiset<std::set<std::string>> part;
  for (auto& [w, names] : by_worker) part.insert(std::move(names));
  return part;
}

}  // namespace flips

TEST_F(CostCalTest, SkewedProfileFlipsLptPartition) {
  const auto make_graph = [] {
    return ir::make_pipeline(
        "p", {flips::heavy("A"), flips::light("B"), flips::light("C"),
              flips::light("D")});
  };
  sched::ExecOptions opts;
  opts.threads = 2;

  // Static model: A dominates, so LPT isolates it.
  sched::ThreadedExecutor stat(make_graph(), opts);
  stat.set_input_generator([](std::int64_t i) {
    return static_cast<double>(i % 8);
  });
  stat.run_steady(2);
  ASSERT_TRUE(stat.report().threaded);
  const auto part_static = flips::partition_of(stat);
  EXPECT_EQ(part_static.count(std::set<std::string>{"A"}), 1u);

  // Skewed measurements: B and C are the hot actors now, comparable in
  // weight, so LPT must split them across the two workers.  A and D fall
  // under the feather threshold and glue to their heavy neighbors (A to B,
  // D to C), giving the fully deterministic partition {A,B} | {C,D}.
  const std::vector<std::pair<std::string, double>> kSkew = {
      {"A", 10.0}, {"B", 1000.0}, {"C", 990.0}, {"D", 10.0}};
  obs::set_cost_model(flips::skewed(kSkew), "skew");
  sched::ThreadedExecutor skew(make_graph(), opts);
  skew.set_input_generator([](std::int64_t i) {
    return static_cast<double>(i % 8);
  });
  skew.run_steady(2);
  ASSERT_TRUE(skew.report().threaded);
  const auto part_skewed = flips::partition_of(skew);

  EXPECT_NE(part_static, part_skewed)
      << "a 100x measured skew on B/C left the LPT partition unchanged";
  EXPECT_EQ(part_skewed.count(std::set<std::string>{"A", "B"}), 1u);
  EXPECT_EQ(part_skewed.count(std::set<std::string>{"C", "D"}), 1u);

  // Decisions moved; outputs must not.  Same feed, same item count.
  obs::reset_cost_model();
  sched::Executor ref(make_graph());
  ref.set_input_generator([](std::int64_t i) {
    return static_cast<double>(i % 8);
  });
  const std::vector<double> want = ref.run_steady(4);
  obs::set_cost_model(flips::skewed(kSkew), "skew");
  sched::ThreadedExecutor cal(make_graph(), opts);
  cal.set_input_generator([](std::int64_t i) {
    return static_cast<double>(i % 8);
  });
  const std::vector<double> got = cal.run_steady(4);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "diverges at item " << i;
  }
}

TEST_F(CostCalTest, SkewedProfileFlipsCoarsenFissionGate) {
  const auto make_graph = [] {
    return ir::make_pipeline("p", {flips::heavy("H"), flips::light("L")});
  };

  // Static model: the light filter still carries well over a quarter-worker
  // of modeled work (2 actors, threads=2 -> gate at 12.5%), so both leaves
  // fiss: 2 replicas each = 4 filters.
  const ir::NodeP coarse_static =
      parallel::coarsen_for_threads(make_graph(), 2, 0);
  const int filters_static = ir::count_filters(coarse_static);

  // Measured truth says L is vanishingly cheap: its share falls under the
  // gate and it must ride along unfissed.
  obs::set_cost_model(flips::skewed({{"H", 100000.0}, {"L", 5.0}}), "skew");
  const ir::NodeP coarse_skewed =
      parallel::coarsen_for_threads(make_graph(), 2, 0);
  const int filters_skewed = ir::count_filters(coarse_skewed);

  EXPECT_EQ(filters_static, 4);
  EXPECT_EQ(filters_skewed, 3)
      << "the fission gate ignored the measured weights";
  ASSERT_NE(filters_static, filters_skewed);
}

}  // namespace
}  // namespace sit
