// Differential tests: the threaded runtime must be observationally identical
// to the sequential executor.  Every built-in app and a population of
// randomized structured graphs run under ThreadedExecutor at 1, 2, and 4
// threads; program output, firing tallies, per-actor OpCounts, cumulative
// channel counters, and final filter state are held bit-equal.  Also covers
// the SPSC ring itself (wraparound, counter carry-over, and a concurrent
// coprime-rate stress) and the fallback rules for graphs the threaded
// runtime refuses.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "apps/common.h"
#include "apps/radio.h"
#include "ir/dsl.h"
#include "linear/cost.h"
#include "linear/linear_rep.h"
#include "obs/costmodel.h"
#include "opt/compile.h"
#include "parallel/transforms.h"
#include "runtime/spsc.h"
#include "sched/envopts.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::Value;
using runtime::FilterState;
using runtime::OpCounts;
using runtime::SpscRing;

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_bits(a[i], b[i]))
        << what << " item " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_same_value(const Value& a, const Value& b, const std::string& what) {
  ASSERT_EQ(a.is_int(), b.is_int()) << what << " tag mismatch";
  if (a.is_int()) {
    ASSERT_EQ(a.as_int(), b.as_int()) << what;
  } else {
    ASSERT_TRUE(same_bits(a.as_double(), b.as_double()))
        << what << ": " << a.as_double() << " vs " << b.as_double();
  }
}

void expect_same_state(const FilterState& a, const FilterState& b,
                       const std::string& who) {
  ASSERT_EQ(a.scalars.size(), b.scalars.size()) << who;
  for (const auto& [name, va] : a.scalars) {
    auto it = b.scalars.find(name);
    ASSERT_NE(it, b.scalars.end()) << who << " scalar " << name;
    expect_same_value(va, it->second, who + "." + name);
  }
  ASSERT_EQ(a.arrays.size(), b.arrays.size()) << who;
  for (const auto& [name, va] : a.arrays) {
    auto it = b.arrays.find(name);
    ASSERT_NE(it, b.arrays.end()) << who << " array " << name;
    ASSERT_EQ(va.size(), it->second.size()) << who << "." << name;
    for (std::size_t i = 0; i < va.size(); ++i) {
      expect_same_value(va[i], it->second[i],
                        who + "." + name + "[" + std::to_string(i) + "]");
    }
  }
}

void expect_same_counts(const OpCounts& a, const OpCounts& b,
                        const std::string& who) {
  EXPECT_EQ(a.int_ops, b.int_ops) << who << " int_ops";
  EXPECT_EQ(a.flops, b.flops) << who << " flops";
  EXPECT_EQ(a.divs, b.divs) << who << " divs";
  EXPECT_EQ(a.trans, b.trans) << who << " trans";
  EXPECT_EQ(a.mem, b.mem) << who << " mem";
  EXPECT_EQ(a.channel, b.channel) << who << " channel";
}

// Run the same graph under the sequential Executor and a ThreadedExecutor
// (two run_steady calls, so the threaded path is re-entered after the first
// call's init, placement plan and steady states) and hold every observable
// equal.  `batch` is the
// iteration-batching factor: 0 defers to SIT_BATCH, -1 forces the auto
// heuristic, >= 1 is explicit.
void expect_matches(const std::string& what,
                    const std::function<ir::NodeP()>& make, int threads,
                    const std::function<double(std::int64_t)>& gen = {},
                    int batch = 0) {
  SCOPED_TRACE(what + " @" + std::to_string(threads) + " threads batch=" +
               std::to_string(batch));
  sched::Executor seq(make(), {});
  sched::ExecOptions topt;
  topt.threads = threads;
  topt.batch = batch;
  sched::ThreadedExecutor tex(make(), topt);
  if (gen) {
    seq.set_input_generator(gen);
    tex.set_input_generator(gen);
  }

  expect_same_doubles(seq.run_steady(3), tex.run_steady(3), what + " output#1");
  expect_same_doubles(seq.run_steady(2), tex.run_steady(2), what + " output#2");

  const auto& g = seq.graph();
  ASSERT_EQ(g.actors.size(), tex.graph().actors.size()) << what;
  EXPECT_EQ(seq.firings(), tex.firings()) << what;
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    const int ai = static_cast<int>(a);
    expect_same_counts(seq.actor_ops()[a], tex.actor_ops()[a],
                       what + "/" + g.actors[a].name);
    if (g.actors[a].kind == runtime::FlatActor::Kind::Filter) {
      expect_same_state(seq.filter_state(ai), tex.filter_state(ai),
                        what + "/" + g.actors[a].name);
    }
  }
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const int ei = static_cast<int>(e);
    EXPECT_EQ(seq.channel(ei).total_pushed(), tex.edge_pushed(ei))
        << what << " edge " << e << " pushed";
    EXPECT_EQ(seq.channel(ei).total_popped(), tex.edge_popped(ei))
        << what << " edge " << e << " popped";
  }
}

// ---- whole-application differential -----------------------------------------

TEST(TexecDifferential, AllAppsAllThreadCounts) {
  for (const auto& info : apps::all_apps()) {
    for (int threads : {1, 2, 4}) {
      expect_matches(info.name, info.make, threads);
    }
  }
}

// The coarse-grained data-parallel apps, after the fission transform the
// bench applies, must actually run threaded (not fall back) and still match.
TEST(TexecDifferential, PreparedAppsRunThreaded) {
  for (const std::string name : {"FIR", "FilterBank", "FMRadio"}) {
    SCOPED_TRACE(name);
    const auto make = [&] {
      return parallel::coarsen_for_threads(apps::make_app(name), 4);
    };
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(3);
    EXPECT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_GT(tex.report().ring_edges, 0);
    EXPECT_GT(tex.report().threads, 1);
    expect_matches(name + "/prepared", make, 4);
  }
}

// ---- randomized structured graphs -------------------------------------------

// Random pipelines of sources, FIRs (peeking), rate changers, and
// split-joins, ending at the external output so the item stream itself is
// compared.  Fixed seeds keep failures reproducible.
ir::NodeP random_graph(std::uint32_t seed) {
  std::mt19937 g(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(g);
  };
  int uniq = 0;
  auto nm = [&](const char* base) {
    return std::string(base) + "_" + std::to_string(seed) + "_" +
           std::to_string(uniq++);
  };

  // rate_safe stages keep a 1:1 signature so split-join branches stay
  // balanced; pipelines may also change rates.
  std::function<ir::NodeP(bool)> leaf_stage = [&](bool rate_safe) -> ir::NodeP {
    switch (pick(0, rate_safe ? 1 : 3)) {
      case 0:
        return apps::gain(nm("g"), 0.5 + 0.25 * pick(0, 4));
      case 1:
        return apps::lowpass_fir(nm("fir"), pick(3, 12), 0.3);
      case 2:
        return apps::downsample(nm("dec"), pick(2, 3));
      default:
        return apps::upsample(nm("up"), pick(2, 3));
    }
  };

  std::vector<ir::NodeP> stages;
  stages.push_back(apps::rand_source(nm("src"), pick(1, 2)));
  const int n_stages = pick(2, 4);
  for (int s = 0; s < n_stages; ++s) {
    if (pick(0, 3) == 0) {
      // A split-join of small per-branch pipelines.
      const int branches = pick(2, 3);
      std::vector<ir::NodeP> kids;
      for (int b = 0; b < branches; ++b) {
        std::vector<ir::NodeP> inner;
        const int depth = pick(1, 2);
        for (int d = 0; d < depth; ++d) inner.push_back(leaf_stage(true));
        kids.push_back(ir::make_pipeline(nm("branch"), inner));
      }
      ir::Splitter sp;
      ir::Joiner jn;
      jn.weights.assign(static_cast<std::size_t>(branches), 1);
      if (pick(0, 1) == 0) {
        sp.kind = ir::SJKind::Duplicate;
      } else {
        sp.kind = ir::SJKind::RoundRobin;
        sp.weights.assign(static_cast<std::size_t>(branches), 1);
      }
      stages.push_back(ir::make_splitjoin(nm("sj"), sp, jn, kids));
    } else {
      stages.push_back(leaf_stage(false));
    }
  }
  // No sink: the tail pushes to the external output, which the differential
  // harness compares item by item.
  return ir::make_pipeline(nm("rand"), stages);
}

TEST(TexecDifferential, RandomizedGraphs) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    for (int threads : {2, 4}) {
      expect_matches("rand" + std::to_string(seed),
                     [&] { return random_graph(seed); }, threads);
    }
  }
}

// ---- external input ---------------------------------------------------------

TEST(TexecDifferential, ExternalInputViaGenerator) {
  const auto make = [] {
    return ir::make_pipeline(
        "open", {apps::gain("pre", 2.0), apps::lowpass_fir("f", 16, 0.25),
                 apps::downsample("dec", 2)});
  };
  const auto gen = [](std::int64_t i) {
    return std::sin(0.01 * static_cast<double>(i));
  };
  for (int threads : {2, 4}) expect_matches("open-graph", make, threads, gen);
}

TEST(TexecDifferential, ExternalInputViaFeed) {
  const auto make = [] {
    return ir::make_pipeline("fed", {apps::gain("pre", 0.5),
                                     apps::lowpass_fir("f", 8, 0.25)});
  };
  sched::Executor seq(make(), {});
  sched::ExecOptions topt;
  topt.threads = 4;
  sched::ThreadedExecutor tex(make(), topt);
  const auto& s = seq.schedule();
  const std::int64_t need = s.input_for_init + 6 * s.input_per_steady;
  std::vector<double> items;
  items.reserve(static_cast<std::size_t>(need));
  for (std::int64_t i = 0; i < need; ++i) {
    items.push_back(std::cos(0.02 * static_cast<double>(i)));
  }
  seq.feed_input(items);
  tex.feed_input(items);
  expect_same_doubles(seq.run_steady(6), tex.run_steady(6), "fed output");
  EXPECT_EQ(seq.firings(), tex.firings());
}

// ---- selection & fallback rules ---------------------------------------------

TEST(TexecSelection, EnvVariableResolvesThreads) {
  ASSERT_EQ(setenv("SIT_THREADS", "3", 1), 0);
  EXPECT_EQ(sched::resolve_threads(0), 3);
  sched::ThreadedExecutor tex(apps::make_filter_bank(), {});
  unsetenv("SIT_THREADS");
  tex.run_steady(2);
  EXPECT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  EXPECT_LE(tex.report().threads, 3);
  EXPECT_EQ(sched::resolve_threads(0), 1);  // default without the env var
  EXPECT_EQ(sched::resolve_threads(8), 8);  // explicit option wins
}

TEST(TexecFallback, OneThreadStaysSequential) {
  sched::ExecOptions topt;
  topt.threads = 1;
  sched::ThreadedExecutor tex(apps::make_filter_bank(), topt);
  EXPECT_FALSE(tex.report().threaded);
  EXPECT_EQ(tex.report().threads, 1);
}

TEST(TexecFallback, TeleportGraphFallsBack) {
  sched::ExecOptions topt;
  topt.threads = 4;
  sched::ThreadedExecutor tex(apps::make_freq_hop_radio(16).graph, topt);
  EXPECT_FALSE(tex.report().threaded);
  EXPECT_NE(tex.report().fallback_reason.find("teleport"), std::string::npos)
      << tex.report().fallback_reason;
  // And the fallback still executes correctly.
  expect_matches("freqhop", [] { return apps::make_freq_hop_radio(16).graph; },
                 4);
}

TEST(TexecFallback, MessageSinkFallsBack) {
  sched::ExecOptions topt;
  topt.threads = 4;
  topt.message_sink = [](const runtime::SentMessage&) {};
  sched::ThreadedExecutor tex(apps::make_filter_bank(), topt);
  EXPECT_FALSE(tex.report().threaded);
  EXPECT_NE(tex.report().fallback_reason.find("sink"), std::string::npos);
}

TEST(TexecReport, PartitionCoversEveryActor) {
  sched::ExecOptions topt;
  topt.threads = 4;
  sched::ThreadedExecutor tex(
      parallel::coarsen_for_threads(apps::make_filter_bank(), 4), topt);
  tex.run_steady(2);
  const auto& rep = tex.report();
  ASSERT_TRUE(rep.threaded);
  ASSERT_EQ(rep.owner.size(), tex.graph().actors.size());
  for (int o : rep.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, rep.threads);
  }
  EXPECT_GT(rep.predicted_speedup, 0.0);
}

// The compiled engine drives the workers through their one-actor traces and
// runs no whole-graph trace, which is no refusal: the threaded snapshot
// reads engine fused, fallback none and no fused statics.  The
// one-thread fallback really runs the whole-graph trace.
TEST(TexecReport, EngineIsTheOneDrivingTheWorkers) {
  for (const std::string app : {"FIR", "Vocoder"}) {
    for (const int threads : {4, 1}) {
      SCOPED_TRACE(app + " threads=" + std::to_string(threads));
      sched::ExecOptions topt;
      topt.threads = threads;
      topt.engine = sched::Engine::Fused;
      topt.trace = sched::TraceMode::Off;
      sched::ThreadedExecutor tex(apps::make_app(app), topt);
      tex.run_steady(3);
      ASSERT_EQ(tex.report().threaded, threads > 1)
          << tex.report().fallback_reason;
      EXPECT_EQ(tex.engine(), sched::Engine::Fused);
      const obs::MetricsSnapshot m = tex.metrics_snapshot();
      EXPECT_EQ(m.engine, "fused");
      if (threads > 1) {
        EXPECT_EQ(m.fallback, "none");
        EXPECT_EQ(m.fallback_detail, "");
        EXPECT_EQ(m.fused_channels, -1);
        EXPECT_EQ(m.fused_pass, -1);
        EXPECT_TRUE(m.fused_super.empty());
      } else {
        EXPECT_EQ(m.fallback, "one-thread");
        EXPECT_GT(m.fused_channels, 0);
      }
    }
  }
}

// A sequential fallback keeps the threaded runtime's reason and appends why
// its embedded executor runs no whole-graph trace.
TEST(TexecReport, OneThreadDetailNamesTheTraceRefusal) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  sched::ExecOptions topt;
  topt.threads = 1;
  topt.engine = sched::Engine::Fused;
  topt.trace = sched::TraceMode::On;
  sched::ThreadedExecutor tex(apps::make_app("FIR"), topt);
  tex.run_steady(2);
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  EXPECT_EQ(m.fallback, "one-thread");
  EXPECT_NE(m.fallback_detail.find("one thread requested"), std::string::npos)
      << m.fallback_detail;
  EXPECT_NE(m.fallback_detail.find("tracing-enabled"), std::string::npos)
      << m.fallback_detail;
}

// A threaded snapshot starts from its embedded executor's: every per-actor
// and per-edge field the threaded runtime does not own must read exactly as
// a sequential executor's after the same steady states.
TEST(TexecReport, SnapshotMatchesSequentialOnAllApps) {
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O0;
    sched::ExecOptions sopt;
    sopt.engine = sched::Engine::Fused;
    sopt.threads = 1;
    sched::Executor seq(opt::compile(info.make(), copts), sopt);
    sched::ExecOptions topt = sopt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(opt::compile(info.make(), copts), topt);
    if (seq.graph().input_edge >= 0) {
      const auto gen = [](std::int64_t i) {
        return std::sin(0.03 * static_cast<double>(i));
      };
      seq.set_input_generator(gen);
      tex.set_input_generator(gen);
    }
    seq.run_steady(6);
    tex.run_steady(6);
    const obs::MetricsSnapshot ms = seq.metrics_snapshot();
    const obs::MetricsSnapshot mt = tex.metrics_snapshot();
    EXPECT_EQ(ms.typed_actors, mt.typed_actors);
    EXPECT_EQ(ms.typed_regs, mt.typed_regs);
    EXPECT_EQ(ms.typed_channels, mt.typed_channels);
    ASSERT_EQ(ms.actors.size(), mt.actors.size());
    for (std::size_t a = 0; a < ms.actors.size(); ++a) {
      const obs::ActorSnapshot& x = ms.actors[a];
      const obs::ActorSnapshot& y = mt.actors[a];
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.firings, y.firings) << x.name;
      expect_same_counts(x.ops, y.ops, x.name);
      EXPECT_EQ(x.typed_status, y.typed_status) << x.name;
      EXPECT_EQ(x.typed_regs, y.typed_regs) << x.name;
    }
    ASSERT_EQ(ms.edges.size(), mt.edges.size());
    for (std::size_t e = 0; e < ms.edges.size(); ++e) {
      const obs::EdgeSnapshot& x = ms.edges[e];
      const obs::EdgeSnapshot& y = mt.edges[e];
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.content, y.content) << x.name;
      EXPECT_EQ(x.pushed, y.pushed) << x.name;
      EXPECT_EQ(x.popped, y.popped) << x.name;
    }
  }
}

// ---- iteration batching -----------------------------------------------------

// The differential harness across batch factors: unbatched (1), the auto
// heuristic (-1), and one explicit multi-iteration chunk whose size is
// coprime to the run_steady(3)/run_steady(2) call pattern so remainder
// chunks are exercised.
TEST(TexecBatch, DifferentialAcrossBatchFactors) {
  for (const std::string name : {"FIR", "FilterBank", "FMRadio"}) {
    const auto make = [&] {
      return parallel::coarsen_for_threads(apps::make_app(name), 4);
    };
    for (int batch : {1, -1, 3}) {
      expect_matches(name + "/batched", make, 4, {}, batch);
    }
  }
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    for (int batch : {1, -1, 3}) {
      expect_matches("rand" + std::to_string(seed) + "/batched",
                     [&] { return random_graph(seed); }, 4, {}, batch);
    }
  }
}

TEST(TexecBatch, ReportsResolvedBatchFactor) {
  const auto make = [] {
    return parallel::coarsen_for_threads(apps::make_filter_bank(), 4);
  };
  {
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = 1;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(4);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_EQ(tex.report().batch, 1);
  }
  {
    // An explicit request is honored up to the graph's admissible maximum.
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = 6;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(4);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_GE(tex.report().batch, 1);
    EXPECT_LE(tex.report().batch, 6);
  }
  {
    // Auto resolves to a concrete factor >= 1 at partition time.
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = -1;
    sched::ThreadedExecutor tex(make(), topt);
    tex.run_steady(4);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_GE(tex.report().batch, 1);
  }
}

TEST(TexecBatch, EnvResolution) {
  ASSERT_EQ(setenv("SIT_BATCH", "auto", 1), 0);
  EXPECT_EQ(env_batch(), -1);
  EXPECT_EQ(sched::resolve_batch(0), -1);
  ASSERT_EQ(setenv("SIT_BATCH", "7", 1), 0);
  EXPECT_EQ(env_batch(), 7);
  EXPECT_EQ(sched::resolve_batch(0), 7);    // 0 defers to the environment
  EXPECT_EQ(sched::resolve_batch(2), 2);    // explicit option wins
  EXPECT_EQ(sched::resolve_batch(-5), -1);  // any negative requests auto
  ASSERT_EQ(setenv("SIT_BATCH", "0", 1), 0);
  EXPECT_EQ(env_batch(), 1);         // floor at 1
  ASSERT_EQ(unsetenv("SIT_BATCH"), 0);
  EXPECT_EQ(env_batch(), -1);        // default: auto
  EXPECT_EQ(sched::resolve_batch(3), 3);
}

// ---- a lone stateless actor split across the workers ------------------------

// An app's -O2 program between its source and sink, as the benchmark runs
// it: FIR collapses to one frequency-domain native filter and FilterBank to
// one linear kernel, both stateless.
sched::CompiledProgram o2_body(const std::string& app) {
  const ir::NodeP root = apps::make_app(app);
  const ir::NodeP body = ir::make_pipeline(
      root->name, {root->children.begin() + 1, root->children.end() - 1});
  opt::CompileOptions copts;
  copts.level = opt::OptLevel::O2;
  return opt::compile(body, copts);
}

// Lower without the analysis gate, which rejects a faulting program
// statically.
sched::CompiledProgram lower_ungated(const ir::NodeP& root) {
  sched::CompiledProgram p;
  p.graph = root;
  p.flat = runtime::flatten(root);
  p.schedule = sched::make_schedule(p.flat);
  return p;
}

// Two rows over a 7-item window, popping 3: y0 = -0.5*w0 + 0.25*w2 + w6,
// y1 = 1.5 + 2*w1 - w5.  The typed engines run it as a linear kernel.
ir::NodeP peeking_kernel() {
  linear::LinearRep rep;
  rep.peek = 7;
  rep.pop = 3;
  rep.push = 2;
  rep.A = linear::Matrix(2, 7);
  rep.A.at(0, 0) = -0.5;
  rep.A.at(0, 2) = 0.25;
  rep.A.at(0, 6) = 1.0;
  rep.A.at(1, 1) = 2.0;
  rep.A.at(1, 5) = -1.0;
  rep.b = {0.0, 1.5};
  return ir::make_filter(linear::to_filter(rep, "lin7"));
}

// The same window shape as a typed template: a loop over a coefficient
// array (state the work only reads) plus a peek difference.
ir::NodeP peeking_template() {
  std::vector<Value> w;
  for (int i = 0; i < 7; ++i) w.emplace_back(0.125 * (i + 1) - 0.5);
  return filter("mac7")
      .rates(7, 3, 2)
      .array_init("w", w)
      .work(seq({let("acc", c(0.0)),
                 for_("i", ci(0), ci(7),
                      let("acc", v("acc") + peek_(v("i")) * at("w", v("i")))),
                 push_(v("acc")), push_(peek_(ci(1)) - peek_(ci(6))),
                 discard(3)}))
      .node();
}

// Items in [-1, 1] with exact zeros of both signs, so a -0.0 first term is
// observable.
double split_input(std::int64_t i) {
  switch (i % 5) {
    case 0: return 0.0;
    case 1: return -0.0;
    default: return std::sin(0.37 * static_cast<double>(i));
  }
}

void expect_bit_equal(const std::vector<double>& want,
                      const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " item " << i << ": " << want[i] << " vs " << got[i];
  }
}

// Run `prog` on the tree interpreter and split across `threads` workers on
// `engine`, in calls of 1, T-1, T, T+1 and 2T+1 firings, and hold outputs,
// OpCounts, channel counters and firings equal after every call.
void expect_split_matches_tree(const std::string& what,
                               const sched::CompiledProgram& prog,
                               int threads, sched::Engine engine) {
  SCOPED_TRACE(what + " @" + std::to_string(threads) + " threads");
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  topt.threads = 1;
  sched::Executor tree(prog, topt);
  sched::ExecOptions sopt;
  sopt.engine = engine;
  sopt.threads = threads;
  sched::ThreadedExecutor tex(prog, sopt);
  ASSERT_EQ(tex.graph().actors.size(), 1U);
  ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  EXPECT_EQ(tex.report().split, threads);
  EXPECT_NE(tex.report().to_string().find(" split=" + std::to_string(threads)),
            std::string::npos)
      << tex.report().to_string();
  // One firing per steady state: a call of n steady states fires n times.
  ASSERT_EQ(tex.schedule().reps[0], 1);
  tree.set_input_generator(split_input);
  tex.set_input_generator(split_input);
  const int t = threads;
  for (const int n : {1, t - 1, t, t + 1, 2 * t + 1, 1, t}) {
    const std::string call = what + " call of " + std::to_string(n);
    expect_bit_equal(tree.run_steady(n), tex.run_steady(n), call);
    EXPECT_EQ(tree.firings(), tex.firings()) << call;
    expect_same_counts(tree.actor_ops()[0], tex.actor_ops()[0], call);
    for (std::size_t e = 0; e < tree.graph().edges.size(); ++e) {
      const int ei = static_cast<int>(e);
      EXPECT_EQ(tree.channel(ei).total_pushed(), tex.edge_pushed(ei)) << call;
      EXPECT_EQ(tree.channel(ei).total_popped(), tex.edge_popped(ei)) << call;
    }
  }
}

TEST(TexecSplit, FilterBankAndFirBodiesMatchTheTree) {
  for (const std::string app : {"FilterBank", "FIR"}) {
    const sched::CompiledProgram prog = o2_body(app);
    for (const int threads : {2, 3, 4}) {
      expect_split_matches_tree(app, prog, threads, sched::Engine::Fused);
    }
  }
  // The collapsed FilterBank runs as a coefficient kernel on every worker.
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.threads = 4;
  const sched::ThreadedExecutor fb(o2_body("FilterBank"), opts);
  EXPECT_EQ(fb.report().kernels, 1);
  EXPECT_EQ(fb.engine(), sched::Engine::Fused);
}

// A peek > pop window read through each worker's offset view.  The calls'
// sizes move the input channel's head across the end of its ring, so some
// shares' windows wrap mid-run.  Typed lanes (the kernel and the template
// trace) and tree lanes alike.
TEST(TexecSplit, PeekingWindowsMatchTheTree) {
  const std::pair<std::string, ir::NodeP (*)()> filters[] = {
      {"kernel", peeking_kernel}, {"template", peeking_template}};
  for (const auto& [name, make] : filters) {
    const sched::CompiledProgram prog = sched::lower(make());
    for (const int threads : {2, 3, 4}) {
      for (const sched::Engine engine :
           {sched::Engine::Fused, sched::Engine::Tree}) {
        expect_split_matches_tree(
            name + (engine == sched::Engine::Tree ? "/tree" : "/typed"), prog,
            threads, engine);
      }
    }
  }
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.threads = 2;
  const sched::ThreadedExecutor k(sched::lower(peeking_kernel()), opts);
  EXPECT_EQ(k.report().kernels, 1);
}

// A filter that pops one item more after a large one, against its declared
// pop of 1: the shares' windows drift from the sequential firings', so the
// call reruns on the embedded executor and still matches the tree.
TEST(TexecSplit, RateLyingActorStillMatchesTheTree) {
  const ir::NodeP liar =
      filter("liar")
          .rates(2, 1, 1)
          .work(seq({let("x", pop_()), if_(v("x") > c(0.5), discard(1)),
                     push_(v("x"))}))
          .node();
  const sched::CompiledProgram prog = lower_ungated(liar);
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(prog, topt);
  sched::ExecOptions sopt;
  sopt.threads = 4;
  sched::ThreadedExecutor tex(prog, sopt);
  ASSERT_EQ(tex.report().split, 4);
  std::vector<double> in(400);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = split_input(static_cast<std::int64_t>(i));
  }
  tree.feed_input(in);
  tex.feed_input(in);
  for (const int n : {1, 3, 4, 7, 9}) {
    const std::string call = "call of " + std::to_string(n);
    expect_bit_equal(tree.run_steady(n), tex.run_steady(n), call);
    EXPECT_EQ(tree.firings(), tex.firings()) << call;
    expect_same_counts(tree.actor_ops()[0], tex.actor_ops()[0], call);
    EXPECT_EQ(tree.channel(0).total_popped(), tex.edge_popped(0)) << call;
  }
}

// A split call whose fed input holds fewer firings than it asks for runs
// on the embedded executor instead, whose epochs fault where the tree's do:
// the same message, outputs, firings, OpCounts and counters.
TEST(TexecSplit, ShortInputRerunsAsTheTree) {
  const std::pair<std::string, std::function<sched::CompiledProgram()>>
      bodies[] = {{"FIR", [] { return o2_body("FIR"); }},
                  {"FilterBank", [] { return o2_body("FilterBank"); }},
                  {"kernel", [] { return sched::lower(peeking_kernel()); }}};
  const auto fault = [](auto& ex, int n) -> std::string {
    try {
      ex.run_steady(n);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  for (const auto& [name, make] : bodies) {
    const sched::CompiledProgram prog = make();
    const sched::Schedule& s = prog.schedule;
    // Five and a half steady states' input: a call of 3 runs split, and
    // the next call, of 4, starves in its third steady state.
    std::vector<double> in(static_cast<std::size_t>(
        s.input_for_init + 5 * s.input_per_steady + s.input_per_steady / 2));
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = split_input(static_cast<std::int64_t>(i));
    }
    for (const int threads : {2, 4}) {
      const std::string what = name + " @" + std::to_string(threads);
      sched::ExecOptions topt;
      topt.engine = sched::Engine::Tree;
      topt.threads = 1;
      sched::Executor tree(prog, topt);
      sched::ExecOptions sopt;
      sopt.engine = sched::Engine::Fused;
      sopt.threads = threads;
      sched::ThreadedExecutor tex(prog, sopt);
      ASSERT_EQ(tex.report().split, threads) << what;
      tree.feed_input(in);
      tex.feed_input(in);
      expect_bit_equal(tree.run_steady(3), tex.run_steady(3), what);
      const std::string want = fault(tree, 4);
      EXPECT_NE(want.find("starved"), std::string::npos)
          << what << ": " << want;
      EXPECT_EQ(fault(tex, 4), want) << what;
      expect_bit_equal(tree.take_output(), tex.take_output(), what);
      EXPECT_EQ(tree.firings(), tex.firings()) << what;
      expect_same_counts(tree.actor_ops()[0], tex.actor_ops()[0], what);
      for (std::size_t e = 0; e < tree.graph().edges.size(); ++e) {
        const int ei = static_cast<int>(e);
        EXPECT_EQ(tree.channel(ei).total_pushed(), tex.edge_pushed(ei)) << what;
        EXPECT_EQ(tree.channel(ei).total_popped(), tex.edge_popped(ei)) << what;
      }
    }
  }
}

TEST(TexecSplit, StatefulLoneActorKeepsTheFallback) {
  const ir::NodeP acc = filter("acc")
                            .rates(1, 1, 1)
                            .scalar("s", Value(0.0))
                            .work(seq({let("s", v("s") + pop_()),
                                       push_(v("s"))}))
                            .node();
  ir::NativeFilter nf;
  nf.name = "nat";
  nf.pop = nf.peek = nf.push = 1;
  nf.stateful = true;
  nf.work = [](ir::NativeState*, ir::InTape& in, ir::OutTape& out) {
    out.push_item(in.pop_item());
  };
  for (const ir::NodeP& root : {acc, ir::make_native(nf)}) {
    SCOPED_TRACE(root->name);
    sched::ExecOptions opts;
    opts.threads = 4;
    sched::ThreadedExecutor tex(root, opts);
    EXPECT_FALSE(tex.report().threaded);
    EXPECT_EQ(tex.report().fallback, sched::FallbackReason::TooFewActors);
    EXPECT_EQ(tex.report().split, 0);
    EXPECT_NE(tex.report().fallback_reason.find("keeps state"),
              std::string::npos)
        << tex.report().fallback_reason;
    tex.set_input_generator(split_input);
    EXPECT_EQ(tex.run_steady(3).size(), 3U);
  }
}

// ---- the persistent worker pool ---------------------------------------------

// A four-stage pipeline the partitioner spreads across workers.
ir::NodeP pool_pipeline() {
  return ir::make_pipeline("pool", {apps::lowpass_fir("fa", 9, 0.3),
                                    apps::gain("ga", 0.75),
                                    apps::lowpass_fir("fb", 7, 0.2),
                                    apps::gain("gb", -1.25)});
}

TEST(TexecPool, ThousandsOfSingleSteadyCallsMatchSequential) {
  const struct {
    std::string name;
    std::function<sched::CompiledProgram()> make;
    bool split;
  } cases[] = {{"pipeline", [] { return sched::lower(pool_pipeline()); }, false},
               {"FilterBank-O2", [] { return o2_body("FilterBank"); }, true}};
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    sched::ExecOptions sopt;
    sopt.threads = 1;
    sched::Executor seq(tc.make(), sopt);
    sched::ExecOptions topt;
    topt.threads = 4;
    topt.batch = 1;
    sched::ThreadedExecutor tex(tc.make(), topt);
    seq.set_input_generator(split_input);
    tex.set_input_generator(split_input);
    for (int call = 0; call < 2000; ++call) {
      expect_bit_equal(seq.run_steady(1), tex.run_steady(1),
                       "call " + std::to_string(call));
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_EQ(tex.report().split > 0, tc.split);
    EXPECT_GT(tex.report().threads, 1);
    EXPECT_EQ(seq.firings(), tex.firings());
    for (std::size_t a = 0; a < seq.graph().actors.size(); ++a) {
      expect_same_counts(seq.actor_ops()[a], tex.actor_ops()[a],
                         seq.graph().actors[a].name);
    }
  }
}

std::size_t task_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(TexecPool, ThreadCountStaysConstantAcrossCalls) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this system";
  }
  for (const bool split : {false, true}) {
    SCOPED_TRACE(split ? "split" : "pipeline");
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(
        split ? o2_body("FilterBank") : sched::lower(pool_pipeline()), topt);
    tex.set_input_generator(split_input);
    const std::size_t before = task_count();
    tex.run_steady(2);
    const std::size_t after_first = task_count();
    // The pool starts lazily, one thread per worker but the caller's (a
    // sanitizer runtime may start a helper thread of its own with it).
    EXPECT_GE(after_first,
              before + static_cast<std::size_t>(tex.report().threads - 1));
    for (int call = 0; call < 100; ++call) {
      tex.run_steady(1 + call % 3);
      ASSERT_EQ(task_count(), after_first) << "call " << call;
    }
  }
}

TEST(TexecPool, DestructsWithParkedOrFailedWorkers) {
  {
    // Parked after a call.
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(sched::lower(pool_pipeline()), topt);
    tex.set_input_generator(split_input);
    tex.run_steady(3);
  }
  {
    // Built, never run: no pool at all.
    sched::ExecOptions topt;
    topt.threads = 4;
    const sched::ThreadedExecutor tex(o2_body("FIR"), topt);
  }
  {
    // One share threw: every lane finished, the call reran sequentially
    // and threw there, and the workers parked again.
    const ir::NodeP bad =
        filter("oob")
            .rates(1, 1, 1)
            .array_init("w", {Value(1.0), Value(2.0)})
            .work(seq({let("x", pop_()),
                       if_(v("x") > c(0.9), push_(at("w", ci(5))),
                           push_(v("x")))}))
            .node();
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(lower_ungated(bad), topt);
    ASSERT_EQ(tex.report().split, 4);
    tex.set_input_generator([](std::int64_t i) { return i == 6 ? 1.0 : 0.0; });
    try {
      tex.run_steady(8);
      ADD_FAILURE() << "the out-of-bounds load did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "array index out of bounds: w[5]");
    }
    EXPECT_EQ(tex.firings()[0], 6);  // the sequential firings before it
  }
  {
    // The pipeline's input owner threw on a starved input.
    sched::ExecOptions topt;
    topt.threads = 4;
    sched::ThreadedExecutor tex(sched::lower(pool_pipeline()), topt);
    tex.feed_input(std::vector<double>(64, 0.5));
    try {
      tex.run_steady(200);
      ADD_FAILURE() << "a starved input did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("starved"), std::string::npos)
          << e.what();
    }
  }
}

// A consumer whose input ring stays empty for longer than stall_ms aborts
// the call with the stall detector's message, and the executor still tears
// down.  The producer's second firing (on a worker, as every steady firing
// is) holds it back for a second: long enough for the detector's clock on a
// loaded host.
TEST(TexecPool, StallDetectorFiresOnAStarvedRing) {
  const auto stage = [](const std::string& name, bool slow) {
    ir::NativeFilter nf;
    nf.name = name;
    nf.pop = nf.peek = nf.push = 1;
    nf.cost_ops = nf.cost_flops = 1000;  // equal weights: one per worker
    auto fired = std::make_shared<int>(0);
    nf.work = [slow, fired](ir::NativeState*, ir::InTape& in,
                            ir::OutTape& out) {
      if (slow && ++*fired == 2) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
      out.push_item(in.pop_item());
    };
    return ir::make_native(std::move(nf));
  };
  sched::ExecOptions topt;
  topt.threads = 2;
  topt.batch = 1;
  topt.stall_ms = 1;
  sched::ThreadedExecutor tex(
      ir::make_pipeline("stall", {stage("slow", true), stage("fast", false)}),
      topt);
  ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  tex.set_input_generator(split_input);
  try {
    tex.run_steady(4);
    ADD_FAILURE() << "the starved consumer did not stall";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("threaded runtime stalled"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(tex.report().threads, 2);
}

// ---- placement planning -----------------------------------------------------

sched::CompiledProgram compiled_app(const std::string& app, opt::OptLevel level) {
  opt::CompileOptions copts;
  copts.level = level;
  return opt::compile(apps::make_app(app), copts);
}

// One splitter or joiner firing's channel traffic: the sum of its rates at
// the channel weight.
double traffic_weight(const runtime::FlatActor& a) {
  OpCounts c;
  for (const int r : a.in_rate) c.channel += r;
  for (const int r : a.out_rate) c.channel += r;
  return c.weighted();
}

// With no cost profile loaded, each actor weighs one steady state of its
// static cost: reps times a filter's or native's calibrated_ops_per_firing
// (the static estimate) or a splitter's or joiner's traffic.  The init
// epoch adds nothing.
TEST(TexecPlan, WeightsAreOneSteadyState) {
  obs::reset_cost_model();
  ASSERT_FALSE(obs::cost_model().calibrated());
  sched::ExecOptions topt;
  topt.threads = 4;
  topt.engine = sched::Engine::Fused;
  sched::ThreadedExecutor tex(compiled_app("Vocoder", opt::OptLevel::O2), topt);
  tex.run_steady(3);
  ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  const runtime::FlatGraph& g = tex.graph();
  ASSERT_EQ(m.actors.size(), g.actors.size());
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    const runtime::FlatActor& a = g.actors[i];
    const double per_firing =
        a.is_filter() ? linear::calibrated_ops_per_firing(*a.node, a.name)
                      : traffic_weight(a);
    EXPECT_EQ(m.actors[i].calib_cycles,
              static_cast<double>(tex.schedule().reps[i]) * per_firing)
        << a.name;
  }
}

// Every steady iteration runs on the workers, the first call's included.
TEST(TexecPlan, FirstCallRunsOnTheWorkers) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  sched::ExecOptions topt;
  topt.threads = 4;
  topt.trace = sched::TraceMode::On;
  sched::ThreadedExecutor tex(sched::lower(pool_pipeline()), topt);
  tex.set_input_generator(split_input);
  tex.run_steady(4);
  ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
  ASSERT_EQ(tex.report().split, 0);
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  ASSERT_EQ(m.workers.size(), static_cast<std::size_t>(tex.report().threads));
  for (const obs::WorkerSnapshot& w : m.workers) {
    EXPECT_EQ(w.iters, 4) << "worker " << w.id;
  }
}

// The planner's splitter and joiner weights are what the executor tallies:
// one Executor::fire of each adds exactly firing_weight cycles.
TEST(TexecPlan, SplitterAndJoinerWeightsMatchTheExecutorTallies) {
  int checked = 0;
  for (const auto& info : apps::all_apps()) {
    for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
      SCOPED_TRACE(info.name + (level == opt::OptLevel::O0 ? " -O0" : " -O2"));
      sched::Executor ex(compiled_app(info.name, level), {});
      const runtime::FlatGraph& g = ex.graph();
      const sched::Schedule& s = ex.schedule();
      if (g.input_edge >= 0) {
        std::vector<double> items(
            static_cast<std::size_t>(s.input_for_init + s.input_per_steady));
        for (std::size_t i = 0; i < items.size(); ++i) {
          items[i] = split_input(static_cast<std::int64_t>(i));
        }
        ex.feed_input(items);
      }
      ex.run_init();
      // One steady state, fired data-driven one firing at a time.
      std::vector<std::int64_t> left = s.reps;
      for (bool progress = true; progress;) {
        progress = false;
        for (const int actor : s.order) {
          const auto ai = static_cast<std::size_t>(actor);
          while (left[ai] > 0 && ex.can_fire(actor)) {
            const double before = ex.actor_ops()[ai].weighted();
            ex.fire(actor);
            const runtime::FlatActor& a = g.actors[ai];
            if (!a.is_filter()) {
              EXPECT_EQ(sched::firing_weight(a),
                        ex.actor_ops()[ai].weighted() - before)
                  << a.name;
              ++checked;
            }
            --left[ai];
            progress = true;
          }
        }
      }
      EXPECT_EQ(left, std::vector<std::int64_t>(left.size(), 0));
    }
  }
  EXPECT_GT(checked, 0);
}

// ---- the SPSC ring itself ---------------------------------------------------

TEST(SpscRing, FifoWraparoundAndCounters) {
  SpscRing r(8);  // rounds up to a power of two >= 8
  ASSERT_GE(r.capacity(), 8u);
  std::int64_t next_push = 0, next_pop = 0;
  // Coprime burst sizes force every alignment of the wrap point.
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(r.can_push(1));
      r.push_item(static_cast<double>(next_push++));
    }
    while (next_pop + 5 <= next_push && r.can_pop(5)) {
      ASSERT_TRUE(same_bits(r.peek_item(4), static_cast<double>(next_pop + 4)));
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(same_bits(r.pop_item(), static_cast<double>(next_pop++)));
      }
    }
  }
  while (r.can_pop(1)) {
    ASSERT_TRUE(same_bits(r.pop_item(), static_cast<double>(next_pop++)));
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(r.total_pushed(), next_push);
  EXPECT_EQ(r.total_popped(), next_pop);
  EXPECT_LE(r.high_water(), r.capacity());
}

TEST(SpscRing, PreloadCarriesChannelCounters) {
  SpscRing r(16);
  r.preload({1.0, 2.0, 3.0}, 103, 100);  // channel had pushed 103, popped 100
  EXPECT_EQ(r.total_pushed(), 103);
  EXPECT_EQ(r.total_popped(), 100);
  ASSERT_TRUE(r.can_pop(3));
  EXPECT_TRUE(same_bits(r.pop_item(), 1.0));
  r.push_item(4.0);
  EXPECT_EQ(r.total_pushed(), 104);
  EXPECT_EQ(r.total_popped(), 101);
  EXPECT_TRUE(same_bits(r.pop_item(), 2.0));
  EXPECT_TRUE(same_bits(r.pop_item(), 3.0));
  EXPECT_TRUE(same_bits(r.pop_item(), 4.0));
  EXPECT_FALSE(r.can_pop(1));
}

TEST(SpscRing, PopManyAndUnderrunThrow) {
  SpscRing r(8);
  for (int i = 0; i < 6; ++i) r.push_item(static_cast<double>(i));
  r.pop_many(4);
  EXPECT_EQ(r.total_popped(), 4);
  EXPECT_TRUE(same_bits(r.pop_item(), 4.0));
  EXPECT_THROW(r.pop_many(2), std::runtime_error);
  EXPECT_THROW(r.peek_item(1), std::runtime_error);
  EXPECT_TRUE(same_bits(r.peek_item(0), 5.0));
}

// Two real threads hammer one ring with coprime burst sizes through a
// capacity small enough to wrap thousands of times.  The consumer checks the
// exact item sequence -- any lost ordering, torn read, or stale cache would
// break it.  (Run under the TSan CI job, this is also the data-race probe.)
TEST(SpscRing, ConcurrentCoprimeStress) {
  SpscRing r(64);
  constexpr std::int64_t kItems = 120000;
  std::thread producer([&] {
    std::int64_t sent = 0;
    while (sent < kItems) {
      const std::int64_t burst = std::min<std::int64_t>(7, kItems - sent);
      while (!r.can_push(static_cast<std::size_t>(burst))) {
        std::this_thread::yield();
      }
      for (std::int64_t i = 0; i < burst; ++i) {
        r.push_item(static_cast<double>(sent++));
      }
    }
  });
  std::int64_t got = 0;
  bool ok = true;
  while (got < kItems) {
    const std::int64_t burst = std::min<std::int64_t>(11, kItems - got);
    while (!r.can_pop(static_cast<std::size_t>(burst))) {
      std::this_thread::yield();
    }
    ok = ok && same_bits(r.peek_item(static_cast<int>(burst - 1)),
                         static_cast<double>(got + burst - 1));
    for (std::int64_t i = 0; i < burst; ++i) {
      ok = ok && same_bits(r.pop_item(), static_cast<double>(got++));
    }
  }
  producer.join();
  EXPECT_TRUE(ok) << "ring delivered a wrong or reordered item";
  EXPECT_EQ(r.total_pushed(), kItems);
  EXPECT_EQ(r.total_popped(), kItems);
  EXPECT_FALSE(r.can_pop(1));
  EXPECT_LE(r.high_water(), r.capacity());
}

// Deferred mode batches ring publication: pushes and pops stay private to
// their side until an explicit publish, and each publish costs exactly one
// release store -- pinned via the cumulative publish counters.
TEST(SpscRing, DeferredBatchPublicationCounters) {
  SpscRing r(64, /*deferred=*/true);
  ASSERT_TRUE(r.deferred());
  EXPECT_EQ(r.tail_publishes(), 0);
  EXPECT_EQ(r.head_publishes(), 0);

  // A batch of 10 pushes is one release store, made at publish time.
  for (int i = 0; i < 10; ++i) r.push_item(static_cast<double>(i));
  EXPECT_EQ(r.tail_publishes(), 0);
  EXPECT_EQ(r.size(), 0u);  // nothing visible yet
  r.publish_tail();
  EXPECT_EQ(r.tail_publishes(), 1);
  EXPECT_EQ(r.size(), 10u);
  r.publish_tail();  // nothing new: no store
  EXPECT_EQ(r.tail_publishes(), 1);

  // Symmetric on the consumer side.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(same_bits(r.pop_item(), static_cast<double>(i)));
  }
  EXPECT_EQ(r.head_publishes(), 0);
  EXPECT_EQ(r.total_popped(), 0);  // quiescent counters track publishes
  r.publish_head();
  EXPECT_EQ(r.head_publishes(), 1);
  EXPECT_EQ(r.total_popped(), 10);
  r.publish_head();
  EXPECT_EQ(r.head_publishes(), 1);

  // Immediate mode (the default) publishes inside every push and once per
  // pop_many call, as before.
  SpscRing eager(64);
  EXPECT_FALSE(eager.deferred());
  for (int i = 0; i < 5; ++i) eager.push_item(static_cast<double>(i));
  EXPECT_EQ(eager.tail_publishes(), 5);
  eager.pop_many(3);
  EXPECT_EQ(eager.head_publishes(), 1);
  eager.pop_item();
  EXPECT_EQ(eager.head_publishes(), 2);
}

// Two real threads drive a deferred ring with coprime batch sizes: the
// producer publishes once per 7-item batch, the consumer once per 11-item
// batch, through a capacity small enough to wrap thousands of times.  The
// consumer checks the exact item sequence; the publish counters afterwards
// pin one release store per batch.  (Run under the TSan CI job, this is the
// data-race probe for the bulk-publication protocol.)
TEST(SpscRing, ConcurrentDeferredBatchStress) {
  SpscRing r(64, /*deferred=*/true);
  constexpr std::int64_t kItems = 110000;
  std::thread producer([&] {
    std::int64_t sent = 0;
    while (sent < kItems) {
      const std::int64_t burst = std::min<std::int64_t>(7, kItems - sent);
      while (!r.can_push(static_cast<std::size_t>(burst))) {
        std::this_thread::yield();
      }
      for (std::int64_t i = 0; i < burst; ++i) {
        r.push_item(static_cast<double>(sent++));
      }
      r.publish_tail();
    }
  });
  std::int64_t got = 0;
  bool ok = true;
  while (got < kItems) {
    const std::int64_t burst = std::min<std::int64_t>(11, kItems - got);
    while (!r.can_pop(static_cast<std::size_t>(burst))) {
      std::this_thread::yield();
    }
    ok = ok && same_bits(r.peek_item(static_cast<int>(burst - 1)),
                         static_cast<double>(got + burst - 1));
    for (std::int64_t i = 0; i < burst; ++i) {
      ok = ok && same_bits(r.pop_item(), static_cast<double>(got++));
    }
    r.publish_head();
  }
  producer.join();
  EXPECT_TRUE(ok) << "deferred ring delivered a wrong or reordered item";
  EXPECT_EQ(r.total_pushed(), kItems);
  EXPECT_EQ(r.total_popped(), kItems);
  EXPECT_EQ(r.tail_publishes(), (kItems + 6) / 7);
  EXPECT_EQ(r.head_publishes(), (kItems + 10) / 11);
  EXPECT_FALSE(r.can_pop(1));
  EXPECT_LE(r.high_water(), r.capacity());
}

}  // namespace
}  // namespace sit
