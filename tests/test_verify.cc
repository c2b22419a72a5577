// Tests for the pass-pipeline semantic verifier (analysis/verify.h) and the
// static channel-bound analysis (analysis/bounds_chan.h).
//
//   * Every built-in app verifies clean, and hand-corrupted flat graphs are
//     rejected with the right stable diagnostic code (V-STRUCT, V-SJ,
//     V-ORDER, V-SCHED).
//   * Each way sched::make_schedule refuses a graph (zero-rate endpoint,
//     inconsistent rates, an init producer that produces nothing, init
//     non-convergence, steady deadlock) throws its typed ScheduleError, and
//     the verifier and the analysis gate report it naming the culprit.
//   * Seeded mutation passes corrupt the IR mid-pipeline (wrong rate,
//     duplicated state); PassOptions::verify_each must pin the *offending
//     pass by name* in the thrown message and leave the coded diagnostic in
//     the context.
//   * Property: the static per-edge bounds dominate the observed high-water
//     occupancy on every app x optimization level x thread count, and match
//     it exactly on the linear chain apps under the in-order discipline.
//   * SIT_VERIFY parsing and VerifyMode resolution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bounds_chan.h"
#include "analysis/graph_checks.h"
#include "analysis/verify.h"
#include "apps/apps.h"
#include "apps/common.h"
#include "ir/dsl.h"
#include "obs/metrics.h"
#include "opt/compile.h"
#include "opt/pass_manager.h"
#include "runtime/flatgraph.h"
#include "sched/envopts.h"
#include "sched/schedule.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace sit::ir::dsl;
using analysis::Diagnostic;

bool has_code(const std::vector<Diagnostic>& ds, const std::string& code) {
  for (const auto& d : ds) {
    if (d.code == code && d.is_error()) return true;
  }
  return false;
}

// Drop the final sink so the program output edge is observable (mirrors
// test_pipeline_diff.cc).
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

// ---- the verifier accepts every shipped program -----------------------------

TEST(Verify, AllAppsVerifyClean) {
  for (const auto& a : apps::all_apps()) {
    const auto ds = analysis::verify_graph(a.make());
    EXPECT_FALSE(analysis::has_errors(ds))
        << a.name << ":\n" << analysis::render(ds);
  }
}

// ---- hand-corrupted flat graphs ---------------------------------------------

TEST(Verify, CorruptEdgeEndpointIsStructError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FIR"));
  g.edges[0].dst = 99;  // no such actor
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-STRUCT")) << analysis::render(ds);
}

TEST(Verify, NegativeRateIsStructError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FIR"));
  for (auto& a : g.actors) {
    if (a.is_filter() && !a.in_rate.empty()) {
      a.in_rate[0] = -1;
      break;
    }
  }
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-STRUCT")) << analysis::render(ds);
}

// Only a zero-rate port may lack an edge: a filter output port that pushes
// items but names no edge is a V-STRUCT error of its own (the edge that
// still points at the port is reported too).
TEST(Verify, EdgelessPositiveRatePortIsStructError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FIR"));
  bool corrupted = false;
  for (auto& a : g.actors) {
    if (a.is_filter() && a.push_rate() > 0) {
      a.out_edges[0] = -1;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "FIR has no pushing filter?";
  const auto ds = analysis::verify_flat(g);
  bool named = false;
  for (const auto& d : ds) {
    named = named || (d.code == "V-STRUCT" &&
                      d.message.find("produces items but has no edge") !=
                          std::string::npos);
  }
  EXPECT_TRUE(named) << analysis::render(ds);
}

TEST(Verify, DuplicateSplitterBranchWeightIsSplitjoinError) {
  runtime::FlatGraph g = runtime::flatten(apps::make_app("FilterBank"));
  bool corrupted = false;
  for (auto& a : g.actors) {
    if (a.kind == runtime::FlatActor::Kind::Splitter &&
        a.sj == ir::SJKind::Duplicate) {
      a.out_rate[0] = 2;  // duplicate branches must carry exactly one
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "FilterBank has no duplicate splitter?";
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-SJ")) << analysis::render(ds);
}

TEST(Verify, CyclicActorOrderIsOrderError) {
  // Two 1->1 filters feeding each other with no initial items: structurally
  // well-formed and rate-consistent, but no forward topological order (and
  // no schedule) exists.
  const ir::NodeP na =
      filter("a").rates(1, 1, 1).work(seq({push_(pop_())})).node();
  const ir::NodeP nb =
      filter("b").rates(1, 1, 1).work(seq({push_(pop_())})).node();
  runtime::FlatGraph g;
  runtime::FlatActor a;
  a.kind = runtime::FlatActor::Kind::Filter;
  a.name = "a";
  a.node = na.get();
  a.in_edges = {1};
  a.out_edges = {0};
  a.in_rate = {1};
  a.out_rate = {1};
  runtime::FlatActor b = a;
  b.name = "b";
  b.node = nb.get();
  b.in_edges = {0};
  b.out_edges = {1};
  g.actors = {a, b};
  runtime::FlatEdge e0;
  e0.src = 0;
  e0.dst = 1;
  runtime::FlatEdge e1;
  e1.src = 1;
  e1.dst = 0;
  g.edges = {e0, e1};
  const auto ds = analysis::verify_flat(g);
  EXPECT_TRUE(has_code(ds, "V-ORDER")) << analysis::render(ds);
}

TEST(Verify, StarvedFeedbackLoopIsSchedError) {
  // Feedback loop with delay 0: rates solve, but the joiner needs a back-edge
  // item before anything was ever produced -- initialization cannot start.
  auto loop = ir::make_feedback(
      "starved", ir::roundrobin_join({1, 1}), ir::dsl::identity("body"),
      ir::roundrobin_split({1, 1}), ir::dsl::identity("echo"), /*delay=*/0,
      /*init_path=*/{});
  auto g = ir::make_pipeline(
      "demo", {apps::rand_source("src"), std::move(loop),
               apps::null_sink("sink", 1)});
  const auto ds = analysis::verify_graph(g);
  EXPECT_TRUE(has_code(ds, "V-SCHED")) << analysis::render(ds);
}

// ---- every scheduler failure kind, through every consumer -------------------

// Builds a flat graph by hand: actors first (ports unconnected), then edges.
struct FlatBuilder {
  runtime::FlatGraph g;
  std::vector<ir::NodeP> nodes;  // keeps the filters' defining nodes alive

  int actor(runtime::FlatActor::Kind kind, const std::string& name,
            std::vector<int> in_rate, std::vector<int> out_rate,
            int peek_extra = 0) {
    runtime::FlatActor a;
    a.kind = kind;
    a.name = name;
    if (kind == runtime::FlatActor::Kind::Filter) {
      nodes.push_back(ir::dsl::identity(name));
      a.node = nodes.back().get();
      a.peek_extra = peek_extra;
    }
    a.in_edges.assign(in_rate.size(), -1);
    a.out_edges.assign(out_rate.size(), -1);
    a.in_rate = std::move(in_rate);
    a.out_rate = std::move(out_rate);
    g.actors.push_back(std::move(a));
    return static_cast<int>(g.actors.size()) - 1;
  }
  int filter(const std::string& name, int pop, int push, int peek_extra = 0) {
    return actor(runtime::FlatActor::Kind::Filter, name, {pop}, {push},
                 peek_extra);
  }
  // src or dst -1 is the program boundary.
  int edge(int src, int src_port, int dst, int dst_port,
           std::size_t initial_items = 0, bool back = false) {
    const int id = static_cast<int>(g.edges.size());
    runtime::FlatEdge e;
    e.src = src;
    e.src_port = src_port;
    e.dst = dst;
    e.dst_port = dst_port;
    e.back_edge = back;
    e.initial_items.assign(initial_items, 0.0);
    g.edges.push_back(e);
    if (src >= 0) {
      g.actors[static_cast<std::size_t>(src)]
          .out_edges[static_cast<std::size_t>(src_port)] = id;
    } else {
      g.input_edge = id;
    }
    if (dst >= 0) {
      g.actors[static_cast<std::size_t>(dst)]
          .in_edges[static_cast<std::size_t>(dst_port)] = id;
    } else {
      g.output_edge = id;
    }
    return id;
  }
};

// A feedback loop as the flattener lays it out: loop.fbjoin (round-robin
// 1, join_back) -> body -> loop.fbsplit (round-robin 1, split_back) -> out,
// with the splitter's second branch through `echo` back into the joiner
// over a back edge that holds no items.
struct LoopShape {
  int join_back{1};
  int split_back{1};
  int body_peek_extra{0};
  int echo_pop{1};
  int echo_peek_extra{0};
};

void feedback_loop(FlatBuilder& b, const LoopShape& l) {
  using K = runtime::FlatActor::Kind;
  const int join = b.actor(K::Joiner, "loop.fbjoin", {1, l.join_back},
                           {1 + l.join_back});
  const int body = b.filter("body", 1, 1, l.body_peek_extra);
  const int split = b.actor(K::Splitter, "loop.fbsplit", {1 + l.split_back},
                            {1, l.split_back});
  const int echo = b.filter("echo", l.echo_pop, 1, l.echo_peek_extra);
  b.edge(-1, 0, join, 0);
  b.edge(join, 0, body, 0);
  b.edge(body, 0, split, 0);
  b.edge(split, 0, -1, 0);
  b.edge(split, 1, echo, 0);
  b.edge(echo, 0, join, 1, /*initial_items=*/0, /*back=*/true);
}

// The same loop as a program, between a source and a sink.  The filters'
// work functions only need the declared rates: they never run.
ir::NodeP ir_feedback_loop(const LoopShape& l) {
  const auto leaf = [](const std::string& name, int pop, int peek_extra) {
    return filter(name)
        .rates(pop + peek_extra, pop, 1)
        .work(seq({push_(peek_(ci(pop + peek_extra - 1)))}))
        .node();
  };
  auto loop = ir::make_feedback(
      "loop", ir::roundrobin_join({1, l.join_back}),
      leaf("body", 1, l.body_peek_extra),
      ir::roundrobin_split({1, l.split_back}),
      leaf("echo", l.echo_pop, l.echo_peek_extra), /*delay=*/0,
      /*init_path=*/{});
  return ir::make_pipeline("t", {apps::rand_source("src"), std::move(loop),
                                 apps::null_sink("sink", 1)});
}

TEST(ScheduleError, EachFailureKindReachesVerifierAndGate) {
  using Kind = sched::ScheduleError::Kind;
  struct Case {
    const char* name;
    std::function<void(FlatBuilder&)> build;
    Kind kind;
    const char* code;  // verify_flat's diagnostic code
    std::string where;
    std::vector<std::string> stuck;  // actor names, Init/Steady deadlocks
    bool names_back_edge;
    // The same failure as a hierarchical program.
    std::function<ir::NodeP()> program;
  };
  const std::vector<Case> cases = {
      {"zero-rate endpoint",
       [](FlatBuilder& b) { feedback_loop(b, {.join_back = 0}); },
       Kind::Rates, "V-RATES", "echo -> loop.fbjoin", {}, false,
       [] { return ir_feedback_loop({.join_back = 0}); }},
      {"inconsistent rates",
       [](FlatBuilder& b) { feedback_loop(b, {.echo_pop = 2}); },
       Kind::Rates, "V-RATES", "body", {}, false,
       [] { return ir_feedback_loop({.echo_pop = 2}); }},
      {"init producer produces nothing",
       [](FlatBuilder& b) {
         feedback_loop(b, {.split_back = 0, .echo_pop = 0,
                           .echo_peek_extra = 2});
       },
       Kind::Init, "V-SCHED", "loop.fbsplit", {}, false,
       [] {
         return ir_feedback_loop(
             {.split_back = 0, .echo_pop = 0, .echo_peek_extra = 2});
       }},
      {"init does not converge",
       [](FlatBuilder& b) { feedback_loop(b, {.body_peek_extra = 1}); },
       Kind::Init, "V-SCHED", "<init schedule>", {}, true,
       [] { return ir_feedback_loop({.body_peek_extra = 1}); }},
      {"steady deadlock", [](FlatBuilder& b) { feedback_loop(b, {}); },
       Kind::Steady, "V-SCHED", "<steady schedule>",
       {"loop.fbjoin", "body", "loop.fbsplit", "echo"}, true,
       [] { return ir_feedback_loop({}); }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FlatBuilder b;
    c.build(b);
    const runtime::FlatGraph& g = b.g;

    try {
      (void)sched::make_schedule(g);
      ADD_FAILURE() << "make_schedule accepted the graph";
    } catch (const sched::ScheduleError& e) {
      EXPECT_EQ(e.kind, c.kind) << e.what();
      EXPECT_EQ(e.where, c.where) << e.what();
      std::vector<std::string> stuck;
      for (const int a : e.stuck) {
        stuck.push_back(g.actors[static_cast<std::size_t>(a)].name);
      }
      EXPECT_EQ(stuck, c.stuck) << e.what();
      if (c.names_back_edge) {
        ASSERT_EQ(e.back_edges.size(), 1u) << e.what();
        EXPECT_TRUE(g.edges[static_cast<std::size_t>(e.back_edges[0])].back_edge);
        EXPECT_NE(e.detail.find("back edges: echo -> loop.fbjoin (0 initial "
                                "items)"),
                  std::string::npos)
            << e.detail;
      } else {
        EXPECT_TRUE(e.back_edges.empty()) << e.what();
      }
    }

    const auto ds = analysis::verify_flat(g);
    ASSERT_EQ(ds.size(), 1u) << analysis::render(ds);
    EXPECT_EQ(ds[0].code, c.code) << analysis::render(ds);
    EXPECT_EQ(ds[0].where, c.where) << analysis::render(ds);

    std::vector<Diagnostic> gate;
    analysis::check_graph(c.program(), gate);
    ASSERT_EQ(gate.size(), 1u) << analysis::render(gate);
    EXPECT_EQ(gate[0].pass, "rates") << analysis::render(gate);
    EXPECT_EQ(gate[0].where, c.where) << analysis::render(gate);
  }
}

// ---- seeded mid-pipeline mutations ------------------------------------------

// Bumps the push rate of the first filter it finds inside a splitjoin,
// making the balance equations unsolvable.
ir::NodeP bump_push(const ir::NodeP& n, bool in_sj, bool* done) {
  if (n->kind == ir::Node::Kind::Filter) {
    if (in_sj && !*done) {
      ir::FilterSpec spec = n->filter;
      spec.push += 1;
      *done = true;
      return ir::make_filter(std::move(spec));
    }
    return n;
  }
  if (n->kind == ir::Node::Kind::Native) return n;
  const bool inner = in_sj || n->kind == ir::Node::Kind::SplitJoin;
  std::vector<ir::NodeP> kids;
  kids.reserve(n->children.size());
  for (const auto& c : n->children) kids.push_back(bump_push(c, inner, done));
  switch (n->kind) {
    case ir::Node::Kind::Pipeline:
      return ir::make_pipeline(n->name, std::move(kids));
    case ir::Node::Kind::SplitJoin:
      return ir::make_splitjoin(n->name, n->split, n->join, std::move(kids));
    case ir::Node::Kind::FeedbackLoop:
      return ir::make_feedback(n->name, n->join, kids[0], n->split, kids[1],
                               n->delay, n->init_path);
    default:
      return n;
  }
}

class BreakRatesPass final : public opt::Pass {
 public:
  const char* name() const override { return "break-rates"; }
  const char* description() const override { return "seeded rate corruption"; }
  opt::PassResult run(const ir::NodeP& root, opt::PassContext&) override {
    bool done = false;
    ir::NodeP out = bump_push(root, false, &done);
    EXPECT_TRUE(done) << "mutation found no splitjoin filter to corrupt";
    return {std::move(out), true};
  }
};

// Duplicates the root pipeline's middle stage *by reference*: two flat
// actors end up sharing one ir::Node (and therefore one logical state),
// which exactly one partition must own.
class DupStatePass final : public opt::Pass {
 public:
  const char* name() const override { return "dup-state"; }
  const char* description() const override { return "seeded state aliasing"; }
  opt::PassResult run(const ir::NodeP& root, opt::PassContext&) override {
    EXPECT_EQ(root->kind, ir::Node::Kind::Pipeline);
    EXPECT_GE(root->children.size(), 3u);
    std::vector<ir::NodeP> kids = root->children;
    kids.insert(kids.begin() + 1, kids[1]);  // same NodeP twice
    return {ir::make_pipeline(root->name, std::move(kids)), true};
  }
};

void expect_mutation_pinned(const std::string& app, opt::PassManager& pm,
                            const std::string& mutator,
                            const std::string& code) {
  opt::PassContext ctx;
  ctx.options.verify_each = opt::VerifyMode::Each;
  const std::vector<std::string> names = {"validate", "analysis-gate", mutator,
                                          "const-fold"};
  try {
    pm.run(apps::make_app(app), names, ctx);
    FAIL() << "verify_each missed the '" << mutator << "' corruption";
  } catch (const std::runtime_error& e) {
    // The throw must pin the offending pass by name...
    EXPECT_NE(std::string(e.what()).find("after pass '" + mutator + "'"),
              std::string::npos)
        << e.what();
  }
  // ...and the context carries the coded diagnostic.
  EXPECT_TRUE(has_code(ctx.diagnostics, code))
      << analysis::render(ctx.diagnostics);
  for (const auto& d : ctx.diagnostics) {
    if (d.code == code) {
      EXPECT_NE(d.message.find("after pass '" + mutator + "'"),
                std::string::npos);
    }
  }
}

TEST(VerifyEach, PinsRateCorruptionToOffendingPass) {
  opt::PassManager pm;
  pm.register_pass(std::make_unique<BreakRatesPass>());
  expect_mutation_pinned("FilterBank", pm, "break-rates", "V-RATES");
}

TEST(VerifyEach, PinsStateAliasingToOffendingPass) {
  opt::PassManager pm;
  pm.register_pass(std::make_unique<DupStatePass>());
  expect_mutation_pinned("FMRadio", pm, "dup-state", "V-STATE");
}

TEST(VerifyEach, CleanPipelineIsUndisturbed) {
  // With no corruption, verify-each is a no-op on the artifact: the full -O2
  // pipeline compiles every app with zero diagnostics from the verifier.
  for (const auto& a : apps::all_apps()) {
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O2;
    copts.pass.verify_each = opt::VerifyMode::Each;
    opt::PassContext ctx;
    EXPECT_NO_THROW(opt::compile(a.make(), copts, &ctx)) << a.name;
    EXPECT_FALSE(analysis::has_errors(ctx.diagnostics)) << a.name;
  }
}

// ---- bounds dominate observed occupancy -------------------------------------

bool is_linear_chain(const std::string& name) {
  return name == "FIR" || name == "RateConvert" || name == "DtoA" ||
         name == "Oversampler";
}

TEST(ChannelBounds, DominateObservedHighWaterOnAllApps) {
  for (const auto& a : apps::all_apps()) {
    for (const opt::OptLevel level :
         {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      // Batch factors: 1 (unbatched), -1 (auto heuristic), and one explicit
      // multi-iteration chunk.  Batching only matters on the threaded path,
      // so the sequential run exercises batch=1 alone.
      for (const int threads : {1, 4}) {
        for (const int batch : {1, -1, 4}) {
          if (threads == 1 && batch != 1) continue;
          opt::CompileOptions copts;
          copts.level = level;
          copts.exec.threads = threads;
          sched::CompiledProgram prog;
          try {
            prog = opt::compile(observable(a.make()), copts);
          } catch (const std::exception& e) {
            FAIL() << a.name << ": " << e.what();
          }
          sched::ExecOptions eopts;
          eopts.threads = threads;
          eopts.batch = batch;
          sched::ThreadedExecutor ex(std::move(prog), eopts);
          if (ex.graph().input_edge >= 0) {
            ex.set_input_generator([](std::int64_t i) {
              return static_cast<double>((i % 32) - 16) / 16.0;
            });
          }
          ex.run_steady(6);
          const obs::MetricsSnapshot m = ex.metrics_snapshot();
          const std::string what = a.name + " level=" +
                                   std::to_string(static_cast<int>(level)) +
                                   " threads=" + std::to_string(threads) +
                                   " batch=" + std::to_string(batch);
          ASSERT_FALSE(m.edges.empty()) << what;
          for (const auto& e : m.edges) {
            if (e.src < 0 || e.dst < 0) continue;  // unbounded boundary edges
            ASSERT_GE(e.bound_items, 0) << what << " edge " << e.name;
            EXPECT_LE(e.peak_items, e.bound_items)
                << what << " edge " << e.name;
            // In-order single-threaded runs track exact peaks at firing
            // boundaries; on the linear chain apps the bound is tight.
            // The fused engine lowers internal channels to trace buffers, so
            // it never observes intermediate occupancy -- high water is the
            // one metric fusion explicitly does not preserve (runtime/fused.h).
            if (threads == 1 && is_linear_chain(a.name) &&
                ex.engine() != sched::Engine::Fused) {
              EXPECT_EQ(e.peak_items, e.bound_items)
                  << what << " edge " << e.name;
            }
          }
        }
      }
    }
  }
}

// The executor notes high water only on the fired actor's own channels (the
// only ones a firing resizes).  That must still be the exact peak occupancy
// over every firing boundary, on every edge, not just the linear chains the
// test above pins.
TEST(ChannelBounds, HighWaterIsPeakOverEveryFiringOnAllApps) {
  constexpr int kSteady = 3;
  for (const auto& a : apps::all_apps()) {
    SCOPED_TRACE(a.name);
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O0;
    sched::ExecOptions eopts;
    eopts.engine = sched::Engine::Fused;
    sched::Executor ex(opt::compile(a.make(), copts), eopts);
    const runtime::FlatGraph& g = ex.graph();
    const sched::Schedule& s = ex.schedule();
    if (g.input_edge >= 0) {
      std::vector<double> items(static_cast<std::size_t>(
          s.input_for_init + kSteady * s.input_per_steady));
      for (std::size_t i = 0; i < items.size(); ++i) {
        items[i] = static_cast<double>(i % 7);
      }
      ex.feed_input(items);
    }
    std::vector<std::size_t> peak(g.edges.size(), 0);
    const auto epoch = [&](std::vector<std::int64_t> quota) {
      for (bool progress = true; progress;) {
        progress = false;
        for (const int actor : s.order) {
          auto& left = quota[static_cast<std::size_t>(actor)];
          for (; left > 0 && ex.can_fire(actor); --left) {
            ex.fire(actor);
            progress = true;
            for (std::size_t e = 0; e < g.edges.size(); ++e) {
              peak[e] = std::max(peak[e],
                                 ex.channel(static_cast<int>(e)).size());
            }
          }
        }
      }
      for (const std::int64_t left : quota) ASSERT_EQ(left, 0);
    };
    epoch(s.init_fires);
    for (int i = 0; i < kSteady; ++i) epoch(s.reps);
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      EXPECT_EQ(ex.channel(static_cast<int>(e)).high_water(), peak[e])
          << "edge " << e;
    }
  }
}

TEST(ChannelBounds, ThreadedExecutorExposesBounds) {
  opt::CompileOptions copts;
  copts.level = opt::OptLevel::O0;
  copts.exec.threads = 4;
  sched::CompiledProgram prog = opt::compile(apps::make_app("FMRadio"), copts);
  sched::ExecOptions eopts;
  eopts.threads = 4;
  sched::ThreadedExecutor ex(std::move(prog), eopts);
  ex.run_steady(4);
  const analysis::ChannelBounds& b = ex.bounds();
  ASSERT_TRUE(b.single_appearance);
  ASSERT_EQ(b.post_init.size(), ex.graph().edges.size());
  for (std::size_t e = 0; e < ex.graph().edges.size(); ++e) {
    const auto& ed = ex.graph().edges[e];
    if (ed.src < 0 || ed.dst < 0) {
      EXPECT_EQ(b.post_init[e], -1);
      continue;
    }
    EXPECT_GE(b.post_init[e], 0);
    // The ring bound covers the post-init level plus every in-flight epoch;
    // the channel bound covers at least the resident post-init level.  (The
    // two are incomparable in general: in-order firing peaks can exceed the
    // epoch-granularity ring bound and vice versa.)
    EXPECT_GE(b.pipelined(e, sched::kPipelineWindow),
              b.post_init[e] + b.traffic[e]);
    EXPECT_GE(b.channel_bound(e), b.post_init[e]);
    // The batched generalizations: pipelined(e, W, B) = L0 + (W+1)*B*T,
    // monotone in B; the batched channel bound dominates the unbatched one.
    for (const std::int64_t batch : {1, 3, 8}) {
      EXPECT_EQ(b.pipelined(e, sched::kPipelineWindow, batch),
                b.post_init[e] +
                    (sched::kPipelineWindow + 1) * batch * b.traffic[e]);
      EXPECT_GE(b.channel_bound(e, batch), b.channel_bound(e));
    }
  }
  // An admissible single-appearance program supports at least batch 1.
  EXPECT_GE(b.max_batch, 1);
}

// ---- SIT_VERIFY resolution --------------------------------------------------

TEST(VerifyMode, EnvResolution) {
  const char* saved = std::getenv("SIT_VERIFY");
  const std::string saved_val = saved ? saved : "";

  ::unsetenv("SIT_VERIFY");
  EXPECT_EQ(env_verify(), 0);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Auto),
            opt::VerifyMode::Off);

  ::setenv("SIT_VERIFY", "each", 1);
  EXPECT_EQ(env_verify(), 2);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Auto),
            opt::VerifyMode::Each);

  ::setenv("SIT_VERIFY", "final", 1);
  EXPECT_EQ(env_verify(), 1);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Auto),
            opt::VerifyMode::Final);

  ::setenv("SIT_VERIFY", "on", 1);
  EXPECT_EQ(env_verify(), 1);

  ::setenv("SIT_VERIFY", "nonsense", 1);
  EXPECT_EQ(env_verify(), 0);

  // Explicit modes pass through regardless of the environment.
  ::setenv("SIT_VERIFY", "each", 1);
  EXPECT_EQ(opt::resolve_verify_mode(opt::VerifyMode::Off),
            opt::VerifyMode::Off);

  if (saved) {
    ::setenv("SIT_VERIFY", saved_val.c_str(), 1);
  } else {
    ::unsetenv("SIT_VERIFY");
  }
}

}  // namespace
}  // namespace sit
