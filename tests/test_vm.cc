// Differential tests: the per-actor typed VM must be observationally
// identical to the tree interpreter.  Every built-in application and a
// population of randomized work functions run under both engines; outputs,
// filter state, operation counts and cumulative channel counters are held
// bit-equal.  Also covers the ring-buffer channel itself and the fallback
// chain: filters outside the compiled subset, or refused by the typed
// lowering, run on the tree interpreter bit-equal to the tree engine, sent
// messages included.

#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "runtime/channel.h"
#include "runtime/compile.h"
#include "runtime/interp.h"
#include "runtime/typed.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::Value;
using runtime::Channel;
using runtime::FilterState;
using runtime::Interp;
using runtime::OpCounts;
using runtime::SentMessage;

// ---- comparison helpers -----------------------------------------------------

// Bit-level double equality: NaN == NaN, and +0.0 != -0.0.  The two engines
// share the scalar kernels in eval_ops.h, so even NaN payloads must agree.
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

// `spec` on the per-actor typed VM against `st` (already initialized), or
// null when the compiler or the typed lowering refuses it.
std::unique_ptr<runtime::TypedBound> bind_typed(const ir::FilterSpec& spec,
                                                FilterState& st) {
  auto tp = runtime::typed_compile(spec, runtime::compile_filter(spec), st);
  return tp ? std::make_unique<runtime::TypedBound>(std::move(tp), st)
            : nullptr;
}

// ---- whole-application differential -----------------------------------------

// Run every built-in app under both engines and hold all observables equal:
// program output (bitwise), per-actor firing tallies and OpCounts, the
// cumulative n(t)/p(t) counters of every channel, and the final state of
// every AST filter.
TEST(VmDifferential, AllAppsMatchTreeInterpreter) {
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    sched::ExecOptions topt;
    topt.engine = sched::Engine::Tree;
    sched::Executor tree(info.make(), topt);
    sched::ExecOptions vopt;
    vopt.engine = sched::Engine::Vm;
    sched::Executor vm(info.make(), vopt);

    ASSERT_EQ(tree.engine(), sched::Engine::Tree);
    ASSERT_EQ(vm.engine(), sched::Engine::Vm);

    const auto tout = tree.run_steady(2);
    const auto vout = vm.run_steady(2);
    expect_same_doubles(tout, vout, info.name + " output");

    const auto& g = tree.graph();
    ASSERT_EQ(g.actors.size(), vm.graph().actors.size());
    EXPECT_EQ(tree.firings(), vm.firings()) << info.name;
    for (std::size_t a = 0; a < g.actors.size(); ++a) {
      expect_same_counts(tree.actor_ops()[a], vm.actor_ops()[a],
                         info.name + "/" + g.actors[a].name);
      if (g.actors[a].kind == runtime::FlatActor::Kind::Filter) {
        expect_same_state(tree.filter_state(static_cast<int>(a)),
                          vm.filter_state(static_cast<int>(a)),
                          info.name + "/" + g.actors[a].name);
      }
    }
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const int ei = static_cast<int>(e);
      EXPECT_EQ(tree.channel(ei).total_pushed(), vm.channel(ei).total_pushed())
          << info.name << " edge " << e;
      EXPECT_EQ(tree.channel(ei).total_popped(), vm.channel(ei).total_popped())
          << info.name << " edge " << e;
    }
  }
}

// The point of the engine: the hot filters of the evaluation apps must
// actually run on the typed VM, not silently fall back.
TEST(VmDifferential, EvaluationAppFiltersCompile) {
  for (const std::string name : {"FIR", "Vocoder", "FMRadio", "FilterBank"}) {
    SCOPED_TRACE(name);
    sched::ExecOptions opt;
    opt.engine = sched::Engine::Vm;
    sched::Executor ex(apps::make_app(name), opt);
    int compiled = 0, filters = 0;
    const auto& g = ex.graph();
    for (std::size_t a = 0; a < g.actors.size(); ++a) {
      if (g.actors[a].kind != runtime::FlatActor::Kind::Filter) continue;
      ++filters;
      if (ex.actor_uses_vm(static_cast<int>(a))) ++compiled;
    }
    ASSERT_GT(filters, 0);
    EXPECT_EQ(compiled, filters) << name << ": some filters fell back";
  }
}

// ---- randomized work functions ----------------------------------------------

// Grammar-directed random AST generator over the compiled subset: state
// scalars (one float, one int), a state array, invocation locals, peeks,
// arithmetic and comparisons, conditionals and for loops.  Division and
// shifts are excluded so no input can throw or hit UB; everything else is
// fair game.  Fixed seeds keep failures reproducible.
class AstGen {
 public:
  explicit AstGen(std::uint32_t seed) : g_(seed) {}

  ir::FilterSpec make_spec(int idx) {
    const int peekw = 3, popn = 2, pushn = 2;
    auto b = filter("rand" + std::to_string(idx))
                 .rates(peekw, popn, pushn)
                 .scalar("fs", Value{0.5})
                 .iscalar("ks", 3)
                 .array("arr", 4);
    std::vector<ir::StmtP> body;
    locals_.clear();
    const int stmts = irange(2, 5);
    for (int i = 0; i < stmts; ++i) body.push_back(rand_stmt(2));
    for (int i = 0; i < pushn; ++i) body.push_back(push_(E(rand_expr(3))));
    body.push_back(discard(popn));
    return b.work(std::move(body)).build();
  }

 private:
  int irange(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(g_);
  }
  double dval() {
    return std::uniform_real_distribution<double>(-2.0, 2.0)(g_);
  }

  ir::ExprP rand_expr(int depth) {
    if (depth <= 0 || irange(0, 3) == 0) {
      switch (irange(0, 5)) {
        case 0: return ir::iconst(irange(-3, 7));
        case 1: return ir::fconst(dval());
        case 2: return ir::peek(ir::iconst(irange(0, 2)));
        case 3: return ir::var(irange(0, 1) ? "fs" : "ks");
        case 4: return ir::aref("arr", ir::iconst(irange(0, 3)));
        default:
          if (!locals_.empty()) return ir::var(locals_[static_cast<std::size_t>(
              irange(0, static_cast<int>(locals_.size()) - 1))]);
          return ir::iconst(irange(0, 9));
      }
    }
    switch (irange(0, 9)) {
      case 0: return ir::bin(ir::BinOp::Add, rand_expr(depth - 1), rand_expr(depth - 1));
      case 1: return ir::bin(ir::BinOp::Sub, rand_expr(depth - 1), rand_expr(depth - 1));
      case 2: return ir::bin(ir::BinOp::Mul, rand_expr(depth - 1), rand_expr(depth - 1));
      case 3: return ir::bin(ir::BinOp::Min, rand_expr(depth - 1), rand_expr(depth - 1));
      case 4: return ir::bin(ir::BinOp::Max, rand_expr(depth - 1), rand_expr(depth - 1));
      case 5: return ir::bin(ir::BinOp::Lt, rand_expr(depth - 1), rand_expr(depth - 1));
      case 6: return ir::bin(irange(0, 1) ? ir::BinOp::LAnd : ir::BinOp::LOr,
                             rand_expr(depth - 1), rand_expr(depth - 1));
      case 7: {
        const auto u = std::vector<ir::UnOp>{ir::UnOp::Neg, ir::UnOp::Abs,
                                             ir::UnOp::Sin, ir::UnOp::Cos,
                                             ir::UnOp::Floor, ir::UnOp::ToInt,
                                             ir::UnOp::ToFloat};
        return ir::un(u[static_cast<std::size_t>(irange(0, 6))], rand_expr(depth - 1));
      }
      case 8: return ir::cond(rand_expr(depth - 1), rand_expr(depth - 1),
                              rand_expr(depth - 1));
      default: return ir::bin(ir::BinOp::Add, rand_expr(depth - 1),
                              rand_expr(depth - 1));
    }
  }

  ir::StmtP rand_stmt(int depth) {
    switch (irange(0, depth > 0 ? 5 : 3)) {
      case 0: {
        const std::string name = "t" + std::to_string(locals_.size());
        auto s = ir::assign(name, rand_expr(2));
        locals_.push_back(name);
        return s;
      }
      case 1: return ir::assign(irange(0, 1) ? "fs" : "ks", rand_expr(2));
      case 2:
        return ir::array_assign("arr", ir::iconst(irange(0, 3)), rand_expr(2));
      case 3:
        // Loop over the state array; loop bounds are part of the compiled
        // subset's happy path, the body mutates state each iteration.
        return for_("i", 0, irange(1, 4),
                    ir::array_assign("arr", ir::var("i"),
                                     ir::bin(ir::BinOp::Add,
                                             ir::aref("arr", ir::var("i")),
                                             rand_expr(1))));
      case 4: {
        // If with a then-only branch: anything assigned inside is
        // deliberately NOT read afterwards (locals_ snapshot restored).
        const auto snap = locals_.size();
        auto s = ir::if_then(rand_expr(2), rand_stmt(depth - 1));
        locals_.resize(snap);
        return s;
      }
      default: {
        const auto snap = locals_.size();
        auto s = ir::if_else(rand_expr(2), rand_stmt(depth - 1),
                             rand_stmt(depth - 1));
        locals_.resize(snap);
        return s;
      }
    }
  }

  std::mt19937 g_;
  std::vector<std::string> locals_;
};

TEST(VmDifferential, RandomizedWorkFunctions) {
  int compiled = 0, typed = 0;
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    AstGen gen(seed * 7919);
    const ir::FilterSpec spec = gen.make_spec(static_cast<int>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (runtime::compile_filter(spec)) ++compiled;

    FilterState tst = Interp::init_state(spec);
    FilterState vst = Interp::init_state(spec);
    const auto bound = bind_typed(spec, vst);
    if (!bound) continue;  // refused shapes run on the tree; fine
    ++typed;

    Channel tin, vin, tout, vout;
    std::mt19937 feed(seed);
    std::uniform_real_distribution<double> d(-4.0, 4.0);
    for (int i = 0; i < 64; ++i) {
      const double x = d(feed);
      tin.push_item(x);
      vin.push_item(x);
    }

    OpCounts tc, vc;
    for (int fire = 0; fire < 20; ++fire) {
      Interp::run_work(spec, tst, tin, tout, &tc);
      bound->run_work(vin, vout, &vc);
    }
    expect_same_counts(tc, vc, spec.name);
    expect_same_state(tst, vst, spec.name + " final");
    std::vector<double> to, vo;
    while (!tout.empty()) to.push_back(tout.pop_item());
    while (!vout.empty()) vo.push_back(vout.pop_item());
    expect_same_doubles(to, vo, spec.name + " output");
    EXPECT_EQ(tin.total_popped(), vin.total_popped());
  }
  // The generator stays inside the compiled subset by construction; if the
  // compiler starts rejecting most of them, the subset regressed.  Only
  // about one program in five keeps every register and state slot on one
  // tag (the rest mix int and double in a slot or register and run on the
  // tree), so 200 seeds give the typed VM its 30-program floor.
  EXPECT_GE(compiled, 150);
  EXPECT_GE(typed, 30);
}

// ---- engine parity corner cases ---------------------------------------------

// Out-of-subset work functions (here: a read of a possibly-unassigned
// local) must be rejected by the compiler with a reason, and the executor
// must transparently run them on the tree interpreter.
TEST(VmDifferential, FallbackForUncompilableFilter) {
  auto fb = filter("partial")
                .rates(1, 1, 1)
                .work({let("x", pop_()),
                       if_(v("x") > c(0.0), let("y", v("x") * c(2.0))),
                       // `y` is unassigned when x <= 0: the tree throws at
                       // runtime iff that path runs, so the compiler must
                       // refuse rather than guess.
                       push_(sel(v("x") > c(0.0), v("y"), v("x")))});
  std::string reason;
  EXPECT_EQ(runtime::compile_filter(fb.build(), &reason), nullptr);
  EXPECT_FALSE(reason.empty());

  auto make = [&] {
    auto src = filter("src").rates(0, 0, 1).iscalar("n", 0)
                   .work({let("n", v("n") + 1), push_(v("n") - 3)}).node();
    auto snk = filter("snk").rates(1, 1, 0).scalar("sum", Value{0.0})
                   .work({let("sum", v("sum") + pop_())}).node();
    return ir::make_pipeline("p", {src, fb.node(), snk});
  };
  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(make(), vopt);
  const auto& g = vm.graph();
  bool found = false;
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    if (g.actors[a].name.find("partial") == std::string::npos) continue;
    found = true;
    EXPECT_FALSE(vm.actor_uses_vm(static_cast<int>(a)));
  }
  ASSERT_TRUE(found);

  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(make(), topt);
  tree.run_steady(4);
  vm.run_steady(4);
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    if (g.actors[a].kind != runtime::FlatActor::Kind::Filter) continue;
    expect_same_state(tree.filter_state(static_cast<int>(a)),
                      vm.filter_state(static_cast<int>(a)), g.actors[a].name);
  }
}

// Debug-mode channel checking must fire identically under the typed VM,
// with the same diagnostic.
TEST(VmDifferential, DebugChannelChecksUnderVm) {
  // peek(5) with a declared window of max(2, 1) = 2.
  auto spec = filter("overpeek")
                  .rates(2, 1, 1)
                  .work({push_(peek_(5)), discard(1)})
                  .build();
  runtime::set_debug_channel_checks(true);
  struct Restore {
    ~Restore() { runtime::set_debug_channel_checks(false); }
  } restore;

  Channel tin, vin, tout, vout;
  for (int i = 0; i < 8; ++i) {
    tin.push_item(i);
    vin.push_item(i);
  }
  FilterState tst = Interp::init_state(spec);
  FilterState vst = Interp::init_state(spec);
  const auto bound = bind_typed(spec, vst);
  ASSERT_NE(bound, nullptr);
  std::string terr, verr;
  try {
    Interp::run_work(spec, tst, tin, tout, nullptr);
  } catch (const std::runtime_error& e) {
    terr = e.what();
  }
  try {
    bound->run_work(vin, vout, nullptr);
  } catch (const std::runtime_error& e) {
    verr = e.what();
  }
  ASSERT_FALSE(terr.empty());
  EXPECT_EQ(terr, verr);
}

// ---- the fallback chain -----------------------------------------------------
//
// A filter the compiled engines refuse runs on the tree interpreter under
// each of them: per actor on the VM engine, per actor once the fused trace
// is refused, and on the threaded runtime's workers.  Each case pins the
// stable reason and holds the whole observable surface bit-equal to
// Engine::Tree: outputs, filter state, per-actor OpCounts, channel counters
// and sent messages.  (Engine::Fused refuses the whole trace for each of
// them, named after the filter; test_fused.cc and test_typeflow.cc pin
// those reasons.)

// What one run exposes, read the same way from either executor.
struct Observed {
  std::vector<double> out;
  std::vector<OpCounts> ops;
  std::vector<FilterState> states;  // per actor; empty unless an AST filter
  std::vector<std::int64_t> pushed, popped;  // per edge
  std::vector<SentMessage> sent;
  std::string status;  // the checked actor's typed_status
};

std::int64_t edge_pushed(sched::Executor& ex, int e) {
  return ex.channel(e).total_pushed();
}
std::int64_t edge_popped(sched::Executor& ex, int e) {
  return ex.channel(e).total_popped();
}
std::int64_t edge_pushed(sched::ThreadedExecutor& ex, int e) {
  return ex.edge_pushed(e);
}
std::int64_t edge_popped(sched::ThreadedExecutor& ex, int e) {
  return ex.edge_popped(e);
}

// Two batches of three steady states with `between` (handler delivery) in
// between.  `sent` is the vector the executor's message sink fills.
template <typename Exec, typename F>
Observed observe(Exec& ex, const std::string& actor,
                 const std::vector<SentMessage>& sent, F&& between) {
  Observed o;
  o.out = ex.run_steady(3);
  between(ex);
  const std::vector<double> more = ex.run_steady(3);
  o.out.insert(o.out.end(), more.begin(), more.end());
  const auto& g = ex.graph();
  o.ops = ex.actor_ops();
  o.states.resize(g.actors.size());
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].kind == runtime::FlatActor::Kind::Filter) {
      o.states[i] = ex.filter_state(static_cast<int>(i));
    }
  }
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    o.pushed.push_back(edge_pushed(ex, static_cast<int>(e)));
    o.popped.push_back(edge_popped(ex, static_cast<int>(e)));
  }
  o.sent = sent;
  for (const auto& a : ex.metrics_snapshot().actors) {
    if (a.name == actor) o.status = a.typed_status;
  }
  return o;
}

void expect_same_observed(const Observed& want, const Observed& got,
                          const std::string& what) {
  expect_same_doubles(want.out, got.out, what + " output");
  ASSERT_EQ(want.ops.size(), got.ops.size()) << what;
  for (std::size_t i = 0; i < want.ops.size(); ++i) {
    const std::string who = what + " actor " + std::to_string(i);
    expect_same_counts(want.ops[i], got.ops[i], who);
    expect_same_state(want.states[i], got.states[i], who);
  }
  EXPECT_EQ(want.pushed, got.pushed) << what;
  EXPECT_EQ(want.popped, got.popped) << what;
  ASSERT_EQ(want.sent.size(), got.sent.size()) << what;
  for (std::size_t i = 0; i < want.sent.size(); ++i) {
    const SentMessage& w = want.sent[i];
    const SentMessage& g = got.sent[i];
    EXPECT_EQ(w.portal, g.portal) << what;
    EXPECT_EQ(w.method, g.method) << what;
    EXPECT_EQ(w.lat_min, g.lat_min) << what;
    EXPECT_EQ(w.lat_max, g.lat_max) << what;
    ASSERT_EQ(w.args.size(), g.args.size()) << what;
    for (std::size_t k = 0; k < w.args.size(); ++k) {
      expect_same_value(w.args[k], g.args[k], what + " message arg");
    }
  }
}

// Run `s -> f` under Engine::Vm, Engine::Fused and 4 fused threads: `f`
// must run on the tree interpreter with `reason` in each, and everything
// must match Engine::Tree.  `handler`, when set, is delivered to `f` between
// the two batches (the threaded runtime has no handler entry point, so its
// reference run skips the delivery).  Only a sending filter gets a message
// sink, since a sink refuses fusion and threading outright.
void expect_tree_fallback(const std::function<ir::NodeP()>& make_f,
                          const std::string& reason,
                          const std::string& handler = "") {
  const auto mk = [&] {
    auto src = filter("s")
                   .rates(0, 0, 1)
                   .iscalar("seed", 1)
                   .work(seq({let("seed", v("seed") + ci(1)),
                              push_(to_float(v("seed")))}))
                   .node();
    return ir::make_pipeline("p", {src, make_f()});
  };
  const std::string actor = make_f()->name;
  const auto sink_into = [&](std::vector<SentMessage>& sent) {
    if (reason != "teleport-send") return runtime::MessageSink();
    return runtime::MessageSink(
        [&sent](const SentMessage& m) { sent.push_back(m); });
  };
  const auto run = [&](sched::Engine engine, bool deliver) {
    std::vector<SentMessage> sent;
    sched::ExecOptions opts;
    opts.engine = engine;
    opts.message_sink = sink_into(sent);
    sched::Executor ex(mk(), opts);
    int a = -1;
    for (std::size_t i = 0; i < ex.graph().actors.size(); ++i) {
      if (ex.graph().actors[i].name == actor) a = static_cast<int>(i);
    }
    EXPECT_GE(a, 0) << actor;
    if (engine != sched::Engine::Tree) {
      EXPECT_FALSE(ex.actor_uses_vm(a)) << actor;
      EXPECT_EQ(ex.typed_refusal(a), reason) << actor;
    }
    return observe(ex, actor, sent, [&](sched::Executor& e) {
      if (deliver && !handler.empty()) e.run_handler(a, handler, {Value{10.0}});
    });
  };
  const Observed tree = run(sched::Engine::Tree, true);
  for (const auto engine : {sched::Engine::Vm, sched::Engine::Fused}) {
    const std::string what =
        actor + (engine == sched::Engine::Vm ? " vm" : " fused");
    const Observed got = run(engine, true);
    EXPECT_EQ(got.status, reason) << what;
    expect_same_observed(tree, got, what);
  }

  std::vector<SentMessage> sent;
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.threads = 4;
  opts.message_sink = sink_into(sent);
  sched::ThreadedExecutor tex(mk(), opts);
  const Observed got = observe(tex, actor, sent, [](auto&) {});
  EXPECT_EQ(got.status, reason) << actor << " 4 threads";
  expect_same_observed(handler.empty() ? tree : run(sched::Engine::Tree, false),
                       got, actor + " 4 threads");
}

// A register that is Int on one path and Double on the other.
TEST(FallbackChain, MixedRegisterRunsOnTheTree) {
  expect_tree_fallback(
      [] {
        return filter("mixr")
            .rates(1, 1, 1)
            .work(seq({let("t", ci(0)), let("x", pop_()),
                       if_(v("x") > c(0.5), let("t", v("x"))),
                       push_(to_float(v("t")))}))
            .node();
      },
      "mixed-register");
}

// A state scalar seeded Int that work stores a Double into.
TEST(FallbackChain, MixedStateRunsOnTheTree) {
  expect_tree_fallback(
      [] {
        return filter("mixs")
            .rates(1, 1, 1)
            .iscalar("acc", 0)
            .work(seq({let("x", pop_()), let("acc", v("acc") + v("x")),
                       push_(v("x"))}))
            .node();
      },
      "mixed-state:acc");
}

// A handler delivered between batches mutates the state the next firing
// reads.
TEST(FallbackChain, HandlerFilterRunsOnTheTree) {
  expect_tree_fallback(
      [] {
        return filter("gainer")
            .rates(1, 1, 1)
            .scalar("gain", Value{1.0})
            .work(seq({push_(pop_() * v("gain"))}))
            .handler("setGain", {"g"}, let("gain", v("g")))
            .node();
      },
      "has-handlers", "setGain");
}

// Send arguments, latency bounds and ordering reach the message sink as the
// tree engine emits them.
TEST(FallbackChain, SendingFilterRunsOnTheTree) {
  expect_tree_fallback(
      [] {
        return filter("sender")
            .rates(1, 1, 1)
            .iscalar("n", 0)
            .work(seq({let("x", pop_()),
                       ir::send("portal", "setGain",
                                {(v("x") * c(2.0)).e, v("n").e}, 1, 3),
                       let("n", v("n") + 1), push_(v("x"))}))
            .node();
      },
      "teleport-send");
}

// Disassembly is for humans; just pin that it mentions the channel ops so
// the docs' examples stay truthful.
TEST(VmDifferential, DisassembleSmoke) {
  auto spec = filter("fir4")
                  .rates(4, 1, 1)
                  .array_init("h", {Value{0.1}, Value{0.2}, Value{0.3}, Value{0.4}})
                  .work({let("sum", c(0.0)),
                         for_("i", 0, 4,
                              let("sum", v("sum") + peek_(v("i")) * at("h", v("i")))),
                         push_(v("sum")), discard(1)})
                  .build();
  auto prog = runtime::compile_filter(spec);
  ASSERT_NE(prog, nullptr);
  const std::string dis = runtime::disassemble(prog->work);
  EXPECT_NE(dis.find("peek"), std::string::npos);
  EXPECT_NE(dis.find("push"), std::string::npos);
  EXPECT_NE(dis.find("halt"), std::string::npos);
}

// ---- ring-buffer channel ----------------------------------------------------

TEST(RingChannel, FifoAcrossWraparound) {
  Channel ch;
  // Interleave pushes and pops so head_ walks around the ring repeatedly.
  std::int64_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) ch.push_item(static_cast<double>(next_push++));
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(ch.pop_item(), static_cast<double>(next_pop++));
    }
    // Peeks must see the live window in order.
    for (std::size_t off = 0; off < ch.size(); ++off) {
      ASSERT_EQ(ch.peek_item(static_cast<int>(off)),
                static_cast<double>(next_pop + static_cast<std::int64_t>(off)));
    }
  }
  EXPECT_EQ(ch.total_pushed(), next_push);
  EXPECT_EQ(ch.total_popped(), next_pop);
  EXPECT_EQ(ch.size(), static_cast<std::size_t>(next_push - next_pop));
  // Power-of-two capacity invariant.
  ASSERT_GT(ch.capacity(), 0u);
  EXPECT_EQ(ch.capacity() & (ch.capacity() - 1), 0u);
}

TEST(RingChannel, PushManyWrapsAndCounts) {
  Channel ch;
  // Misalign head first so the bulk write must split into two segments.
  for (int i = 0; i < 20; ++i) ch.push_item(i);
  for (int i = 0; i < 13; ++i) ch.pop_item();
  std::vector<double> bulk;
  for (int i = 0; i < 100; ++i) bulk.push_back(1000.0 + i);
  ch.push_many(bulk);
  EXPECT_EQ(ch.size(), 107u);
  EXPECT_EQ(ch.total_pushed(), 120);
  for (int i = 13; i < 20; ++i) ASSERT_EQ(ch.pop_item(), i);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(ch.pop_item(), 1000.0 + i);
  EXPECT_TRUE(ch.empty());
  EXPECT_THROW(ch.pop_item(), std::runtime_error);
}

TEST(RingChannel, PeekBeyondContentsThrows) {
  Channel ch;
  ch.push_item(1.0);
  EXPECT_THROW(ch.peek_item(1), std::runtime_error);
  EXPECT_THROW(ch.peek_item(-1), std::runtime_error);
  EXPECT_EQ(ch.peek_item(0), 1.0);
}

TEST(RingChannel, HighWaterTracksPeakOccupancy) {
  Channel ch;
  for (int i = 0; i < 10; ++i) ch.push_item(i);
  ch.note_high_water();
  for (int i = 0; i < 9; ++i) ch.pop_item();
  ch.note_high_water();
  EXPECT_EQ(ch.high_water(), 10);
}

TEST(RingChannel, PopManyBulkDiscard) {
  Channel ch;
  for (int i = 0; i < 30; ++i) ch.push_item(static_cast<double>(i));
  ch.pop_many(7);  // O(1) head advance
  EXPECT_EQ(ch.total_popped(), 7);
  EXPECT_EQ(ch.size(), 23u);
  ASSERT_EQ(ch.pop_item(), 7.0);
  ch.pop_many(0);   // no-ops
  ch.pop_many(-3);
  EXPECT_EQ(ch.total_popped(), 8);
  EXPECT_THROW(ch.pop_many(100), std::runtime_error);
  EXPECT_EQ(ch.size(), 22u);  // failed bulk pop consumed nothing
  ch.pop_many(22);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.total_popped(), 30);
}

// Coprime push/pop rates sweep the wrap point through every alignment, the
// way an up/down-sampler pair drives a channel across many steady states.
// Bulk pops and bursty pushes keep crossing segment boundaries; growth at
// awkward head positions must re-linearize without losing order.
TEST(RingChannel, CoprimeRatesManySteadyStates) {
  Channel ch;
  std::int64_t next_push = 0, next_pop = 0;
  std::size_t peak = 0;
  for (int round = 0; round < 5000; ++round) {
    // Occasional oversized bursts force capacity growth while head_ sits at
    // an awkward offset.
    const int pushes = (round % 997 == 17) ? 611 : 7;
    std::vector<double> burst;
    burst.reserve(pushes);
    for (int i = 0; i < pushes; ++i) {
      burst.push_back(static_cast<double>(next_push++));
    }
    ch.push_many(burst);
    ch.note_high_water();
    peak = std::max(peak, ch.size());
    while (ch.size() >= 5) {
      // Verify the head of the live window, then discard the 5-item stride
      // in bulk (decimation idiom: peek what you need, pop_many the rest).
      ASSERT_EQ(ch.peek_item(0), static_cast<double>(next_pop));
      ASSERT_EQ(ch.peek_item(4), static_cast<double>(next_pop + 4));
      ch.pop_many(5);
      next_pop += 5;
    }
  }
  while (!ch.empty()) {
    ASSERT_EQ(ch.pop_item(), static_cast<double>(next_pop++));
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(ch.total_pushed(), next_push);
  EXPECT_EQ(ch.total_popped(), next_pop);
  EXPECT_EQ(ch.high_water(), peak);
  EXPECT_EQ(ch.capacity() & (ch.capacity() - 1), 0u);
}

}  // namespace
}  // namespace sit
