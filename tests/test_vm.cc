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
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/constprop.h"
#include "apps/apps.h"
#include "ir/dsl.h"
#include "runtime/channel.h"
#include "runtime/compile.h"
#include "runtime/eval_ops.h"
#include "runtime/interp.h"
#include "runtime/fused.h"
#include "sched/exec.h"
#include "sched/schedule.h"
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
using runtime::Tag;

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

// `spec`'s one-actor trace bound to `st` (already initialized) and
// activated, or null when the compiler, the typed lowering or the trace
// build refuses it.  deactivate() writes the state back to `st`.
std::unique_ptr<runtime::FilterExec> bind_typed(const ir::FilterSpec& spec,
                                                FilterState& st) {
  auto fx = runtime::FilterExec::make(ir::make_filter(spec),
                                      runtime::compile_filter(spec), st);
  return fx && fx->activate() ? std::move(fx) : nullptr;
}

// ---- whole-application differential -----------------------------------------

// Run every built-in app on the tree interpreter and on the per-actor
// traces and hold all observables equal: program output (bitwise), per-actor
// firing tallies and OpCounts, the cumulative n(t)/p(t) counters of every
// channel, and the final state of every AST filter.  Tracing refuses the
// whole-graph trace, so the compiled engine fires actor by actor.
TEST(VmDifferential, AllAppsMatchTreeInterpreter) {
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    sched::ExecOptions topt;
    topt.engine = sched::Engine::Tree;
    sched::Executor tree(info.make(), topt);
    sched::ExecOptions vopt;
    vopt.engine = sched::Engine::Fused;
    vopt.trace = sched::TraceMode::On;
    sched::Executor vm(info.make(), vopt);

    ASSERT_EQ(tree.engine(), sched::Engine::Tree);
    ASSERT_EQ(vm.engine(), sched::Engine::Fused);

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
    opt.engine = sched::Engine::Fused;
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
// arithmetic and comparisons, shifts, conditionals and for loops.  Division
// is excluded so no input can throw.  A shift takes any count, the edge
// counts -1, 63, 64 and 100 included (every engine takes it mod 64); a left
// shift's result is shifted back down by 56 so later int arithmetic cannot
// overflow.  Fixed seeds keep failures reproducible.
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
    switch (irange(0, 10)) {
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
      case 9: {
        constexpr std::int64_t kEdgeCounts[] = {-1, 63, 64, 100};
        const ir::ExprP count =
            irange(0, 1) ? rand_expr(depth - 1)
                         : ir::iconst(kEdgeCounts[irange(0, 3)]);
        if (irange(0, 1)) {
          return ir::bin(ir::BinOp::Shr, rand_expr(depth - 1), count);
        }
        return ir::bin(ir::BinOp::Shr,
                       ir::bin(ir::BinOp::Shl, rand_expr(depth - 1), count),
                       ir::iconst(56));
      }
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
  for (std::uint32_t seed = 1; seed <= 250; ++seed) {
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
      bound->fire(vin, vout, &vc);
    }
    bound->deactivate();
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
  // about one program in seven keeps every register and state slot on one
  // tag (the rest mix int and double in a slot or register -- a shift's int
  // result often meets a double -- and run on the tree), so 250 seeds give
  // the typed VM its 30-program floor.
  EXPECT_GE(compiled, 190);
  EXPECT_GE(typed, 30);
}

// ---- decoded handlers against the tree -------------------------------------
//
// A trace dispatches each instruction on the handler its build decoded
// (vm.h Handler).  Every BinOp and UnOp, on every operand-plane combination,
// runs through a one-actor trace (the per-actor engines' form) and a
// whole-graph fused trace, held bit-equal to the tree interpreter: outputs,
// state, OpCounts, channel counters and fault messages.  to_int() puts an
// operand on the int plane; a peeked item is on the double plane.

using runtime::Handler;
using HandlerSet = std::set<Handler>;

enum class Plane { Int, Double };

// Quarter steps in [-8, 8].  Every odd item (a binary op's `b`) has
// |b| >= 1, so no int divisor is zero.
std::vector<double> handler_feed(int n) {
  std::mt19937 g(17);
  std::uniform_int_distribution<int> q(-32, 32);
  std::vector<double> items;
  for (int i = 0; i < n; ++i) {
    double x = q(g) / 4.0;
    if (i % 2 == 1 && std::fabs(x) < 1.0) x = x < 0.0 ? x - 1.0 : x + 1.0;
    items.push_back(x);
  }
  return items;
}

// peek(k) on `plane`.  As a shift count it ranges over [-8, 8]: negative
// counts are taken mod 64 like any other.
ir::ExprP operand(int k, Plane plane) {
  const ir::ExprP e = ir::peek(ir::iconst(k));
  return plane == Plane::Int ? ir::un(ir::UnOp::ToInt, e) : e;
}

Value plane_sample(Plane p) {
  return p == Plane::Int ? Value(std::int64_t{1}) : Value(1.0);
}

// Reads `arity` items and computes r = `expr` (an int iff `int_result`),
// then pushes r and the state ring slot r overwrites four firings later:
// the scalar `last` and the ring `hist` hold r's tag, `k` is the cursor.
ir::FilterSpec op_filter(const std::string& name, int arity, ir::ExprP expr,
                         bool int_result) {
  const Value z = int_result ? Value(std::int64_t{0}) : Value(0.0);
  return filter(name)
      .rates(arity, arity, 2)
      .scalar("last", z)
      .iscalar("k", 0)
      .array_init("hist", {z, z, z, z})
      .work(seq({let("r", expr), let("last", v("r")),
                 set_at("hist", v("k"), v("r")),
                 let("k", (v("k") + ci(1)) & ci(3)), push_(v("r")),
                 push_(at("hist", v("k"))), discard(arity)}))
      .build();
}

// Lower without the analysis gate, which may refuse a faulting program.
sched::CompiledProgram lower_ungated(const ir::NodeP& root) {
  sched::CompiledProgram p;
  p.graph = root;
  p.flat = runtime::flatten(root);
  p.schedule = sched::make_schedule(p.flat);
  return p;
}

void note_handlers(const runtime::FusedProgram& prog, HandlerSet* seen) {
  for (const auto& [h, n] : prog.dispatch) seen->insert(h);
}

// `spec` fired `firings` times on the tree (run_work) and in one call
// through its one-actor trace, from `feed`.  Returns the fault message,
// which must match ("" when neither throws).
std::string expect_actor_matches_tree(const ir::FilterSpec& spec,
                                      const std::vector<double>& feed,
                                      int firings, HandlerSet* seen) {
  FilterState tst = Interp::init_state(spec);
  FilterState vst = Interp::init_state(spec);
  const runtime::TypedFilterP typed =
      runtime::typed_compile(spec, runtime::compile_filter(spec), vst);
  EXPECT_NE(typed, nullptr) << spec.name << " refused";
  if (!typed) return "";
  const runtime::FlatGraph g = runtime::flatten(ir::make_filter(spec));
  const runtime::FusedProgramP prog =
      runtime::build_trace(g, {{0, 1}}, {}, {}, {typed}, {});
  EXPECT_NE(prog, nullptr) << spec.name;
  if (!prog) return "";
  note_handlers(*prog, seen);
  const auto fx = bind_typed(spec, vst);
  EXPECT_NE(fx, nullptr) << spec.name;
  if (!fx) return "";

  Channel tin, vin, tout, vout;
  for (const double x : feed) {
    tin.push_item(x);
    vin.push_item(x);
  }
  OpCounts tc, vc;
  std::string tfault, vfault;
  try {
    for (int i = 0; i < firings; ++i) {
      Interp::run_work(spec, tst, tin, tout, &tc);
    }
  } catch (const std::runtime_error& e) {
    tfault = e.what();
  }
  try {
    fx->fire(vin, vout, &vc, firings);
  } catch (const std::runtime_error& e) {
    vfault = e.what();
  }
  fx->deactivate();
  EXPECT_EQ(tfault, vfault) << spec.name;
  expect_same_counts(tc, vc, spec.name);
  expect_same_state(tst, vst, spec.name);
  std::vector<double> to, vo;
  while (!tout.empty()) to.push_back(tout.pop_item());
  while (!vout.empty()) vo.push_back(vout.pop_item());
  expect_same_doubles(to, vo, spec.name + " output");
  EXPECT_EQ(tin.total_popped(), vin.total_popped()) << spec.name;
  EXPECT_EQ(tout.total_pushed(), vout.total_pushed()) << spec.name;
  return tfault;
}

ir::NodeP pass_filter(const std::string& name) {
  return filter(name).rates(1, 1, 1).work(seq({push_(pop_())})).node();
}

// `node` between two pass-through filters, so it reads and writes trace
// buffers, for `iters` steady states on the tree and as one whole-graph
// fused trace.  Returns the fault message, which must match; a run that
// faults compares nothing else (a trace stops mid-iteration).
std::string expect_trace_matches_tree(const ir::NodeP& node,
                                      const std::vector<double>& feed,
                                      int iters, HandlerSet* seen) {
  const auto make = [&] {
    return lower_ungated(ir::make_pipeline(
        "p", {pass_filter("in"), node, pass_filter("out")}));
  };
  const std::string& name = node->name;
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::ExecOptions fopt;
  fopt.engine = sched::Engine::Fused;
  fopt.trace = sched::TraceMode::Off;
  sched::Executor tree(make(), topt);
  sched::Executor fused(make(), fopt);
  EXPECT_NE(fused.fused_program(), nullptr)
      << name << ": " << fused.fused_refusal();
  if (fused.fused_program() == nullptr) return "";
  note_handlers(*fused.fused_program(), seen);

  tree.feed_input(feed);
  fused.feed_input(feed);
  std::vector<double> tout, fout;
  std::string tfault, ffault;
  try {
    tout = tree.run_steady(iters);
  } catch (const std::runtime_error& e) {
    tfault = e.what();
  }
  try {
    fout = fused.run_steady(iters);
  } catch (const std::runtime_error& e) {
    ffault = e.what();
  }
  EXPECT_EQ(tfault, ffault) << name;
  if (!tfault.empty() || !ffault.empty()) return tfault;
  expect_same_doubles(tout, fout, name + " output");
  const auto& g = tree.graph();
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    expect_same_counts(tree.actor_ops()[a], fused.actor_ops()[a],
                       name + "/" + g.actors[a].name);
    expect_same_state(tree.filter_state(static_cast<int>(a)),
                      fused.filter_state(static_cast<int>(a)),
                      name + "/" + g.actors[a].name);
  }
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const int ei = static_cast<int>(e);
    EXPECT_EQ(tree.channel(ei).total_pushed(), fused.channel(ei).total_pushed())
        << name << " edge " << e;
    EXPECT_EQ(tree.channel(ei).total_popped(), fused.channel(ei).total_popped())
        << name << " edge " << e;
  }
  return "";
}

constexpr int kHandlerFirings = 24;

// Both traces of `spec` against the tree, fault-free.
void expect_both_match_tree(const ir::FilterSpec& spec, int arity,
                            HandlerSet* seen) {
  // Four spare items: a peek window reaches past the last firing's pops.
  const std::vector<double> feed = handler_feed(kHandlerFirings * arity + 4);
  EXPECT_EQ(expect_actor_matches_tree(spec, feed, kHandlerFirings, seen), "");
  EXPECT_EQ(expect_trace_matches_tree(ir::make_filter(spec), feed,
                                      kHandlerFirings, seen),
            "");
}

constexpr ir::BinOp kBinOps[] = {
    ir::BinOp::Add, ir::BinOp::Sub,  ir::BinOp::Mul,  ir::BinOp::Div,
    ir::BinOp::Mod, ir::BinOp::Min,  ir::BinOp::Max,  ir::BinOp::Pow,
    ir::BinOp::Lt,  ir::BinOp::Le,   ir::BinOp::Gt,   ir::BinOp::Ge,
    ir::BinOp::Eq,  ir::BinOp::Ne,   ir::BinOp::LAnd, ir::BinOp::LOr,
    ir::BinOp::BAnd, ir::BinOp::BOr, ir::BinOp::BXor, ir::BinOp::Shl,
    ir::BinOp::Shr};

constexpr ir::UnOp kUnOps[] = {
    ir::UnOp::Neg,   ir::UnOp::LNot, ir::UnOp::BNot,  ir::UnOp::Sin,
    ir::UnOp::Cos,   ir::UnOp::Tan,  ir::UnOp::Exp,   ir::UnOp::Log,
    ir::UnOp::Sqrt,  ir::UnOp::Abs,  ir::UnOp::Floor, ir::UnOp::Ceil,
    ir::UnOp::Round, ir::UnOp::ToInt, ir::UnOp::ToFloat};

constexpr Plane kPlanes[] = {Plane::Int, Plane::Double};

std::string plane_name(Plane p) { return p == Plane::Int ? "i" : "d"; }

// Every BinOp on int-int, double-double and both mixed operand planes.
HandlerSet run_every_bin_op() {
  HandlerSet seen;
  for (const ir::BinOp op : kBinOps) {
    for (const Plane pa : kPlanes) {
      for (const Plane pb : kPlanes) {
        const std::string name = std::string(ir::to_string(op)) + "_" +
                                 plane_name(pa) + plane_name(pb);
        SCOPED_TRACE(name);
        const bool int_result =
            runtime::apply_bin(op, plane_sample(pa), plane_sample(pb))
                .is_int();
        const ir::ExprP expr =
            ir::bin(op, operand(0, pa), operand(1, pb));
        expect_both_match_tree(op_filter(name, 2, expr, int_result), 2, &seen);
      }
    }
  }
  return seen;
}

// Every UnOp on each operand plane.
HandlerSet run_every_un_op() {
  HandlerSet seen;
  for (const ir::UnOp op : kUnOps) {
    for (const Plane p : kPlanes) {
      const std::string name =
          std::string(ir::to_string(op)) + "_" + plane_name(p);
      SCOPED_TRACE(name);
      const bool int_result =
          runtime::apply_un(op, plane_sample(p)).is_int();
      const ir::ExprP expr = ir::un(op, operand(0, p));
      expect_both_match_tree(op_filter(name, 1, expr, int_result), 1, &seen);
    }
  }
  return seen;
}

// Control flow, moves and channel ops on each operand plane: loops with an
// int or a double bound and step, branches and short-circuit logic on an
// int or a double condition, a peek and a discard at a double offset.
HandlerSet run_every_operand_form() {
  HandlerSet seen;
  for (const Plane p : kPlanes) {
    SCOPED_TRACE(plane_name(p));
    const auto x = [&](int k) { return E(operand(k, p)); };
    const E bound = p == Plane::Int ? E(ci(3)) : E(c(3.5));
    const E step = p == Plane::Int ? E(ci(1)) : E(c(1.5));
    const E at_one = p == Plane::Int ? E(ci(1)) : E(c(1.0));
    const ir::FilterSpec spec =
        filter("forms_" + plane_name(p))
            .rates(4, 2, 3)
            .scalar("acc", Value{0.0})
            .work(seq({let("t", x(0)), let("u", v("t")),
                       ir::for_loop_step("i", ci(0), bound, step,
                                         let("acc", v("acc") + peek_(v("i")))),
                       if_(x(0), let("acc", v("acc") + c(1.0))),
                       push_(sel(x(0) || x(1), c(1.0), c(2.0))),
                       push_(x(0) && x(1)), push_(v("u") + peek_(at_one)),
                       ir::pop_n(at_one.e), ir::pop_n(at_one.e)}))
            .build();
    expect_both_match_tree(spec, 2, &seen);
  }
  return seen;
}

// Faults thrown inside a specialized or generic handler carry the tree's
// message on both traces: integer division and modulo by zero, and array
// accesses out of bounds through an int and a double index.
HandlerSet run_every_fault() {
  const auto idx = [](Plane p) { return E(operand(0, p)); };
  const Value z{0.0};
  const auto arr = [&](const std::string& name) {
    return filter(name).rates(2, 2, 1).array_init("w", {z, z, z, z});
  };
  struct Case {
    ir::FilterSpec spec;
    std::vector<double> feed;
    std::string message;
  };
  std::vector<Case> cases;
  for (const ir::BinOp op : {ir::BinOp::Div, ir::BinOp::Mod}) {
    const std::string name = std::string(ir::to_string(op)) + "_zero";
    cases.push_back(
        {op_filter(name, 2,
                   ir::bin(op, operand(0, Plane::Int),
                           operand(1, Plane::Int)),
                   true),
         {3.0, 2.0, 5.0, 0.5},
         op == ir::BinOp::Div ? "integer division by zero"
                              : "integer modulo by zero"});
  }
  for (const Plane p : kPlanes) {
    cases.push_back({arr("load_" + plane_name(p))
                         .work(seq({push_(at("w", idx(p))), discard(2)}))
                         .build(),
                     {1.0, 0.0, 7.0, 0.0},
                     "array index out of bounds: w[7]"});
    cases.push_back({arr("store_" + plane_name(p))
                         .work(seq({set_at("w", idx(p), peek_(ci(1))),
                                    push_(peek_(ci(1))), discard(2)}))
                         .build(),
                     {2.0, 0.0, -1.0, 0.0},
                     "array store out of bounds: w[-1]"});
  }
  HandlerSet seen;
  for (const Case& fc : cases) {
    SCOPED_TRACE(fc.spec.name);
    EXPECT_EQ(expect_actor_matches_tree(fc.spec, fc.feed, 2, &seen),
              fc.message);
    EXPECT_EQ(
        expect_trace_matches_tree(ir::make_filter(fc.spec), fc.feed, 2, &seen),
        fc.message);
  }
  return seen;
}

TEST(HandlerDiff, EveryBinOpOnEveryPlaneMatchesTheTree) { run_every_bin_op(); }

TEST(HandlerDiff, EveryUnOpOnEveryPlaneMatchesTheTree) { run_every_un_op(); }

TEST(HandlerDiff, EveryOperandFormMatchesTheTree) { run_every_operand_form(); }

TEST(HandlerDiff, FaultsMatchTheTree) { run_every_fault(); }

// The four tables above reach every handler but the superinstructions'.
TEST(HandlerDiff, TheTablesReachEveryHandler) {
  HandlerSet seen = run_every_bin_op();
  seen.merge(run_every_un_op());
  seen.merge(run_every_operand_form());
  seen.merge(run_every_fault());
  const HandlerSet unreached = {Handler::MacLoop, Handler::CopyRun,
                                Handler::NativeFire, Handler::LinearKernel};
  for (int h = 0; h <= static_cast<int>(Handler::ToFloatD); ++h) {
    const auto handler = static_cast<Handler>(h);
    if (unreached.count(handler) != 0) continue;
    EXPECT_EQ(seen.count(handler), 1u) << runtime::handler_name(handler);
  }
}

// ---- one operator table ----------------------------------------------------
//
// The constant folder, the tree interpreter and a one-actor trace evaluate
// every operator through eval_ops.h's table.  Each case folds `a op b` on
// literals (analysis/constprop), runs the same statement `r = a op b` on the
// tree and through the one-actor trace, with the state scalar `r` declared
// on the plane the table's result tag predicts, and holds the three to one
// value and tag and the two engines to the OpCounts the table's cost class
// predicts.  Integer division and modulo by zero must be refused by the
// folder and fault with one message on both engines.

const std::vector<Value> kOpSamples = {
    Value(std::int64_t{-9}), Value(std::int64_t{-1}), Value(std::int64_t{0}),
    Value(std::int64_t{5}),  Value(std::int64_t{63}), Value(std::int64_t{64}),
    Value(std::int64_t{100}), Value(-2.5), Value(0.0), Value(7.25)};

ir::ExprP literal_of(const Value& v) {
  return v.is_int() ? ir::iconst(v.as_int()) : ir::fconst(v.as_double());
}

template <typename Op>
void expect_op_agrees(Op op, const ir::ExprP& expr, Tag a, Tag b,
                      const std::string& name) {
  SCOPED_TRACE(name);
  const Tag want = runtime::result_tag(op, a, b);
  ASSERT_NE(want, Tag::Mixed);

  const ir::StmtP folded = analysis::fold_body(ir::assign("r", expr), name).body;
  ASSERT_NE(folded, nullptr);
  const ir::ExprP& f = folded->value;
  const bool refused = f->kind != ir::Expr::Kind::IntConst &&
                       f->kind != ir::Expr::Kind::FloatConst;

  const ir::FilterSpec spec =
      filter(name)
          .rates(1, 1, 1)
          .scalar("r", want == Tag::Int ? Value(std::int64_t{0}) : Value(0.0))
          .work(seq({ir::assign("r", expr), push_(pop_())}))
          .build();
  FilterState tst = Interp::init_state(spec);
  FilterState vst = Interp::init_state(spec);
  const auto fx = bind_typed(spec, vst);
  ASSERT_NE(fx, nullptr) << "trace refused";
  Channel tin, vin, tout, vout;
  tin.push_item(1.0);
  vin.push_item(1.0);
  OpCounts tc, vc;
  std::string tfault, vfault;
  try {
    Interp::run_work(spec, tst, tin, tout, &tc);
  } catch (const std::runtime_error& e) {
    tfault = e.what();
  }
  try {
    fx->fire(vin, vout, &vc);
  } catch (const std::runtime_error& e) {
    vfault = e.what();
  }
  fx->deactivate();
  EXPECT_EQ(tfault, vfault);
  if (!tfault.empty()) {
    EXPECT_TRUE(refused) << "folded a faulting operation";
    EXPECT_TRUE(tfault == "integer division by zero" ||
                tfault == "integer modulo by zero")
        << tfault;
    return;
  }
  ASSERT_FALSE(refused) << "folder refused: " << ir::to_string(f);
  const Value tr = tst.scalars.at("r");
  EXPECT_EQ(runtime::value_tag(tr), want);
  expect_same_value(f->kind == ir::Expr::Kind::IntConst ? Value(f->ival)
                                                        : Value(f->fval),
                    tr, "folded");
  expect_same_value(vst.scalars.at("r"), tr, "trace");
  OpCounts expect;
  expect.mem = 1;      // the store to r
  expect.channel = 2;  // the pop and the push
  runtime::tally(expect, runtime::resolve_cost(runtime::op_rule(op).cost, want));
  expect_same_counts(tc, expect, "tree");
  expect_same_counts(vc, expect, "trace");
}

TEST(Ops, FoldTreeAndTraceAgree) {
  for (const ir::BinOp op : kBinOps) {
    for (const Value& a : kOpSamples) {
      for (const Value& b : kOpSamples) {
        expect_op_agrees(op, ir::bin(op, literal_of(a), literal_of(b)),
                         runtime::value_tag(a), runtime::value_tag(b),
                         std::string(ir::to_string(op)) + "(" + a.str() +
                             ", " + b.str() + ")");
      }
    }
  }
  for (const ir::UnOp op : kUnOps) {
    for (const Value& a : kOpSamples) {
      expect_op_agrees(op, ir::un(op, literal_of(a)), runtime::value_tag(a),
                       Tag::Int,
                       std::string(ir::to_string(op)) + "(" + a.str() + ")");
    }
  }
}

// int64 arithmetic follows Java's long at the edges: + - * and unary - and
// abs wrap, INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0.  Each case
// folds, runs on the tree and runs through a one-actor trace to one value
// (expect_op_agrees), and that value is Java's.
TEST(Ops, Int64EdgesWrapAsJavaLongs) {
  using ir::BinOp;
  using ir::UnOp;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct BinCase {
    BinOp op;
    std::int64_t a, b, want;
  };
  const BinCase bins[] = {
      {BinOp::Add, kMax, 1, kMin},  {BinOp::Add, kMin, -1, kMax},
      {BinOp::Sub, kMin, 1, kMax},  {BinOp::Sub, kMax, -1, kMin},
      {BinOp::Mul, kMax, 2, -2},    {BinOp::Mul, kMin, -1, kMin},
      {BinOp::Div, kMin, -1, kMin}, {BinOp::Mod, kMin, -1, 0},
      {BinOp::Div, kMax, -1, -kMax}, {BinOp::Mod, 7, -1, 0},
  };
  for (const BinCase& c : bins) {
    const std::string name = std::string(ir::to_string(c.op)) + "(" +
                             std::to_string(c.a) + ", " + std::to_string(c.b) + ")";
    expect_op_agrees(c.op, ir::bin(c.op, ir::iconst(c.a), ir::iconst(c.b)),
                     Tag::Int, Tag::Int, name);
    const auto v = runtime::fold(c.op, Value(c.a), Value(c.b));
    ASSERT_TRUE(v.has_value()) << name;
    EXPECT_EQ(v->as_int(), c.want) << name;
  }
  struct UnCase {
    UnOp op;
    std::int64_t a, want;
  };
  const UnCase uns[] = {
      {UnOp::Neg, kMin, kMin}, {UnOp::Abs, kMin, kMin}, {UnOp::Neg, kMax, -kMax}};
  for (const UnCase& c : uns) {
    const std::string name =
        std::string(ir::to_string(c.op)) + "(" + std::to_string(c.a) + ")";
    expect_op_agrees(c.op, ir::un(c.op, ir::iconst(c.a)), Tag::Int, Tag::Int, name);
    EXPECT_EQ(runtime::apply_un(c.op, Value(c.a)).as_int(), c.want) << name;
  }
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
  vopt.engine = sched::Engine::Fused;
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
    bound->fire(vin, vout, nullptr);
  } catch (const std::runtime_error& e) {
    verr = e.what();
  }
  ASSERT_FALSE(terr.empty());
  EXPECT_EQ(terr, verr);
}

// ---- the fallback chain -----------------------------------------------------
//
// A filter the compiled engine refuses runs on the tree interpreter: per
// actor once the fused trace is refused, and on the threaded runtime's
// workers.  Each case pins the
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

// Run `s -> f` on the compiled engine, sequentially and on 4 threads: `f`
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
  const Observed fused = run(sched::Engine::Fused, true);
  EXPECT_EQ(fused.status, reason) << actor;
  expect_same_observed(tree, fused, actor + " fused");

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

TEST(RingChannel, TakeAllDrainsAWrappedRing) {
  Channel ch;
  // 16 slots: head at 10, and the 12 live items wrap past the end.
  for (int i = 0; i < 10; ++i) ch.push_item(i);
  for (int i = 0; i < 10; ++i) ch.pop_item();
  for (int i = 0; i < 12; ++i) ch.push_item(100.0 + i);
  ASSERT_EQ(ch.capacity(), 16u);
  std::vector<double> out = {-1.0};
  ch.take_all(out);
  ASSERT_EQ(out.size(), 13u);
  EXPECT_EQ(out[0], -1.0);  // appended after what `out` held
  for (int i = 0; i < 12; ++i) EXPECT_EQ(out[1 + i], 100.0 + i);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.total_popped(), 22);
  EXPECT_EQ(ch.total_pushed(), 22);
  ch.take_all(out);  // empty: appends nothing
  EXPECT_EQ(out.size(), 13u);
  // The ring stays usable from wherever the take left its head.
  for (int i = 0; i < 20; ++i) ch.push_item(200.0 + i);
  for (int i = 0; i < 20; ++i) ASSERT_EQ(ch.pop_item(), 200.0 + i);
  EXPECT_EQ(ch.total_popped(), 42);
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
