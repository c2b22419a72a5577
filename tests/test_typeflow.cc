// Typed-dataflow tests: the canonical value-tag contract, static inference
// and specialization on the flagship apps, every refusal reason with its
// stable string, and typed == tree bit-equality.
//
// The cross-engine bit-equality contract (tree/VM/fused/threaded at every
// optimization level) lives in test_pipeline_diff.cc; this file pins the
// typed plane's *own* artifacts: which tags the lattice assigns, which
// filters specialize, and why the rest refuse.  That a refused filter runs
// on the tree interpreter bit-identically to the tree engine is
// test_vm.cc's FallbackChain tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "opt/compile.h"
#include "runtime/compile.h"
#include "runtime/eval_ops.h"
#include "runtime/typed.h"
#include "sched/describe.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;
using runtime::Tag;

// Drop the final sink so the program output edge is observable.
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

// Tracing pins the whole-graph trace off ("tracing-enabled"), so these
// executors keep it off whatever SIT_TRACE says.
sched::Executor make_exec(ir::NodeP root, sched::Engine engine,
                          sched::TypedMode typed,
                          sched::TraceMode trace = sched::TraceMode::Off) {
  sched::ExecOptions opts;
  opts.engine = engine;
  opts.typed = typed;
  opts.trace = trace;
  return sched::Executor(std::move(root), opts);
}

int actor_id(const runtime::FlatGraph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void expect_bit_equal(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " item " << i;
  }
}

// Run the same program typed-on and typed-off (every AST filter on the tree
// interpreter) under `engine` and require the entire observable surface to
// be bit-identical.
void expect_typed_off_parity(const ir::NodeP& app, sched::Engine engine,
                             const std::string& what, int steady = 4,
                             sched::TraceMode trace = sched::TraceMode::Off) {
  auto on = make_exec(ir::clone(app), engine, sched::TypedMode::On, trace);
  auto off = make_exec(ir::clone(app), engine, sched::TypedMode::Off, trace);
  expect_bit_equal(on.run_steady(steady), off.run_steady(steady), what);
  EXPECT_EQ(on.firings(), off.firings()) << what;
  EXPECT_EQ(on.total_ops().int_ops, off.total_ops().int_ops) << what;
  EXPECT_EQ(on.total_ops().flops, off.total_ops().flops) << what;
  EXPECT_EQ(on.total_ops().divs, off.total_ops().divs) << what;
  EXPECT_EQ(on.total_ops().trans, off.total_ops().trans) << what;
  EXPECT_EQ(on.total_ops().mem, off.total_ops().mem) << what;
  EXPECT_EQ(on.total_ops().channel, off.total_ops().channel) << what;
}

// ---- the canonical tag of every opcode result -------------------------------
//
// The lattice (runtime/typed.h) assigns a comparison/logic result the Int
// tag statically; these pins hold the runtime kernels to that contract for
// every opcode and both operand planes, so inference can never disagree with
// execution.

TEST(ValueTags, BoolConstructionIsCanonicalInt) {
  const ir::Value t(true);
  const ir::Value f(false);
  EXPECT_TRUE(t.is_int());
  EXPECT_TRUE(f.is_int());
  EXPECT_EQ(t.as_int(), 1);
  EXPECT_EQ(f.as_int(), 0);
}

TEST(ValueTags, EveryComparisonOpcodeProducesInt) {
  using ir::BinOp;
  const ir::Value id(3), jd(4);
  const ir::Value xd(3.5), yd(4.5);
  for (BinOp op : {BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq,
                   BinOp::Ne}) {
    const ir::Value ri = runtime::apply_bin(op, id, jd);
    const ir::Value rd = runtime::apply_bin(op, xd, yd);
    const ir::Value rm = runtime::apply_bin(op, id, yd);  // mixed operands
    EXPECT_TRUE(ri.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(rd.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(rm.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(ri.as_int() == 0 || ri.as_int() == 1);
    EXPECT_TRUE(rd.as_int() == 0 || rd.as_int() == 1);
  }
}

TEST(ValueTags, EveryLogicOpcodeProducesInt) {
  using ir::BinOp;
  using ir::UnOp;
  const ir::Value xd(2.5), zd(0.0);
  for (BinOp op : {BinOp::LAnd, BinOp::LOr}) {
    const ir::Value r = runtime::apply_bin(op, xd, zd);
    EXPECT_TRUE(r.is_int()) << static_cast<int>(op);
    EXPECT_TRUE(r.as_int() == 0 || r.as_int() == 1);
  }
  const ir::Value n = runtime::apply_un(UnOp::LNot, xd);
  EXPECT_TRUE(n.is_int());
  EXPECT_EQ(n.as_int(), 0);
  EXPECT_EQ(runtime::apply_un(UnOp::LNot, zd).as_int(), 1);
}

TEST(ValueTags, BitwiseOpcodesProduceIntEvenFromDoubles) {
  using ir::BinOp;
  using ir::UnOp;
  const ir::Value xd(6.9), yd(3.2);  // truncating as_int, like Value does
  for (BinOp op :
       {BinOp::BAnd, BinOp::BOr, BinOp::BXor, BinOp::Shl, BinOp::Shr}) {
    EXPECT_TRUE(runtime::apply_bin(op, xd, yd).is_int())
        << static_cast<int>(op);
  }
  EXPECT_TRUE(runtime::apply_un(UnOp::BNot, xd).is_int());
  EXPECT_TRUE(runtime::apply_un(UnOp::ToInt, xd).is_int());
  EXPECT_FALSE(runtime::apply_un(UnOp::ToFloat, ir::Value(3)).is_int());
}

TEST(ValueTags, JoinLattice) {
  EXPECT_EQ(runtime::join_tag(Tag::Int, Tag::Int), Tag::Int);
  EXPECT_EQ(runtime::join_tag(Tag::Double, Tag::Double), Tag::Double);
  EXPECT_EQ(runtime::join_tag(Tag::Int, Tag::Double), Tag::Mixed);
  EXPECT_EQ(runtime::join_tag(Tag::Mixed, Tag::Int), Tag::Mixed);
  EXPECT_EQ(runtime::value_tag(ir::Value(1)), Tag::Int);
  EXPECT_EQ(runtime::value_tag(ir::Value(1.0)), Tag::Double);
  EXPECT_STREQ(runtime::tag_name(Tag::Int), "int");
  EXPECT_STREQ(runtime::tag_name(Tag::Double), "double");
  EXPECT_STREQ(runtime::tag_name(Tag::Mixed), "mixed");
}

// ---- the lowered result plane -----------------------------------------------
//
// A trace's generic Bin and Un handlers store the tree kernel's result on the
// plane of its tag, while the lowering assigns every register its plane from
// the operator table's result_tag (eval_ops.h); were the two to disagree, a
// result would land on a plane its next reader does not read.  Each filter
// below pushes one operator's result, so the pushed register is written once
// and its lowered tag is the static result tag.

// The lowered tag of the register `push_(expr)` reads, in a filter whose
// whole work is that push (peek(0) and peek(1) feed the operands).
Tag lowered_push_tag(const std::string& name, const ir::ExprP& expr) {
  const ir::FilterSpec spec = filter(name)
                                  .rates(2, 2, 1)
                                  .work(seq({push_(E(expr)), discard(2)}))
                                  .build();
  std::string reason;
  const runtime::TypedFilterP typed =
      runtime::typed_compile(spec, runtime::compile_filter(spec),
                             runtime::Interp::init_state(spec), &reason);
  EXPECT_NE(typed, nullptr) << name << ": " << reason;
  if (!typed) return Tag::Mixed;
  for (const runtime::FInstr& I : typed->work.code) {
    if (I.op == runtime::FOp::RPush) return typed->work.reg_tag[I.dst];
  }
  ADD_FAILURE() << name << ": no push";
  return Tag::Mixed;
}

// peek(k) as an int (to_int) or a double operand, and a sample of its tag.
ir::ExprP plane_operand(int k, bool dbl) {
  const ir::ExprP e = ir::peek(ir::iconst(k));
  return dbl ? e : ir::un(UnOp::ToInt, e);
}
ir::Value plane_sample(bool dbl) {
  return dbl ? ir::Value(2.5) : ir::Value(std::int64_t{2});
}

TEST(TypedLowering, ResultPlaneMatchesTheTreeKernel) {
  for (int op = 0; op <= static_cast<int>(BinOp::Shr); ++op) {
    const auto bop = static_cast<BinOp>(op);
    for (const bool ad : {false, true}) {
      for (const bool bd : {false, true}) {
        const std::string name = std::string(ir::to_string(bop)) + "_" +
                                 (ad ? "d" : "i") + (bd ? "d" : "i");
        const ir::Value want = runtime::apply_bin(bop, plane_sample(ad),
                                                  plane_sample(bd));
        EXPECT_EQ(lowered_push_tag(name, ir::bin(bop, plane_operand(0, ad),
                                                 plane_operand(1, bd))),
                  runtime::value_tag(want))
            << name;
      }
    }
  }
  for (int op = 0; op <= static_cast<int>(UnOp::ToFloat); ++op) {
    const auto uop = static_cast<UnOp>(op);
    for (const bool ad : {false, true}) {
      const std::string name =
          std::string(ir::to_string(uop)) + "_" + (ad ? "d" : "i");
      const ir::Value want = runtime::apply_un(uop, plane_sample(ad));
      EXPECT_EQ(lowered_push_tag(name, ir::un(uop, plane_operand(0, ad))),
                runtime::value_tag(want))
          << name;
    }
  }
}

// ---- specialization on the flagship apps ------------------------------------

TEST(TypedSpecialize, FirFiltersAllSpecialize) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::On);
  const auto& g = ex.graph();
  int typed = 0;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].kind != runtime::FlatActor::Kind::Filter) continue;
    EXPECT_TRUE(ex.actor_uses_vm(static_cast<int>(i)))
        << g.actors[i].name << ": " << ex.typed_refusal(static_cast<int>(i));
    ++typed;
  }
  EXPECT_EQ(typed, 3);
  const int fir = actor_id(g, "fir");
  ASSERT_GE(fir, 0);
  const runtime::TypedFilter* tp = ex.typed_program(fir);
  ASSERT_NE(tp, nullptr);
  EXPECT_GT(tp->work.typed_regs, 0);
  EXPECT_EQ(tp->work.push_tag, Tag::Double);
}

TEST(TypedSpecialize, FirFusedTraceGoesTyped) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::On);
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  // The trace carries the per-actor typing: Double operands are marked.
  bool double_plane = false;
  for (const runtime::FInstr& I : fp->code) double_plane |= I.mode != 0;
  EXPECT_TRUE(double_plane);
}

// TypedMode::Off is the tree engine, whatever engine was asked for: no
// whole-graph trace (and no refusal: none was attempted), no one-actor
// traces.
TEST(TypedSpecialize, TypedOffDisablesBothLayers) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::Off);
  EXPECT_EQ(ex.engine(), sched::Engine::Tree);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "");
  EXPECT_EQ(ex.metrics_snapshot().engine, "tree");
  const auto& g = ex.graph();
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    EXPECT_FALSE(ex.actor_uses_vm(static_cast<int>(i)));
  }
}

// The report streamc --report prints (sched/describe.h) reads the
// executor's own typed programs, refusals and channel content tags.
TEST(TypedSpecialize, ReportRendersTheExecutorsTypedProgramsOnFir) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::On);
  const std::string report = sched::describe_compiled(ex);
  EXPECT_NE(report.find("typeflow: 3/3 filter(s) specialized, "),
            std::string::npos)
      << report;
  // Every FIR channel carries doubles.
  EXPECT_NE(report.find(", 0 int-content channel(s)\n"), std::string::npos)
      << report;
  EXPECT_EQ(report.find(": int\n"), std::string::npos) << report;
  EXPECT_NE(report.find("  admissible: 2 channel(s) lowered to trace buffers"),
            std::string::npos)
      << report;
}

// A filter whose one-actor trace is a coefficient kernel reports the
// kernel's shape instead of the registers it no longer needs there.
TEST(TypedSpecialize, LinearKernelActorsReportTheirKernel) {
  opt::CompileOptions copts;
  copts.level = opt::OptLevel::O2;
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.trace = sched::TraceMode::Off;
  const sched::Executor ex(opt::compile(apps::make_app("TargetDetect"), copts),
                           opts);
  const std::string report = sched::describe_compiled(ex);
  int kernels = 0;
  for (std::size_t at = report.find(": typed (linear-kernel (");
       at != std::string::npos;
       at = report.find(": typed (linear-kernel (", at + 1)) {
    ++kernels;
  }
  EXPECT_EQ(kernels, 4) << report;
  EXPECT_NE(report.find(
                "  mf0_lin: typed (linear-kernel (1x32, 31 nnz), push double)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("  src: typed (2 double reg(s), push double)"),
            std::string::npos)
      << report;
}

// ---- refusal taxonomy -------------------------------------------------------

NodeP tiny_src(const std::string& name) {
  return filter(name)
      .rates(0, 0, 1)
      .iscalar("seed", 1)
      .work(seq({let("seed", v("seed") + ci(1)),
                 push_(to_float(v("seed")))}))
      .node();
}

// A register that is Int on one path and Double on the other: the merge join
// makes it Mixed, and the read after the merge must refuse.
NodeP mixed_register_filter(const std::string& name) {
  return filter(name)
      .rates(1, 1, 1)
      .work(seq({let("t", ci(0)),
                 let("x", pop_()),
                 if_(v("x") > c(0.5), let("t", v("x"))),
                 push_(to_float(v("t")))}))
      .node();
}

// A state scalar seeded Int whose work stores a Double into it: the state
// class joins to Mixed, and the whole filter must refuse.
NodeP mixed_state_filter(const std::string& name) {
  return filter(name)
      .rates(1, 1, 1)
      .iscalar("acc", 0)
      .work(seq({let("x", pop_()),
                 let("acc", v("acc") + v("x")),
                 push_(v("x"))}))
      .node();
}

TEST(TypedRefusal, MixedRegisterRefusesWithStableReason) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_register_filter("mixr")}),
      sched::Engine::Fused, sched::TypedMode::On);
  const int a = actor_id(ex.graph(), "mixr");
  ASSERT_GE(a, 0);
  EXPECT_FALSE(ex.actor_uses_vm(a));
  EXPECT_EQ(ex.typed_refusal(a), "mixed-register");
  // The source still specializes: refusal is per-actor, never per-graph.
  const int s = actor_id(ex.graph(), "s");
  ASSERT_GE(s, 0);
  EXPECT_TRUE(ex.actor_uses_vm(s)) << ex.typed_refusal(s);
}

TEST(TypedRefusal, MixedStateRefusesNamingTheSlot) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Fused, sched::TypedMode::On);
  const int a = actor_id(ex.graph(), "mixs");
  ASSERT_GE(a, 0);
  EXPECT_FALSE(ex.actor_uses_vm(a));
  EXPECT_EQ(ex.typed_refusal(a), "mixed-state:acc");
}

// The report names an actor the executor runs on the tree with its
// refusal, and its state as bound after init.
TEST(TypedRefusal, ReportShowsATreeRunActorWithItsState) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Fused, sched::TypedMode::On);
  const std::string report = sched::describe_compiled(ex);
  EXPECT_NE(report.find("  refused: mixed-state:mixs.acc\n"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("typeflow: 1/2 filter(s) specialized, "),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("  mixs: tree (mixed-state:acc)\n    state: acc:int\n"),
            std::string::npos)
      << report;
}

TEST(TypedRefusal, FusedTraceRefusalQualifiesTheActor) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_register_filter("mixr")}),
      sched::Engine::Fused, sched::TypedMode::On);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "mixed-register:mixr");
  // Without a trace the steady state runs per-actor, and the metrics say
  // so: the refusal is the fallback detail, and no trace statics.
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.fallback, "fused-refused");
  EXPECT_EQ(m.fallback_detail, "mixed-register:mixr");
  EXPECT_EQ(m.fused_channels, -1);
}

TEST(TypedRefusal, FusedMixedStateQualifiesActorAndSlot) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Fused, sched::TypedMode::On);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "mixed-state:mixs.acc");
}

TEST(TypedRefusal, HandlersRefuse) {
  auto h = filter("h")
               .rates(1, 1, 1)
               .scalar("g", ir::Value(1.0))
               .handler("boost", {"amt"}, seq({let("g", v("amt"))}))
               .work(seq({push_(pop_() * v("g"))}))
               .node();
  auto ex = make_exec(make_pipeline("p", {tiny_src("s"), h}),
                      sched::Engine::Fused, sched::TypedMode::On);
  const int a = actor_id(ex.graph(), "h");
  ASSERT_GE(a, 0);
  EXPECT_FALSE(ex.actor_uses_vm(a));
  EXPECT_EQ(ex.typed_refusal(a), "has-handlers");
}

// ---- typed on vs off (tree) across the whole suite --------------------------

TEST(TypedDiff, AllAppsBitEqualTypedOnVsOffUnderVmAndFused) {
  for (const auto& app : apps::all_apps()) {
    const ir::NodeP obs = observable(app.make());
    // Tracing refuses the whole-graph trace: the per-actor traces.
    expect_typed_off_parity(obs, sched::Engine::Fused, app.name + " per-actor",
                            4, sched::TraceMode::On);
    expect_typed_off_parity(obs, sched::Engine::Fused, app.name + " fused");
  }
}

TEST(TypedDiff, ThreadedRuntimeBitEqualTypedOnVsOff) {
  for (const char* name : {"FIR", "FilterBank", "Vocoder"}) {
    sched::ExecOptions on;
    on.threads = 4;
    on.typed = sched::TypedMode::On;
    on.trace = sched::TraceMode::Off;
    sched::ThreadedExecutor ton(observable(apps::make_app(name)), on);

    sched::ExecOptions off;
    off.threads = 4;
    off.typed = sched::TypedMode::Off;
    off.trace = sched::TraceMode::Off;
    sched::ThreadedExecutor toff(observable(apps::make_app(name)), off);

    expect_bit_equal(ton.run_steady(6), toff.run_steady(6),
                     std::string(name) + " 4-thread");
    EXPECT_EQ(ton.firings(), toff.firings()) << name;
  }
}

// ---- metrics ----------------------------------------------------------------

TEST(TypedMetrics, SnapshotCarriesSpecializationCountersAndEdgeContent) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::On);
  ex.run_steady(2);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.typed_actors, 3);
  EXPECT_GT(m.typed_regs, 0);
  EXPECT_EQ(m.typed_channels, static_cast<int>(m.edges.size()));
  for (const auto& a : m.actors) {
    EXPECT_EQ(a.typed_status, "typed") << a.name;
  }
  for (const auto& e : m.edges) {
    EXPECT_EQ(e.content, "double") << e.name;
  }
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"typed_actors\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"typed\": \"typed\""), std::string::npos);
  EXPECT_NE(json.find("\"content\": \"double\""), std::string::npos);
}

TEST(TypedMetrics, OffSnapshotOmitsTypedBlock) {
  auto ex = make_exec(apps::make_app("FIR"), sched::Engine::Fused,
                      sched::TypedMode::Off);
  ex.run_steady(2);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.typed_actors, -1);
  EXPECT_EQ(m.to_json().find("typed_actors"), std::string::npos);
  for (const auto& a : m.actors) EXPECT_TRUE(a.typed_status.empty());
  for (const auto& e : m.edges) EXPECT_TRUE(e.content.empty());
}

TEST(TypedMetrics, RefusalSurfacesInActorStatus) {
  auto ex = make_exec(
      make_pipeline("p", {tiny_src("s"), mixed_state_filter("mixs")}),
      sched::Engine::Fused, sched::TypedMode::On);
  ex.run_steady(2);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  bool saw = false;
  for (const auto& a : m.actors) {
    if (a.name == "mixs") {
      saw = true;
      EXPECT_EQ(a.typed_status, "mixed-state:acc");
      EXPECT_EQ(a.typed_regs, 0);
    }
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace sit
