// Fused-engine tests: superinstruction selection pins, every refusal
// reason, fallback equivalence, feedback loops that fuse as interleaved
// firing runs, trace-size bounds, and runtime fault messages that match
// across every engine.
//
// The bit-equality contract itself (outputs / OpCounts / channel counters /
// filter state across all apps x all optimization levels) lives in
// test_pipeline_diff.cc; this file pins the *static* artifacts -- which
// superinstructions the peephole selects on the flagship apps, how many
// channels are lowered, how long the traces are -- and exercises each path
// that must refuse fusion and degrade to the per-actor VM.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "analysis/bounds_chan.h"
#include "analysis/fuse.h"
#include "apps/apps.h"
#include "ir/dsl.h"
#include "linear/linear_rep.h"
#include "opt/compile.h"
#include "runtime/fused.h"
#include "runtime/spsc.h"
#include "sched/exec.h"
#include "sched/schedule.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;

// Tracing refuses the whole-graph trace ("tracing-enabled"), so these
// options pin it off whatever SIT_TRACE says.
sched::ExecOptions fused_options() {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.trace = sched::TraceMode::Off;
  return opts;
}

sched::Executor make_fused(ir::NodeP root) {
  return sched::Executor(std::move(root), fused_options());
}

// Drop the final sink so the program output edge is observable.
ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

// Lower without the analysis gate, which rejects every faulting or
// rate-lying program below statically.
sched::CompiledProgram lower_ungated(const ir::NodeP& root) {
  sched::CompiledProgram p;
  p.graph = root;
  p.flat = runtime::flatten(root);
  p.schedule = sched::make_schedule(p.flat);
  return p;
}

int actor_id(const runtime::FlatGraph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

// An edge's cumulative counters, on its Channel or its threaded run's ring.
std::int64_t pushed(sched::Executor& ex, int e) {
  return ex.channel(e).total_pushed();
}
std::int64_t popped(sched::Executor& ex, int e) {
  return ex.channel(e).total_popped();
}
std::int64_t pushed(sched::ThreadedExecutor& ex, int e) {
  return ex.edge_pushed(e);
}
std::int64_t popped(sched::ThreadedExecutor& ex, int e) {
  return ex.edge_popped(e);
}

// Require bit-equal firings, per-actor OpCounts and FilterState, and channel
// counters between a reference run (per-actor VM or tree) and a fused (or
// threaded) run of the same program.
template <class Ex>
void expect_same_state(sched::Executor& vm, Ex& fused) {
  EXPECT_EQ(fused.firings(), vm.firings());
  for (std::size_t a = 0; a < vm.actor_ops().size(); ++a) {
    const runtime::OpCounts& vo = vm.actor_ops()[a];
    const runtime::OpCounts& fo = fused.actor_ops()[a];
    EXPECT_EQ(vo.int_ops, fo.int_ops) << "actor " << a;
    EXPECT_EQ(vo.flops, fo.flops) << "actor " << a;
    EXPECT_EQ(vo.divs, fo.divs) << "actor " << a;
    EXPECT_EQ(vo.trans, fo.trans) << "actor " << a;
    EXPECT_EQ(vo.mem, fo.mem) << "actor " << a;
    EXPECT_EQ(vo.channel, fo.channel) << "actor " << a;
    const auto& vs = vm.filter_state(static_cast<int>(a));
    const auto& fs = fused.filter_state(static_cast<int>(a));
    for (const auto& [name, val] : vs.scalars) {
      const auto it = fs.scalars.find(name);
      ASSERT_NE(it, fs.scalars.end()) << name;
      EXPECT_EQ(val.is_int(), it->second.is_int()) << name;
      EXPECT_EQ(val.as_double(), it->second.as_double()) << name;
    }
    for (const auto& [name, arr] : vs.arrays) {
      const auto it = fs.arrays.find(name);
      ASSERT_NE(it, fs.arrays.end()) << name;
      ASSERT_EQ(arr.size(), it->second.size()) << name;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        EXPECT_EQ(arr[i].as_double(), it->second[i].as_double())
            << name << "[" << i << "]";
      }
    }
  }
  for (std::size_t e = 0; e < vm.graph().edges.size(); ++e) {
    const int ei = static_cast<int>(e);
    EXPECT_EQ(pushed(vm, ei), pushed(fused, ei)) << "edge " << e;
    EXPECT_EQ(popped(vm, ei), popped(fused, ei)) << "edge " << e;
  }
}

void expect_same_output(const std::vector<double>& fout,
                        const std::vector<double>& vout) {
  ASSERT_FALSE(vout.empty());
  ASSERT_EQ(fout.size(), vout.size());
  for (std::size_t i = 0; i < fout.size(); ++i) {
    EXPECT_EQ(fout[i], vout[i]) << "item " << i;
  }
}

// ---- superinstruction selection ---------------------------------------------
//
// Exact instance counts on the unoptimized flagship graphs.  These are
// structural pins: a change means the peephole matcher or the trace layout
// changed, which is worth a deliberate review (and an update here).

TEST(FusedSuper, FirSelectsOneMacLoop) {
  auto ex = make_fused(apps::make_app("FIR"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 1);
  EXPECT_EQ(fp->eliminated_channels, 2);
}

TEST(FusedSuper, VocoderSelectsBandAndAgcPatterns) {
  auto ex = make_fused(apps::make_app("Vocoder"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 9);      // 8 bands + output lowpass
  EXPECT_EQ(fp->super_count("sum-loop"), 1);      // vsum
  EXPECT_EQ(fp->super_count("dup-run"), 1);       // vbank duplicate splitter
  EXPECT_EQ(fp->super_count("copy-run"), 8);      // vbank joiner legs
  EXPECT_EQ(fp->eliminated_channels, 23);
}

TEST(FusedSuper, FilterBankSelectsMacSumAndRouting) {
  auto ex = make_fused(apps::make_app("FilterBank"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 128);  // 8 bands x (8 analysis + 8 synthesis)
  EXPECT_EQ(fp->super_count("sum-loop"), 8);    // combine firings
  EXPECT_EQ(fp->super_count("copy-run"), 64);   // joiner legs x reps
  EXPECT_EQ(fp->super_count("dup-run"), 1);
  EXPECT_EQ(fp->eliminated_channels, 43);
}

TEST(FusedSuper, FmRadioSelectsMacSumAndRouting) {
  auto ex = make_fused(apps::make_app("FMRadio"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 11);      // rf_lp + 10 eq bandpass
  EXPECT_EQ(fp->super_count("sum-loop"), 1);       // eqsum
  EXPECT_EQ(fp->super_count("copy-run"), 10);      // equalizer joiner legs
  EXPECT_EQ(fp->super_count("dup-run"), 1);
}

TEST(FusedSuper, BitonicSortSelectsRoutingOnly) {
  auto ex = make_fused(apps::make_app("BitonicSort"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("copy-run"), 48);
  EXPECT_EQ(fp->super_count("mac-loop"), 0);
}

TEST(FusedSuper, DesHasNoSuperinstructionPatterns) {
  // Feistel rounds are straight-line integer code: nothing matches.
  auto ex = make_fused(apps::make_app("DES"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_TRUE(fp->super.empty());
}

TEST(FusedSuper, DisassemblyAnnotatesSuperinstructions) {
  auto ex = make_fused(apps::make_app("FIR"));
  ASSERT_NE(ex.fused_program(), nullptr);
  const std::string dis = ex.fused_program()->disassemble();
  EXPECT_NE(dis.find("mac-loop"), std::string::npos);
}

// At -O2 the linear passes leave their collapsed nodes as to_filter's
// filters, which carry their coefficient rows; every one of them must run
// as a linear-kernel.  A pass that loses the rows fails here.
TEST(FusedSuper, EveryLinNodeRunsAsLinearKernelAtO2) {
  for (const char* app : {"Oversampler", "TargetDetect", "DCT", "RateConvert",
                          "ChannelVocoder"}) {
    SCOPED_TRACE(app);
    opt::CompileOptions copts;
    copts.level = opt::OptLevel::O2;
    sched::Executor ex(opt::compile(apps::make_app(app), copts),
                       fused_options());
    const runtime::FusedProgram* fp = ex.fused_program();
    ASSERT_NE(fp, nullptr) << ex.fused_refusal();
    std::int64_t lin = 0;
    for (const runtime::FlatActor& a : ex.graph().actors) {
      if (a.name.ends_with("_lin")) ++lin;
    }
    EXPECT_GT(lin, 0);
    EXPECT_EQ(fp->super_count("linear-kernel"), lin);
    EXPECT_NE(fp->disassemble().find("linear-kernel rows="), std::string::npos);
  }
}

// ---- refusal reasons --------------------------------------------------------

NodeP tiny_src(const std::string& name) {
  return filter(name)
      .rates(0, 0, 1)
      .iscalar("seed", 1)
      .work(seq({let("seed", v("seed") + ci(1)),
                 push_(to_float(v("seed")))}))
      .node();
}

NodeP tiny_snk(const std::string& name) {
  return filter(name).rates(1, 1, 0).work(seq({discard(1)})).node();
}

// The for variable shadows a state scalar, which compile_filter refuses;
// there is no bytecode template to inline, so fusion refuses too (and the
// actor runs on the tree interpreter as usual).
NodeP vm_fallback_filter() {
  return filter("bad")
      .rates(1, 1, 1)
      .scalar("i", ir::Value(0.0))
      .work(seq({let("x", pop_()), for_("i", 0, 1, let("y", v("x"))),
                 push_(v("x"))}))
      .node();
}

TEST(FusedRefusal, WorkOutsideBytecodeSubsetIsVmFallback) {
  auto ex = make_fused(
      make_pipeline("p", {tiny_src("s"), vm_fallback_filter(), tiny_snk("k")}));
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal().rfind("vm-fallback:bad (", 0), 0u)
      << ex.fused_refusal();
  ex.run_steady(3);  // still runs, per-actor
  const int src = actor_id(ex.graph(), "s");
  ASSERT_GE(src, 0);
  EXPECT_EQ(ex.firings()[static_cast<std::size_t>(src)],
            3 * ex.schedule().reps[static_cast<std::size_t>(src)] +
                ex.schedule().init_fires[static_cast<std::size_t>(src)]);
}

TEST(FusedRefusal, TeleportSendingFilterRefuses) {
  auto monitor = filter("monitor")
                     .rates(1, 1, 1)
                     .work(seq({let("x", pop_()),
                                if_(v("x") == c(5.0),
                                    ir::send("p", "boost", {c(2.0).e}, 1, 1)),
                                push_(v("x"))}))
                     .node();
  auto ex =
      make_fused(make_pipeline("p", {tiny_src("s"), monitor, tiny_snk("k")}));
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "teleport-send:monitor");
}

// Run `f` after a source on the fused engine and on the tree interpreter:
// the trace must refuse with `reason`, and the per-actor run must match the
// tree in outputs, state, OpCounts and channel counters.
void expect_refused_and_tree_equal(const std::function<NodeP()>& make_f,
                                   const std::string& reason) {
  auto fused = make_fused(make_pipeline("p", {tiny_src("s"), make_f()}));
  EXPECT_EQ(fused.fused_program(), nullptr);
  EXPECT_EQ(fused.fused_refusal(), reason);
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(make_pipeline("p", {tiny_src("s"), make_f()}), topt);
  expect_same_output(fused.run_steady(4), tree.run_steady(4));
  expect_same_state(tree, fused);
}

TEST(FusedRefusal, HandlerFilterRefusesAndMatchesTree) {
  expect_refused_and_tree_equal(
      [] {
        return filter("gainer")
            .rates(1, 1, 1)
            .scalar("gain", Value{1.5})
            .work(seq({push_(pop_() * v("gain"))}))
            .handler("setGain", {"g"}, let("gain", v("g")))
            .node();
      },
      "has-handlers:gainer");
}

// An Int accumulator cannot type at all: `acc` is Int on entry and Double
// after one term, so the add in the loop body reads a Mixed register.
TEST(FusedRefusal, IntAccumulatorLoopIsMixedRegister) {
  expect_refused_and_tree_equal(
      [] {
        return filter("isum")
            .rates(4, 1, 1)
            .work(seq({let("acc", ci(0)),
                       for_("i", 0, 4, let("acc", v("acc") + peek_(v("i")))),
                       discard(1), push_(v("acc"))}))
            .node();
      },
      "mixed-register:isum");
}

// The mac-loop kernel runs on raw doubles, so it needs an Int counter and
// bound, a Double accumulator and a Double coefficient array.  compile_filter
// coerces loop bounds to Int, and an Int accumulator does not type at all
// (IntAccumulatorLoopIsMixedRegister), so an Int coefficient array is what
// keeps a typed loop out of the kernel: the trace still fuses and runs the
// loop as plain instructions, bit-equal to the tree interpreter.
TEST(FusedSuper, MacLoopNeedsADoubleCoefficientArray) {
  const auto mk = [](bool int_coef) {
    const auto coef = [&](double x) {
      return int_coef ? Value{static_cast<std::int64_t>(x)} : Value{x};
    };
    auto mac = filter("mac")
                   .rates(4, 1, 1)
                   .array_init("h", {coef(1), coef(-2), coef(3), coef(1)})
                   .work(seq({let("acc", c(0.0)),
                              for_("i", 0, 4,
                                   let("acc", v("acc") + peek_(v("i")) *
                                                             at("h", v("i")))),
                              discard(1), push_(v("acc"))}))
                   .node();
    return make_pipeline("p", {tiny_src("s"), mac});
  };
  auto dbl = make_fused(mk(false));
  ASSERT_NE(dbl.fused_program(), nullptr) << dbl.fused_refusal();
  EXPECT_EQ(dbl.fused_program()->super_count("mac-loop"), 1);

  auto fused = make_fused(mk(true));
  ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
  EXPECT_TRUE(fused.fused_program()->super.empty());
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(mk(true), topt);
  expect_same_output(fused.run_steady(4), tree.run_steady(4));
  expect_same_state(tree, fused);
}

TEST(FusedRefusal, MessageSinkAttachedRefuses) {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.message_sink = [](const runtime::SentMessage&) {};
  sched::Executor ex(apps::make_app("FIR"), opts);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "message-sink-attached");
}

TEST(FusedRefusal, TracingEnabledRefuses) {
  if (!sched::resolve_trace(sched::TraceMode::On)) {
    GTEST_SKIP() << "observability instrumentation compiled out";
  }
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.trace = sched::TraceMode::On;
  sched::Executor ex(apps::make_app("FIR"), opts);
  EXPECT_EQ(ex.fused_program(), nullptr);
  EXPECT_EQ(ex.fused_refusal(), "tracing-enabled");
}

TEST(FusedRefusal, RefusedProgramStillMatchesVmBitExactly) {
  auto fused =
      make_fused(make_pipeline("p", {tiny_src("s"), vm_fallback_filter()}));
  ASSERT_EQ(fused.fused_program(), nullptr);  // per-actor fallback

  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(make_pipeline("p", {tiny_src("s"), vm_fallback_filter()}),
                     vopt);

  const auto fout = fused.run_steady(4);
  const auto vout = vm.run_steady(4);
  ASSERT_FALSE(vout.empty());
  ASSERT_EQ(fout.size(), vout.size());
  for (std::size_t i = 0; i < fout.size(); ++i) {
    EXPECT_EQ(fout[i], vout[i]) << "item " << i;
  }
  EXPECT_EQ(fused.firings(), vm.firings());
  EXPECT_EQ(fused.total_ops().flops, vm.total_ops().flops);
  EXPECT_EQ(fused.total_ops().channel, vm.total_ops().channel);
}

TEST(FusedRefusal, MetricsCarryRefusalDetail) {
  auto ex = make_fused(
      make_pipeline("p", {tiny_src("s"), vm_fallback_filter(), tiny_snk("k")}));
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.engine, "fused");
  EXPECT_EQ(m.fallback, "fused-refused");
  EXPECT_EQ(m.fallback_detail.rfind("vm-fallback:bad (", 0), 0u)
      << m.fallback_detail;
  EXPECT_EQ(m.fused_channels, -1);  // no active trace to report statics for
}

// ---- feedback loops: interleaved firing runs --------------------------------

// Run one compiled program on the per-actor VM and on the typed fused trace
// and require bit-equal outputs and state.
void expect_fused_matches_vm(const sched::CompiledProgram& prog, int iters) {
  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(prog, vopt);
  sched::Executor fused(prog, fused_options());
  ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
  expect_same_output(fused.run_steady(iters), vm.run_steady(iters));
  expect_same_state(vm, fused);
}

TEST(FusedFeedback, DtoaFusesAsInterleavedRuns) {
  // DtoA's noise shaper is a tight feedback loop (delay 1): no
  // single-appearance schedule exists, so the steady state is a sequence of
  // short runs in which the loop's joiner fires once per run, 16 times.
  auto ex = make_fused(apps::make_app("DtoA"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  const sched::Schedule& s = ex.schedule();
  const int join = actor_id(ex.graph(), "noiseshaper.fbjoin");
  ASSERT_GE(join, 0);
  EXPECT_EQ(s.reps[static_cast<std::size_t>(join)], 16);
  std::vector<std::int64_t> fired(s.reps.size(), 0);
  int join_runs = 0;
  for (const runtime::FiringRun& r : s.steady_runs) {
    fired[static_cast<std::size_t>(r.actor)] += r.count;
    if (r.actor == join) {
      ++join_runs;
      EXPECT_EQ(r.count, 1);
    }
  }
  EXPECT_EQ(fired, s.reps);
  EXPECT_EQ(join_runs, 16);
  EXPECT_EQ(fp->runs.size(), s.steady_runs.size());
}

TEST(FusedFeedback, DtoaFusedMatchesVmAtO0AndO2) {
  for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    opt::CompileOptions copts;
    copts.level = level;
    SCOPED_TRACE(level == opt::OptLevel::O0 ? "-O0" : "-O2");
    expect_fused_matches_vm(
        opt::compile(observable(apps::make_app("DtoA")), copts), 5);
  }
}

TEST(FusedFeedback, LoopWithDelayBelowRepetitionsMatchesVm) {
  // The loop fires 3 times per steady state but holds only 2 delay items,
  // and its body peeks one item past what it pops.
  auto up = filter("up")
                .rates(1, 1, 3)
                .work(seq({let("x", pop_()), push_(v("x")),
                           push_(v("x") * c(0.5)), push_(v("x") * c(-0.25))}))
                .node();
  auto body = filter("mix")
                  .rates(3, 2, 2)
                  .work(seq({let("x", pop_()), let("e", pop_()),
                             let("y", v("x") + v("e") * c(0.75) +
                                          peek_(0) * c(0.125)),
                             push_(v("y")), push_(v("y") - c(1.0))}))
                  .node();
  auto back = filter("back")
                  .rates(1, 1, 1)
                  .work(seq({push_(pop_() * c(0.5) - c(0.125))}))
                  .node();
  auto loop = make_feedback("fb", roundrobin_join({1, 1}), body,
                            roundrobin_split({1, 1}), back, /*delay=*/2,
                            {0.25, -0.5});
  const sched::CompiledProgram prog =
      sched::lower(make_pipeline("p", {tiny_src("s"), up, loop}));
  ASSERT_FALSE(analysis::channel_bounds(prog.flat, prog.schedule)
                   .single_appearance);
  EXPECT_GT(prog.schedule.steady_runs.size(), prog.flat.actors.size());
  expect_fused_matches_vm(prog, 7);
}

// ---- trace size ---------------------------------------------------------------
//
// The trace holds each firing template once per run, so its length no longer
// grows with the repetition counts.  Lengths measured before firing runs (one
// inlined copy per firing), per app at -O0 / -O2; DtoA did not fuse then.

struct TraceLen {
  const char* app;
  std::size_t o0, o2;
};

constexpr TraceLen kInlinedTraceLen[] = {
    {"BitonicSort", 539, 539},    {"ChannelVocoder", 427, 432012},
    {"DCT", 5257, 27943},         {"DES", 388, 388},
    {"FFT", 3578, 2770},          {"FilterBank", 1535, 2222},
    {"FMRadio", 187, 8988},       {"Serpent", 1153, 1153},
    {"TDE", 2738, 1958},          {"MPEG2Decoder", 1819, 4201},
    {"Vocoder", 152, 239},        {"Radar", 1354, 1354},
    {"FIR", 26, 11666},           {"RateConvert", 119, 235},
    {"TargetDetect", 99, 443},    {"Oversampler", 339, 1417},
};

std::size_t fused_trace_len(const std::string& app, opt::OptLevel level) {
  opt::CompileOptions copts;
  copts.level = level;
  sched::Executor ex(opt::compile(apps::make_app(app), copts),
                     fused_options());
  const runtime::FusedProgram* fp = ex.fused_program();
  return fp == nullptr ? 0 : fp->code.size();
}

TEST(FusedTraceSize, NoAppTraceGrewOverInlinedFirings) {
  for (const TraceLen& t : kInlinedTraceLen) {
    for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
      const std::size_t was = level == opt::OptLevel::O0 ? t.o0 : t.o2;
      const std::size_t now = fused_trace_len(t.app, level);
      EXPECT_GT(now, 0u) << t.app;
      EXPECT_LE(now, was) << t.app
                          << (level == opt::OptLevel::O0 ? " -O0" : " -O2");
    }
  }
}

TEST(FusedTraceSize, ChannelVocoderAtO2StaysSmall) {
  // Frequency translation raises ChannelVocoder's repetition counts to the
  // thousands; inlined firings made a 432,012-instruction trace.
  EXPECT_LT(fused_trace_len("ChannelVocoder", opt::OptLevel::O2), 10000u);
}

// ---- decode census ----------------------------------------------------------
//
// Every trace instruction is decoded once, at build, to the handler run()
// dispatches it on (vm.h Handler).  A generic handler reads operand planes
// or the operator at run time.  On the 17 apps only the boundary ring ops
// run on one: no same-plane Bin or Un, move, state access, lowered channel
// op or branch does, in a whole-graph trace or in any one-actor trace.

// "" when `I`'s handler is specialized or `I` is a boundary ring op,
// otherwise the opcode and its generic handler.
std::string needless_generic(const runtime::FInstr& I) {
  if (!runtime::handler_generic(I.handler)) return "";
  if (I.op == runtime::FOp::RPeek || I.op == runtime::FOp::RPopN ||
      I.op == runtime::FOp::RPush) {
    return "";
  }
  return std::string(runtime::op_name(I.op)) + " on " +
         runtime::handler_name(I.handler);
}

void expect_no_needless_generic(const runtime::FusedProgram& prog,
                                const std::string& what) {
  std::int64_t ring_ops = 0;
  for (const runtime::FInstr& I : prog.code) {
    const std::string why = needless_generic(I);
    EXPECT_EQ(why, "") << what;
    if (runtime::handler_generic(I.handler) && why.empty()) ++ring_ops;
  }
  EXPECT_EQ(prog.generic_count(), ring_ops) << what;
}

TEST(DispatchCensus, EveryAppRunsSpecializedHandlersAtO0AndO2) {
  for (const auto& info : apps::all_apps()) {
    for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
      const std::string what =
          info.name + (level == opt::OptLevel::O0 ? " -O0" : " -O2");
      opt::CompileOptions copts;
      copts.level = level;
      const sched::Executor ex(opt::compile(info.make(), copts),
                               fused_options());
      ASSERT_NE(ex.fused_program(), nullptr) << what << ex.fused_refusal();
      expect_no_needless_generic(*ex.fused_program(), what);
      int traces = 0;
      for (std::size_t a = 0; a < ex.graph().actors.size(); ++a) {
        const runtime::FusedProgram* p = ex.actor_trace(static_cast<int>(a));
        if (p == nullptr) continue;
        ++traces;
        expect_no_needless_generic(*p, what + " " + ex.graph().actors[a].name);
      }
      EXPECT_GT(traces, 0) << what;
    }
  }
}

TEST(FusedMetrics, ActiveTraceReportsChannelAndSuperStatics) {
  auto ex = make_fused(apps::make_app("FIR"));
  ASSERT_NE(ex.fused_program(), nullptr);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.engine, "fused");
  EXPECT_EQ(m.fallback, "none");
  EXPECT_EQ(m.fused_channels, 2);
  bool saw_mac = false;
  for (const auto& [name, n] : m.fused_super) {
    if (name == "mac-loop") {
      saw_mac = true;
      EXPECT_EQ(n, 1);
    }
  }
  EXPECT_TRUE(saw_mac);
}

// ---- engine selection -------------------------------------------------------

TEST(FusedEngine, EnvSelectsFused) {
  const char* old = std::getenv("SIT_ENGINE");
  const std::string saved = old != nullptr ? old : "";
  setenv("SIT_ENGINE", "fused", 1);
  EXPECT_EQ(sched::resolve_engine(sched::Engine::Auto), sched::Engine::Fused);
  if (old != nullptr) {
    setenv("SIT_ENGINE", saved.c_str(), 1);
  } else {
    unsetenv("SIT_ENGINE");
  }
}

// ---- activation fallback ----------------------------------------------------

TEST(FusedExecution, ManualFireMidIterationFallsBackAndStaysBitEqual) {
  // A manual fire() leaves an internal channel above its steady-state carry,
  // so activate() must refuse and run_steady must take the per-actor path --
  // producing exactly what the VM produces from the same state.
  auto fused = make_fused(observable(apps::make_app("FIR")));
  ASSERT_NE(fused.fused_program(), nullptr);

  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(observable(apps::make_app("FIR")), vopt);

  fused.run_init();
  vm.run_init();
  const int src_f = actor_id(fused.graph(), "src");
  const int src_v = actor_id(vm.graph(), "src");
  ASSERT_GE(src_f, 0);
  ASSERT_TRUE(fused.can_fire(src_f));
  fused.fire(src_f);
  vm.fire(src_v);

  const auto fout = fused.run_steady(3);
  const auto vout = vm.run_steady(3);
  ASSERT_EQ(fout.size(), vout.size());
  for (std::size_t i = 0; i < fout.size(); ++i) {
    EXPECT_EQ(fout[i], vout[i]) << "item " << i;
  }
  EXPECT_EQ(fused.firings(), vm.firings());
  EXPECT_EQ(fused.total_ops().flops, vm.total_ops().flops);
  EXPECT_EQ(fused.total_ops().channel, vm.total_ops().channel);

  // With the graph back at its steady-state carry, later run_steady calls
  // fuse again -- and must seamlessly continue the same stream.
  const auto f2 = fused.run_steady(3);
  const auto v2 = vm.run_steady(3);
  ASSERT_EQ(f2.size(), v2.size());
  for (std::size_t i = 0; i < f2.size(); ++i) {
    EXPECT_EQ(f2[i], v2[i]) << "item " << i;
  }
}

TEST(FusedExecution, StateRetagFallsBackAndStaysBitEqual) {
  // Storing an int into the Double scalar `g` through filter_state() breaks
  // the typed traces' state classes: activate() must refuse, and later
  // batches run on the tree interpreter, exactly as the tree runs them from
  // the same state (g / 2 is an int division now).
  const auto mk = [] {
    auto h = filter("h")
                 .rates(1, 1, 1)
                 .scalar("g", ir::Value(3.0))
                 .work(seq({push_(pop_() * (v("g") / ci(2)))}))
                 .node();
    return make_pipeline("p", {tiny_src("s"), h});
  };
  auto fused = make_fused(mk());
  ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(mk(), vopt);
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  sched::Executor tree(mk(), topt);
  const int hf = actor_id(fused.graph(), "h");
  const int hv = actor_id(vm.graph(), "h");
  const int ht = actor_id(tree.graph(), "h");
  ASSERT_GE(hf, 0);

  expect_same_output(fused.run_steady(3), vm.run_steady(3));
  tree.run_steady(3);
  fused.filter_state(hf).scalars.at("g") = ir::Value(std::int64_t{3});
  vm.filter_state(hv).scalars.at("g") = ir::Value(std::int64_t{3});
  tree.filter_state(ht).scalars.at("g") = ir::Value(std::int64_t{3});
  const std::vector<double> tout = tree.run_steady(3);
  const std::vector<double> vout = vm.run_steady(3);
  expect_same_output(fused.run_steady(3), vout);
  expect_same_output(vout, tout);
  expect_same_state(vm, fused);
  expect_same_state(tree, vm);
  EXPECT_TRUE(fused.filter_state(hf).scalars.at("g").is_int());
}

// A stateful typed filter -- a Double accumulator, a Double history array
// and an Int cursor -- whose state lives in its trace's planes only during
// a call: interleaved fire() calls, fused and per-actor run_steady calls and
// filter_state() reads and writes between them, and on a second program a
// 4-thread ThreadedExecutor with state written between its calls.  After
// every call, outputs, state, all six OpCounts fields and channel counters
// equal the tree interpreter's.
NodeP accumulator(const std::string& name) {
  return filter(name)
      .rates(1, 1, 1)
      .scalar("sum", Value{0.0})
      .iscalar("k", 0)
      .array_init("hist", {Value{0.0}, Value{0.0}, Value{0.0}, Value{0.0}})
      .work(seq({let("sum", v("sum") + pop_() * c(0.5)),
                 set_at("hist", v("k"), v("sum")),
                 let("k", (v("k") + ci(1)) % ci(4)),
                 push_(v("sum") - at("hist", v("k")))}))
      .node();
}

NodeP pass_through(const std::string& name) {
  return filter(name).rates(1, 1, 1).work(seq({push_(pop_())})).node();
}

TEST(FusedExecution, StateAcrossCallBoundariesMatchesTheTree) {
  const auto mk = [] {
    return make_pipeline("p", {tiny_src("s"), accumulator("acc"),
                               pass_through("a"), pass_through("b"),
                               pass_through("post")});
  };
  sched::ExecOptions topt;
  topt.engine = sched::Engine::Tree;
  const auto write_state = [](runtime::FilterState& st, double sum,
                              double h2) {
    EXPECT_FALSE(st.scalars.at("sum").is_int());
    st.scalars.at("sum") = Value{sum};
    st.arrays.at("hist")[2] = Value{h2};
  };
  {
    SCOPED_TRACE("fused");
    sched::Executor tree(mk(), topt);
    auto fused = make_fused(mk());
    ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
    const int src = actor_id(fused.graph(), "s");
    const int acc = actor_id(fused.graph(), "acc");
    ASSERT_TRUE(fused.actor_uses_vm(acc)) << fused.typed_refusal(acc);
    const auto both = [&](const std::function<void(sched::Executor&)>& f) {
      f(tree);
      f(fused);
      expect_same_state(tree, fused);
    };
    const auto steady = [&](int n) {
      const std::vector<double> t = tree.run_steady(n);
      expect_same_output(fused.run_steady(n), t);
      expect_same_state(tree, fused);
    };
    steady(3);  // the whole trace
    both([&](sched::Executor& ex) { ex.fire(src); });
    both([&](sched::Executor& ex) { ex.fire(acc); });
    steady(2);  // mid-iteration: per-actor
    both([&](sched::Executor& ex) {
      EXPECT_EQ(ex.filter_state(acc).arrays.at("hist").size(), 4u);
      write_state(ex.filter_state(acc), 1.5, -2.25);
    });
    for (const char* rest : {"a", "b", "post"}) {
      both([&](sched::Executor& ex) { ex.fire(actor_id(ex.graph(), rest)); });
    }
    steady(4);  // back at an iteration boundary: the whole trace again
    both([&](sched::Executor& ex) {
      write_state(ex.filter_state(acc), -0.5, 8.0);
    });
    steady(3);
  }
  {
    SCOPED_TRACE("threads=4");
    sched::Executor tree(mk(), topt);
    sched::ExecOptions opts;
    opts.engine = sched::Engine::Fused;
    opts.threads = 4;
    sched::ThreadedExecutor tex(mk(), opts);
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    const int acc = actor_id(tex.graph(), "acc");
    for (const obs::ActorSnapshot& a : tex.metrics_snapshot().actors) {
      EXPECT_EQ(a.typed_status, "typed") << a.name;
    }
    for (const int n : {5, 7, 3}) {
      const std::vector<double> t = tree.run_steady(n);
      expect_same_output(tex.run_steady(n), t);
      expect_same_state(tree, tex);
      const double sum = tex.filter_state(acc).scalars.at("sum").as_double();
      EXPECT_EQ(sum, tree.filter_state(acc).scalars.at("sum").as_double());
      write_state(tree.filter_state(acc), sum + 0.25, n * 1.5);
      write_state(tex.filter_state(acc), sum + 0.25, n * 1.5);
    }
  }
}

// ---- runtime faults ---------------------------------------------------------

// The what() of the fault the first steady state throws ("" if none).
std::string first_fault(const ir::NodeP& root, sched::Engine engine) {
  sched::ExecOptions opts = fused_options();
  opts.engine = engine;
  sched::Executor ex(lower_ungated(root), opts);
  if (engine != sched::Engine::Tree) {
    for (const auto& a : ex.metrics_snapshot().actors) {
      EXPECT_EQ(a.typed_status, "typed") << a.name;
    }
    if (engine == sched::Engine::Fused) {
      EXPECT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
    }
  }
  try {
    ex.run_steady(1);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// y = 2 * peek(0), popping 3: runs as a linear kernel.
ir::FilterSpec short_pop_kernel() {
  linear::LinearRep rep;
  rep.peek = 1;
  rep.pop = 3;
  rep.push = 1;
  rep.A = linear::Matrix(1, 1);
  rep.A.at(0, 0) = 2.0;
  rep.b = {0.0};
  return linear::to_filter(rep, "lin");
}

// y0 = 0.5 + 2*w0 + w1, y1 = -w1, popping 4 of a 2-item window: the
// per-actor engines fire it on two items, and it pushes both rows before
// its pop runs short.
ir::FilterSpec short_pop_two_row_kernel() {
  linear::LinearRep rep;
  rep.peek = 2;
  rep.pop = 4;
  rep.push = 2;
  rep.A = linear::Matrix(2, 2);
  rep.A.at(0, 0) = 2.0;
  rep.A.at(0, 1) = 1.0;
  rep.A.at(1, 1) = -1.0;
  rep.b = {0.5, 0.0};
  return linear::to_filter(rep, "lin2");
}

// Pushes on every firing but its second.
NodeP gappy_src(const std::string& name) {
  return filter(name)
      .rates(0, 0, 1)
      .iscalar("n", 0)
      .work(seq({if_(v("n") != ci(1), push_(c(1.0))),
                 let("n", v("n") + ci(1))}))
      .node();
}

TEST(EngineFaults, ShortKernelInputRunsAsLinearKernel) {
  sched::Executor ex(
      lower_ungated(make_pipeline("p", {gappy_src("s"),
                                        make_filter(short_pop_kernel()),
                                        tiny_snk("k")})),
      fused_options());
  ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  EXPECT_EQ(ex.fused_program()->super_count("linear-kernel"), 1);
}

// A fault's message is part of the cross-engine contract: the tree
// interpreter, the typed VM and the typed fused trace must throw the same
// what().  The compiled engines run the kernel cases through the kernel
// routine: one firing per fire_into on the VM, the whole run in the trace.
TEST(EngineFaults, EveryEngineThrowsTheSameMessage) {
  runtime::set_debug_channel_checks(true);  // for the over-peek
  struct Restore {
    ~Restore() { runtime::set_debug_channel_checks(false); }
  } restore;
  const std::vector<Value> coef = {Value{0.5}, Value{0.25}, Value{0.125},
                                   Value{0.0625}};
  const struct {
    NodeP filter;
    std::string message;
    NodeP source{};  // tiny_src when null
    bool kernel{false};  // the compiled engines run it as a linear kernel
  } cases[] = {
      {filter("load")
           .rates(1, 1, 1)
           .array_init("w", coef)
           .work(seq({push_(pop_() + at("w", ci(7)))}))
           .node(),
       "array index out of bounds: w[7]"},
      {filter("store")
           .rates(1, 1, 1)
           .array_init("w", coef)
           .work(seq({let("x", pop_()), set_at("w", ci(9), v("x")),
                      push_(v("x"))}))
           .node(),
       "array store out of bounds: w[9]"},
      {filter("step")
           .rates(1, 1, 1)
           .iscalar("step", 0)
           .work(seq({let("x", pop_()),
                      for_loop_step("i", ci(0), ci(4), v("step"),
                                    let("x", v("x") + c(1.0))),
                      push_(v("x"))}))
           .node(),
       "for loop step must be positive"},
      {filter("overpeek")
           .rates(2, 1, 1)
           .work(seq({push_(peek_(5)), discard(1)}))
           .node(),
       "peek out of bounds in 'overpeek': peek(5) after 0 pop(s) exceeds the "
       "declared window of 2"},
      // A linear kernel whose input runs short: the source skips its second
      // push, and the kernel (declared pop 3 > peek 1, so the per-actor
      // engines fire it once a single item is there) pops past the end.
      {make_filter(short_pop_kernel()), "pop from empty channel",
       gappy_src("s"), true},
      {make_filter(short_pop_two_row_kernel()), "pop from empty channel",
       gappy_src("s"), true},
  };
  for (const auto& fc : cases) {
    const NodeP root = make_pipeline(
        "p", {fc.source ? fc.source : tiny_src("s"), fc.filter, tiny_snk("k")});
    const std::string name = fc.filter->name;
    if (fc.kernel) {
      sched::ExecOptions vopts;
      vopts.engine = sched::Engine::Vm;
      const sched::Executor vm(lower_ungated(root), vopts);
      EXPECT_TRUE(vm.runs_kernel(actor_id(vm.graph(), name))) << name;
    }
    EXPECT_EQ(first_fault(root, sched::Engine::Tree), fc.message)
        << name << " on the tree interpreter";
    EXPECT_EQ(first_fault(root, sched::Engine::Vm), fc.message)
        << name << " on the typed VM";
    EXPECT_EQ(first_fault(root, sched::Engine::Fused), fc.message)
        << name << " on the typed fused trace";
  }
}

// A lone stateless actor split across the threaded workers meets a short
// input the way the sequential executor does: the same message, after the
// same firings.
TEST(EngineFaults, ShortInputToASplitActorThrowsTheSequentialMessage) {
  const NodeP root = filter("half")
                         .rates(3, 2, 1)
                         .work(seq({push_(peek_(ci(2)) * c(0.5)), discard(2)}))
                         .node();
  // Nine items: four firings fit, the fifth of six steady states starves.
  const auto fault = [](auto& ex) -> std::string {
    ex.feed_input(std::vector<double>(9, 1.0));
    try {
      ex.run_steady(6);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  sched::ExecOptions topts;
  topts.engine = sched::Engine::Tree;
  sched::Executor tree(lower_ungated(root), topts);
  const std::string want = fault(tree);
  EXPECT_EQ(want,
            "runtime deadlock: actor 'half' starved with 1 firings remaining");
  const std::vector<double> out = tree.take_output();
  EXPECT_EQ(out.size(), 4U);
  for (const sched::Engine engine :
       {sched::Engine::Tree, sched::Engine::Vm, sched::Engine::Fused}) {
    sched::ExecOptions opts;
    opts.engine = engine;
    opts.threads = 4;
    sched::ThreadedExecutor tex(lower_ungated(root), opts);
    ASSERT_EQ(tex.report().split, 4) << tex.report().to_string();
    EXPECT_EQ(fault(tex), want);
    EXPECT_EQ(tex.firings(), tree.firings());
    EXPECT_EQ(tex.take_output(), out);
    EXPECT_EQ(tex.edge_popped(0), tree.channel(0).total_popped());
  }
}

// ---- linear kernels ---------------------------------------------------------
//
// A linear node's expression form (linear::to_filter) runs as one
// linear-kernel instruction in the typed fused trace, while the tree
// interpreter evaluates the expression itself: outputs must agree to the bit
// and OpCounts field by field.

// Run `root` on the tree interpreter, on the per-actor VM (whose kernel
// actors fire one firing at a time) and on the typed fused trace (a whole
// run per kernel instruction), five batches of three steady states on
// seeded input fed batch by batch (so a boundary input ring wraps), and
// require bit-equal outputs and equal state, OpCounts and channel counters.
// The VM must run as many kernels as the trace.  Returns the fused trace's
// linear-kernel count (and the outputs in `out`).
std::int64_t expect_kernel_matches_tree(const NodeP& root, std::uint64_t seed,
                                        std::vector<double>* out = nullptr) {
  const sched::CompiledProgram prog = lower_ungated(root);
  sched::ExecOptions topts;
  topts.engine = sched::Engine::Tree;
  sched::Executor tree(prog, topts);
  sched::ExecOptions vopts;
  vopts.engine = sched::Engine::Vm;
  sched::Executor vm(prog, vopts);
  sched::Executor fused(prog, fused_options());
  EXPECT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
  const sched::Schedule& s = tree.schedule();
  std::mt19937_64 gen(seed);
  // Exact zeros of both signs make a -0.0 first term observable.
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<double> all;
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<double> in(static_cast<std::size_t>(
        (batch == 0 ? s.input_for_init : 0) + 3 * s.input_per_steady));
    for (double& x : in) {
      const int k = kind(gen);
      x = k == 0 ? 0.0 : k == 1 ? -0.0 : val(gen);
    }
    if (prog.flat.input_edge >= 0) {
      tree.feed_input(in);
      vm.feed_input(in);
      fused.feed_input(in);
    }
    const std::vector<double> t = tree.run_steady(3);
    EXPECT_FALSE(t.empty());
    for (sched::Executor* ex : {&vm, &fused}) {
      const std::vector<double> f = ex->run_steady(3);
      const char* what = ex == &vm ? "vm" : "fused";
      EXPECT_EQ(t.size(), f.size()) << what;
      for (std::size_t i = 0; i < t.size() && i < f.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t[i]),
                  std::bit_cast<std::uint64_t>(f[i]))
            << what << " batch " << batch << " item " << i << ": " << t[i]
            << " vs " << f[i];
      }
    }
    all.insert(all.end(), t.begin(), t.end());
  }
  expect_same_state(tree, vm);
  expect_same_state(tree, fused);
  if (out != nullptr) *out = std::move(all);
  if (fused.fused_program() == nullptr) return -1;
  const std::int64_t kernels =
      fused.fused_program()->super_count("linear-kernel");
  std::int64_t vm_kernels = 0;
  for (std::size_t a = 0; a < vm.graph().actors.size(); ++a) {
    if (vm.runs_kernel(static_cast<int>(a))) ++vm_kernels;
  }
  EXPECT_EQ(vm_kernels, kernels);
  return kernels;
}

// The kernel alone (boundary rings on both sides), between pass-through
// filters (trace buffers on both sides), and the two mixed shapes.
std::vector<NodeP> kernel_graphs(const ir::FilterSpec& k) {
  const NodeP kn = make_filter(k);
  return {make_pipeline("ring", {kn}),
          make_pipeline("buf", {pass_through("pre"), kn, pass_through("post")}),
          make_pipeline("ring_in", {kn, pass_through("post")}),
          make_pipeline("ring_out", {pass_through("pre"), kn})};
}

// Every row shape the kernel distinguishes: all-zero rows (push 0.0), b-only
// rows, single-term rows, and denser rows with and without a constant.
linear::LinearRep random_kernel_rep(std::mt19937& rng) {
  std::uniform_int_distribution<int> rate(1, 4);
  std::uniform_int_distribution<int> extra(0, 4);
  std::uniform_int_distribution<int> shape(0, 5);
  std::uniform_int_distribution<int> coin(0, 3);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  const auto nonzero = [&] {
    double c = coeff(rng);
    while (c == 0.0) c = coeff(rng);
    return c;
  };
  linear::LinearRep r;
  r.pop = rate(rng);
  r.peek = r.pop + extra(rng);
  r.push = rate(rng);
  r.A = linear::Matrix(static_cast<std::size_t>(r.push),
                       static_cast<std::size_t>(r.peek));
  r.b.assign(static_cast<std::size_t>(r.push), 0.0);
  std::uniform_int_distribution<int> col(0, r.peek - 1);
  for (std::size_t o = 0; o < r.b.size(); ++o) {
    switch (shape(rng)) {
      case 0:  // all-zero
        break;
      case 1:  // b only
        r.b[o] = nonzero();
        break;
      case 2:  // single term
        r.A.at(o, static_cast<std::size_t>(col(rng))) = nonzero();
        break;
      default:
        for (std::size_t i = 0; i < static_cast<std::size_t>(r.peek); ++i) {
          if (coin(rng) != 0) r.A.at(o, i) = nonzero();
        }
        if (coin(rng) == 0) r.b[o] = nonzero();
        break;
    }
  }
  return r;
}

TEST(LinearKernel, RandomRepsMatchTheExpressionBitForBit) {
  std::mt19937 rng(1717);
  bool saw_peek_gt_pop = false;
  for (int t = 0; t < 40; ++t) {
    const linear::LinearRep rep = random_kernel_rep(rng);
    saw_peek_gt_pop = saw_peek_gt_pop || rep.peek > rep.pop;
    const ir::FilterSpec k = linear::to_filter(rep, "lin");
    const ir::LinearRows* rows = k.linear_rows();
    ASSERT_NE(rows, nullptr) << "rep " << t;
    EXPECT_EQ(rows->flops, rep.op_counts().flops) << "rep " << t;
    EXPECT_EQ(rows->channel, rep.op_counts().channel) << "rep " << t;
    for (const NodeP& g : kernel_graphs(k)) {
      SCOPED_TRACE("rep " + std::to_string(t) + " " + g->name + "\n" +
                   rep.describe());
      EXPECT_EQ(expect_kernel_matches_tree(g, 100 + static_cast<unsigned>(t)),
                1);
    }
  }
  EXPECT_TRUE(saw_peek_gt_pop);
}

// A row with b == 0 whose first term is -0.0 (a negative coefficient times a
// +0.0 input) must push -0.0: seeding the sum with +0.0 would push +0.0.
TEST(LinearKernel, NegativeZeroFirstTermStaysNegativeZero) {
  linear::LinearRep rep;
  rep.peek = 2;
  rep.pop = 1;
  rep.push = 2;
  rep.A = linear::Matrix(2, 2);
  rep.A.at(0, 0) = -1.5;  // single term
  rep.A.at(1, 0) = -1.0;  // two terms, both -0.0 on zero input
  rep.A.at(1, 1) = 0.5;
  rep.b = {0.0, 0.0};
  const ir::FilterSpec k = linear::to_filter(rep, "lin");
  for (const NodeP& g : kernel_graphs(k)) {
    SCOPED_TRACE(g->name);
    std::vector<double> out;
    EXPECT_EQ(expect_kernel_matches_tree(g, 5, &out), 1);
    int negative_zeros = 0;
    for (const double y : out) {
      if (y == 0.0 && std::signbit(y)) ++negative_zeros;
    }
    EXPECT_GT(negative_zeros, 0);
  }
}

// Near-misses of to_filter's filter.  A copy whose work is replaced -- even
// by a still-linear expression -- carries no rows, keeps its compiled
// template and still fuses; a copy that only adds a state variable keeps
// its work and rows and runs as a kernel.  Base: y0 = 0.5*w0 + -0.25*w1,
// y1 = 0.125 + 1.5*w1 + 0.75*w2, pop 2.
TEST(LinearKernel, NearMissesKeepTheirTemplate) {
  linear::LinearRep rep;
  rep.peek = 3;
  rep.pop = 2;
  rep.push = 2;
  rep.A = linear::Matrix(2, 3);
  rep.A.at(0, 0) = 0.5;
  rep.A.at(0, 1) = -0.25;
  rep.A.at(1, 1) = 1.5;
  rep.A.at(1, 2) = 0.75;
  rep.b = {0.0, 0.125};
  const ir::FilterSpec base = linear::to_filter(rep, "lin");
  const std::vector<StmtP>& body = base.work->stmts;
  ASSERT_EQ(body.size(), 3u);
  const auto row0 = [](ExprP coef, ExprP index) {
    return ir::push(ir::bin(BinOp::Add, ir::bin(BinOp::Mul, coef, ir::peek(index)),
                            ir::bin(BinOp::Mul, fconst(-0.25),
                                    ir::peek(iconst(1)))));
  };
  const auto with_work = [&](std::vector<StmtP> stmts) {
    ir::FilterSpec f = base;
    f.work = block(std::move(stmts));
    return f;
  };
  ASSERT_EQ(ir::to_string(row0(fconst(0.5), iconst(0))), ir::to_string(body[0]));

  ir::FilterSpec with_state = base;
  with_state.state.push_back(ir::VarDecl{"g", false, 1, false, {Value(1.0)}});
  const struct {
    const char* what;
    ir::FilterSpec f;
    bool honest;  // rates match the work function, so it runs correctly
    bool kernel;  // keeps its rows
  } misses[] = {
      {"state variable", with_state, true, true},
      {"peek index from a variable",
       with_work({assign("k", iconst(0)), row0(fconst(0.5), var("k")), body[1],
                  body[2]}),
       true, false},
      {"non-literal coefficient",
       with_work({row0(un(UnOp::Neg, fconst(-0.5)), iconst(0)), body[1],
                  body[2]}),
       true, false},
      {"extra statement",
       with_work({assign("t", fconst(1.0)), body[0], body[1], body[2]}), true,
       false},
      {"pop_n != pop", with_work({body[0], body[1], pop_n(iconst(1))}), false,
       false},
      {"peek index >= peek",
       with_work({row0(fconst(0.5), iconst(3)), body[1], body[2]}), false,
       false},
  };
  ASSERT_NE(base.linear_rows(), nullptr);
  for (const auto& m : misses) {
    SCOPED_TRACE(m.what);
    EXPECT_EQ(m.f.linear_rows() != nullptr, m.kernel);
    const NodeP root = make_pipeline(
        "p", {tiny_src("s"), make_filter(m.f), tiny_snk("k")});
    sched::Executor ex(lower_ungated(root), fused_options());
    ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
    EXPECT_EQ(ex.fused_program()->super_count("linear-kernel"),
              m.kernel ? 1 : 0);
    if (m.honest) {
      EXPECT_EQ(expect_kernel_matches_tree(
                    make_pipeline("p", {pass_through("pre"), make_filter(m.f),
                                        pass_through("post")}),
                    9),
                m.kernel ? 1 : 0);
    }
  }
  // The unmodified form does run as a kernel in the same graph.
  sched::Executor ex(
      lower_ungated(make_pipeline(
          "p", {tiny_src("s"), make_filter(base), tiny_snk("k")})),
      fused_options());
  ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  EXPECT_EQ(ex.fused_program()->super_count("linear-kernel"), 1);
}


// ---- kernels on rings that wrap ---------------------------------------------
//
// The kernel reads any tape through its masked view, buf[(head + i) & mask],
// so a window that wraps around the end of a ring runs on the same path as
// one that does not.

// y0 = -1.5*w0 (a -0.0 first term on +0.0 input) and
// y1 = -1.0*w1 + 0.5*w3 + 0.25*w4, popping 3 of a 5-item window.
ir::FilterSpec wrap_kernel() {
  linear::LinearRep rep;
  rep.peek = 5;
  rep.pop = 3;
  rep.push = 2;
  rep.A = linear::Matrix(2, 5);
  rep.A.at(0, 0) = -1.5;
  rep.A.at(1, 1) = -1.0;
  rep.A.at(1, 3) = 0.5;
  rep.A.at(1, 4) = 0.25;
  rep.b = {0.0, 0.0};
  return linear::to_filter(rep, "lin");
}

const std::vector<double> kWrapItems = {0.0,  -0.0, 0.5, -0.75, 0.25, -0.0,
                                        0.0,  1.5,  -2.0, 0.0,  0.125};

// Cycle `tape` (a Channel or a non-deferred SpscRing of 16 slots) until its
// next item sits three slots before the end of its storage, then queue
// kWrapItems, so the live items wrap.
template <class Tape>
void queue_wrapped(Tape& tape) {
  for (int i = 0; i < 13; ++i) tape.push_item(9.0);
  tape.pop_many(13);
  for (const double x : kWrapItems) tape.push_item(x);
}

template <class Tape>
void expect_wrapped_kernel_matches_checked(Tape& fast, Tape& checked) {
  const ir::FilterSpec k = wrap_kernel();
  ASSERT_NE(k.linear_rows(), nullptr);
  const ir::LinearRows& R = *k.linear_rows();
  queue_wrapped(fast);
  queue_wrapped(checked);
  constexpr std::int64_t kFirings = 3;  // (3 - 1) * 3 + 5 == 11 items
  ir::RingView view;
  ASSERT_TRUE(fast.ring_view(kWrapItems.size(), &view));
  EXPECT_GT(view.head % (view.mask + 1) + kWrapItems.size(), view.mask + 1)
      << "the window must wrap";
  runtime::Channel fast_out, checked_out;
  runtime::OpCounts fc, cc;
  runtime::linear_firings(R, kFirings, fast, fast_out, &fc);
  runtime::linear_firings_checked(R, kFirings, checked, checked_out, &cc);
  ASSERT_EQ(fast_out.size(), static_cast<std::size_t>(kFirings * R.push));
  ASSERT_EQ(checked_out.size(), fast_out.size());
  const double first = fast_out.peek_item(0);
  EXPECT_TRUE(first == 0.0 && std::signbit(first));
  while (!fast_out.empty()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast_out.pop_item()),
              std::bit_cast<std::uint64_t>(checked_out.pop_item()));
  }
  EXPECT_EQ(fc.int_ops, cc.int_ops);
  EXPECT_EQ(fc.flops, cc.flops);
  EXPECT_EQ(fc.divs, cc.divs);
  EXPECT_EQ(fc.trans, cc.trans);
  EXPECT_EQ(fc.mem, cc.mem);
  EXPECT_EQ(fc.channel, cc.channel);
  EXPECT_EQ(fc.flops, kFirings * R.flops);
  EXPECT_EQ(fast.pop_item(), checked.pop_item());  // both popped 9 items
}

TEST(LinearKernel, WrappedChannelWindowMatchesTheCheckedPath) {
  runtime::Channel fast, checked;
  expect_wrapped_kernel_matches_checked(fast, checked);
}

TEST(LinearKernel, WrappedSpscWindowMatchesTheCheckedPath) {
  runtime::SpscRing fast(16), checked(16);
  ASSERT_EQ(fast.capacity(), 16u);
  expect_wrapped_kernel_matches_checked(fast, checked);
}

// Cycles through zeros of both signs, so the kernel's -0.0 first term shows.
NodeP signed_zero_src(const std::string& name) {
  return filter(name)
      .rates(0, 0, 1)
      .iscalar("n", 0)
      .array_init("v", {Value{0.0}, Value{-0.0}, Value{0.5}, Value{-0.75},
                        Value{0.0}, Value{1.25}, Value{-0.0}})
      .work(seq({push_(at("v", v("n"))), let("n", (v("n") + ci(1)) % ci(7))}))
      .node();
}

// The kernel between a source and a pass-through, on the per-actor VM
// (Channels, one firing per fire_into) and on four workers (SPSC rings, one
// fire_run per step) at batch 1, 3 and auto: outputs bit-equal to the tree
// interpreter, and per-actor firings and OpCounts equal field by field.
// Popping 3 of a 5-item window moves each ring's head by an odd stride, so
// windows wrap in the middle of runs.
TEST(LinearKernel, PerActorAndThreadedKernelsMatchTheTree) {
  const sched::CompiledProgram prog = lower_ungated(make_pipeline(
      "p", {signed_zero_src("s"), make_filter(wrap_kernel()),
            pass_through("post")}));
  const int lin = actor_id(prog.flat, "lin");
  ASSERT_GE(lin, 0);
  constexpr int kCalls = 3, kSteady = 40;
  sched::ExecOptions topts;
  topts.engine = sched::Engine::Tree;
  sched::Executor tree(prog, topts);
  std::vector<double> want;
  for (int c = 0; c < kCalls; ++c) {
    const std::vector<double> t = tree.run_steady(kSteady);
    want.insert(want.end(), t.begin(), t.end());
  }
  int negative_zeros = 0;
  for (const double y : want) {
    if (y == 0.0 && std::signbit(y)) ++negative_zeros;
  }
  EXPECT_GT(negative_zeros, 0);

  const auto expect_matches = [&](const std::vector<double>& got,
                                  const std::vector<std::int64_t>& firings,
                                  const std::vector<runtime::OpCounts>& ops) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "item " << i;
    }
    EXPECT_EQ(firings, tree.firings());
    for (std::size_t a = 0; a < ops.size(); ++a) {
      const runtime::OpCounts& to = tree.actor_ops()[a];
      EXPECT_EQ(ops[a].int_ops, to.int_ops) << "actor " << a;
      EXPECT_EQ(ops[a].flops, to.flops) << "actor " << a;
      EXPECT_EQ(ops[a].divs, to.divs) << "actor " << a;
      EXPECT_EQ(ops[a].trans, to.trans) << "actor " << a;
      EXPECT_EQ(ops[a].mem, to.mem) << "actor " << a;
      EXPECT_EQ(ops[a].channel, to.channel) << "actor " << a;
    }
  };

  {
    SCOPED_TRACE("vm");
    sched::ExecOptions vopts;
    vopts.engine = sched::Engine::Vm;
    sched::Executor vm(prog, vopts);
    EXPECT_TRUE(vm.runs_kernel(lin));
    std::vector<double> got;
    for (int c = 0; c < kCalls; ++c) {
      const std::vector<double> y = vm.run_steady(kSteady);
      got.insert(got.end(), y.begin(), y.end());
    }
    expect_matches(got, vm.firings(), vm.actor_ops());
  }
  for (const int batch : {1, 3, -1}) {
    SCOPED_TRACE("threads=4 batch=" + std::to_string(batch));
    sched::ExecOptions opts;
    opts.engine = sched::Engine::Vm;
    opts.threads = 4;
    opts.batch = batch;
    sched::ThreadedExecutor tex(prog, opts);
    std::vector<double> got;
    for (int c = 0; c < kCalls; ++c) {
      const std::vector<double> y = tex.run_steady(kSteady);
      got.insert(got.end(), y.begin(), y.end());
    }
    ASSERT_TRUE(tex.report().threaded) << tex.report().fallback_reason;
    EXPECT_EQ(tex.report().kernels, 1);
    const obs::MetricsSnapshot m = tex.metrics_snapshot();
    for (const obs::EdgeSnapshot& e : m.edges) {
      if (e.dst == lin) EXPECT_TRUE(e.ring) << "the kernel reads a ring";
    }
    expect_matches(got, tex.firings(), tex.actor_ops());
  }
}

// A non-linear filter whose loop is a mac-loop (so its one-actor trace runs
// the superinstruction, not a kernel) reading its input tape: a Channel on
// the per-actor engine, an SPSC ring on four workers at batch 1, 3 and
// auto.  Popping 3 of a 5-item window moves the ring's head by an odd
// stride, so windows wrap mid-run.  Outputs are bit-equal to the tree
// interpreter's, and firings, state, per-actor OpCounts and channel
// counters equal.
TEST(FusedExecution, RingReadMacLoopMatchesTheTree) {
  const NodeP mac =
      filter("mac")
          .rates(5, 3, 1)
          .array_init("w", {Value{0.5}, Value{-0.25}, Value{0.125},
                            Value{1.0}, Value{-0.0625}})
          .work(seq({let("acc", c(0.0)),
                     for_("i", 0, 5,
                          let("acc",
                              v("acc") + peek_(v("i")) * at("w", v("i")))),
                     discard(3), push_(v("acc") * v("acc") - v("acc"))}))
          .node();
  const sched::CompiledProgram prog = lower_ungated(
      make_pipeline("p", {signed_zero_src("s"), mac, pass_through("post")}));
  const int m = actor_id(prog.flat, "mac");
  {
    sched::Executor fused(prog, fused_options());
    ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
    EXPECT_EQ(fused.fused_program()->super_count("mac-loop"), 1);
    EXPECT_TRUE(fused.actor_uses_vm(m));
    EXPECT_FALSE(fused.runs_kernel(m));
  }
  constexpr int kCalls = 3, kSteady = 40;
  const struct {
    int threads, batch;
  } runs[] = {{1, 0}, {4, 1}, {4, 3}, {4, -1}};
  for (const auto& r : runs) {
    SCOPED_TRACE("threads=" + std::to_string(r.threads) +
                 " batch=" + std::to_string(r.batch));
    sched::ExecOptions topts;
    topts.engine = sched::Engine::Tree;
    sched::Executor tree(prog, topts);
    sched::ExecOptions opts;
    opts.engine = sched::Engine::Vm;
    opts.threads = r.threads;
    opts.batch = r.batch;
    sched::ThreadedExecutor tex(prog, opts);
    for (int c = 0; c < kCalls; ++c) {
      const std::vector<double> want = tree.run_steady(kSteady);
      const std::vector<double> got = tex.run_steady(kSteady);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "call " << c << " item " << i;
      }
    }
    expect_same_state(tree, tex);
    EXPECT_EQ(tex.report().threaded, r.threads > 1);
    if (r.threads > 1) {
      for (const obs::EdgeSnapshot& e : tex.metrics_snapshot().edges) {
        if (e.dst == m) EXPECT_TRUE(e.ring) << "the mac-loop reads a ring";
      }
    }
  }
}

// An actor runs a kernel exactly when its spec carries coefficient rows,
// and only the linear passes' `_lin` nodes carry them.  The counts per app
// and -O level are pinned (-O0: none).
TEST(LinearKernel, EveryAppRunsAKernelExactlyWhereItsSpecCarriesRows) {
  const std::map<std::string, int> o1 = {
      {"ChannelVocoder", 34}, {"TargetDetect", 4}, {"FFT", 3},
      {"DCT", 2},             {"FMRadio", 2},      {"MPEG2Decoder", 2},
      {"Vocoder", 2},         {"DtoA", 2},         {"FIR", 1},
      {"FilterBank", 1},      {"TDE", 1},          {"RateConvert", 1},
      {"Oversampler", 1}};
  std::map<std::string, int> o2 = o1;
  o2["ChannelVocoder"] = 17;
  o2.erase("FIR");
  o2.erase("FMRadio");
  for (const apps::AppInfo& app : apps::all_apps()) {
    for (const opt::OptLevel level :
         {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
      const std::map<std::string, int>& want =
          level == opt::OptLevel::O1 ? o1 : o2;
      opt::CompileOptions copts;
      copts.level = level;
      sched::ExecOptions vopts;
      vopts.engine = sched::Engine::Vm;
      vopts.trace = sched::TraceMode::Off;
      const sched::Executor vm(opt::compile(app.make(), copts), vopts);
      SCOPED_TRACE(app.name + " -O" +
                   std::to_string(static_cast<int>(level)));
      int kernels = 0;
      for (std::size_t a = 0; a < vm.graph().actors.size(); ++a) {
        const runtime::FlatActor& fa = vm.graph().actors[a];
        const bool rows = fa.kind == runtime::FlatActor::Kind::Filter &&
                          fa.node->filter.linear_rows() != nullptr;
        EXPECT_EQ(vm.runs_kernel(static_cast<int>(a)), rows) << fa.name;
        if (rows) {
          EXPECT_TRUE(fa.name.ends_with("_lin")) << fa.name;
          ++kernels;
        }
      }
      const auto it = want.find(app.name);
      EXPECT_EQ(kernels, level == opt::OptLevel::O0 || it == want.end()
                             ? 0
                             : it->second);
    }
  }
}

// The rows live on the spec: a graph copy (ir::clone) and a compile keep
// them, and they still run as the kernel; a spec copy whose work is
// replaced -- here by a structurally identical AST -- or whose rates no
// longer match drops them and runs its template, bit-equal to the tree.
TEST(LinearKernel, RowsSurviveCopiesAndCompilesButNotAReplacedWork) {
  const ir::FilterSpec k = wrap_kernel();
  const ir::LinearRows* rows = k.linear_rows();
  ASSERT_NE(rows, nullptr);
  const NodeP root =
      make_pipeline("p", {tiny_src("s"), make_filter(k), tiny_snk("k")});
  EXPECT_EQ(ir::clone(root)->children[1]->filter.linear_rows(), rows);
  for (const opt::OptLevel level :
       {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    SCOPED_TRACE("-O" + std::to_string(static_cast<int>(level)));
    opt::CompileOptions copts;
    copts.level = level;
    const sched::CompiledProgram prog = opt::compile(ir::clone(root), copts);
    const int lin = actor_id(prog.flat, "lin");
    ASSERT_GE(lin, 0);
    EXPECT_EQ(prog.flat.actors[static_cast<std::size_t>(lin)]
                  .node->filter.linear_rows(),
              rows);
    sched::ExecOptions vopts;
    vopts.engine = sched::Engine::Vm;
    EXPECT_TRUE(sched::Executor(prog, vopts).runs_kernel(lin));
  }

  ir::FilterSpec rewritten = k;
  rewritten.work = block(k.work->stmts);
  EXPECT_EQ(ir::to_string(rewritten.work), ir::to_string(k.work));
  ir::FilterSpec rerated = k;
  rerated.pop = 2;
  EXPECT_EQ(rewritten.linear_rows(), nullptr);
  EXPECT_EQ(rerated.linear_rows(), nullptr);
  EXPECT_EQ(expect_kernel_matches_tree(
                make_pipeline("p", {pass_through("pre"), make_filter(rewritten),
                                    pass_through("post")}),
                11),
            0);
}

}  // namespace
}  // namespace sit
