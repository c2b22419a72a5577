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
#include <cstdint>
#include <cstdlib>
#include <functional>
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
#include "sched/exec.h"
#include "sched/schedule.h"

namespace sit {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;

sched::ExecOptions fused_options() {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
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

// Require bit-equal firings, per-actor OpCounts and FilterState, and channel
// counters between a reference run (per-actor VM or tree) and a fused run of
// the same program.
void expect_same_state(sched::Executor& vm, sched::Executor& fused) {
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
    EXPECT_EQ(vm.channel(ei).total_pushed(), fused.channel(ei).total_pushed())
        << "edge " << e;
    EXPECT_EQ(vm.channel(ei).total_popped(), fused.channel(ei).total_popped())
        << "edge " << e;
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
// expression form; every one of them must run as a linear-kernel.  A change
// to that form which the recognizer no longer matches fails here.
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
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  sched::Executor ex(opt::compile(apps::make_app(app), copts), opts);
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
  // the typed trace's state classes: activate() must refuse, and later
  // batches run per-actor, exactly as the VM runs them from the same state.
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
  const int hf = actor_id(fused.graph(), "h");
  const int hv = actor_id(vm.graph(), "h");
  ASSERT_GE(hf, 0);

  expect_same_output(fused.run_steady(3), vm.run_steady(3));
  fused.filter_state(hf).scalars.at("g") = ir::Value(std::int64_t{3});
  vm.filter_state(hv).scalars.at("g") = ir::Value(std::int64_t{3});
  expect_same_output(fused.run_steady(3), vm.run_steady(3));
  expect_same_state(vm, fused);
  EXPECT_TRUE(fused.filter_state(hf).scalars.at("g").is_int());
}

// ---- runtime faults ---------------------------------------------------------

// The what() of the fault the first steady state throws ("" if none).
std::string first_fault(const ir::NodeP& root, sched::Engine engine) {
  sched::ExecOptions opts;
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

// y = 2 * peek(0), popping 3: recognized as a linear kernel.
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
// what().
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
       gappy_src("s")},
  };
  for (const auto& fc : cases) {
    const NodeP root = make_pipeline(
        "p", {fc.source ? fc.source : tiny_src("s"), fc.filter, tiny_snk("k")});
    const std::string name = fc.filter->name;
    EXPECT_EQ(first_fault(root, sched::Engine::Tree), fc.message)
        << name << " on the tree interpreter";
    EXPECT_EQ(first_fault(root, sched::Engine::Vm), fc.message)
        << name << " on the typed VM";
    EXPECT_EQ(first_fault(root, sched::Engine::Fused), fc.message)
        << name << " on the typed fused trace";
  }
}

// ---- linear kernels ---------------------------------------------------------
//
// A linear node's expression form (linear::to_filter) runs as one
// linear-kernel instruction in the typed fused trace, while the tree
// interpreter evaluates the expression itself: outputs must agree to the bit
// and OpCounts field by field.

// Run `root` on the tree interpreter and the typed fused trace, five batches
// of three steady states on seeded input fed batch by batch (so a boundary
// input ring wraps), and require bit-equal outputs and equal state,
// OpCounts and channel counters.  Returns the fused trace's linear-kernel
// count (and the outputs in `out`).
std::int64_t expect_kernel_matches_tree(const NodeP& root, std::uint64_t seed,
                                        std::vector<double>* out = nullptr) {
  const sched::CompiledProgram prog = lower_ungated(root);
  sched::ExecOptions topts;
  topts.engine = sched::Engine::Tree;
  sched::Executor tree(prog, topts);
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
      fused.feed_input(in);
    }
    const std::vector<double> t = tree.run_steady(3);
    const std::vector<double> f = fused.run_steady(3);
    EXPECT_FALSE(t.empty());
    EXPECT_EQ(t.size(), f.size());
    for (std::size_t i = 0; i < t.size() && i < f.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(t[i]),
                std::bit_cast<std::uint64_t>(f[i]))
          << "batch " << batch << " item " << i << ": " << t[i] << " vs "
          << f[i];
    }
    all.insert(all.end(), t.begin(), t.end());
  }
  expect_same_state(tree, fused);
  if (out != nullptr) *out = std::move(all);
  return fused.fused_program() != nullptr
             ? fused.fused_program()->super_count("linear-kernel")
             : -1;
}

NodeP pass_through(const std::string& name) {
  return filter(name).rates(1, 1, 1).work(seq({push_(pop_())})).node();
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
    runtime::LinearRows rows;
    ASSERT_TRUE(runtime::linear_kernel_rows(k, &rows)) << "rep " << t;
    EXPECT_EQ(rows.flops, rep.op_counts().flops) << "rep " << t;
    EXPECT_EQ(rows.channel, rep.op_counts().channel) << "rep " << t;
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

// Near-misses of to_filter's shape keep their compiled template and still
// fuse.  Base: y0 = 0.5*w0 + -0.25*w1, y1 = 0.125 + 1.5*w1 + 0.75*w2, pop 2.
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
  } misses[] = {
      {"state variable", with_state, true},
      {"peek index from a variable",
       with_work({assign("k", iconst(0)), row0(fconst(0.5), var("k")), body[1],
                  body[2]}),
       true},
      {"non-literal coefficient",
       with_work({row0(un(UnOp::Neg, fconst(-0.5)), iconst(0)), body[1],
                  body[2]}),
       true},
      {"extra statement",
       with_work({assign("t", fconst(1.0)), body[0], body[1], body[2]}), true},
      {"pop_n != pop", with_work({body[0], body[1], pop_n(iconst(1))}), false},
      {"peek index >= peek",
       with_work({row0(fconst(0.5), iconst(3)), body[1], body[2]}), false},
  };
  runtime::LinearRows rows;
  ASSERT_TRUE(runtime::linear_kernel_rows(base, &rows));
  // The variable index alone (the AST matcher needs no binding for it).
  EXPECT_FALSE(runtime::linear_kernel_rows(
      with_work({row0(fconst(0.5), var("k")), body[1], body[2]}), &rows));
  for (const auto& m : misses) {
    SCOPED_TRACE(m.what);
    EXPECT_FALSE(runtime::linear_kernel_rows(m.f, &rows));
    const NodeP root = make_pipeline(
        "p", {tiny_src("s"), make_filter(m.f), tiny_snk("k")});
    sched::Executor ex(lower_ungated(root), fused_options());
    ASSERT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
    EXPECT_EQ(ex.fused_program()->super_count("linear-kernel"), 0);
    if (m.honest) {
      EXPECT_EQ(expect_kernel_matches_tree(
                    make_pipeline("p", {pass_through("pre"), make_filter(m.f),
                                        pass_through("post")}),
                    9),
                0);
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

}  // namespace
}  // namespace sit
