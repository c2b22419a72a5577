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

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/bounds_chan.h"
#include "analysis/fuse.h"
#include "apps/apps.h"
#include "ir/dsl.h"
#include "opt/compile.h"
#include "runtime/fused.h"
#include "sched/exec.h"
#include "sched/schedule.h"

namespace sit {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;

// Typed mode is pinned on: the fused trace only runs on the typed executor,
// so under SIT_TYPED=0 every fused program would silently run per-actor.
sched::ExecOptions fused_options() {
  sched::ExecOptions opts;
  opts.engine = sched::Engine::Fused;
  opts.typed = sched::TypedMode::On;
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

int actor_id(const runtime::FlatGraph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == name) return static_cast<int>(i);
  }
  return -1;
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
  EXPECT_EQ(fp->super_count("pop-un-push"), 1);   // rectify (abs)
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
  EXPECT_EQ(fp->super_count("pop-push"), 8);    // upsample pass-through item
  EXPECT_EQ(fp->eliminated_channels, 43);
}

TEST(FusedSuper, FmRadioSelectsGainAsPopBinPush) {
  auto ex = make_fused(apps::make_app("FMRadio"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("mac-loop"), 11);      // rf_lp + 10 eq bandpass
  EXPECT_EQ(fp->super_count("sum-loop"), 1);       // eqsum
  EXPECT_EQ(fp->super_count("copy-run"), 10);      // equalizer joiner legs
  EXPECT_EQ(fp->super_count("dup-run"), 1);
  EXPECT_EQ(fp->super_count("pop-bin-push"), 10);  // eqgain scalers
}

TEST(FusedSuper, BitonicSortSelectsRoutingOnly) {
  auto ex = make_fused(apps::make_app("BitonicSort"));
  const runtime::FusedProgram* fp = ex.fused_program();
  ASSERT_NE(fp, nullptr) << ex.fused_refusal();
  EXPECT_EQ(fp->super_count("copy-run"), 48);
  EXPECT_EQ(fp->super_count("pop-bin-push"), 24);  // min/max halves of each CE
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

// Require bit-equal firings, per-actor OpCounts and FilterState, and channel
// counters between a per-actor VM run and a fused run of the same program.
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

// Run one compiled program on the per-actor VM and on the typed fused trace
// and require bit-equal outputs and state.
void expect_fused_matches_vm(const sched::CompiledProgram& prog, int iters) {
  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(prog, vopt);
  sched::Executor fused(prog, fused_options());
  ASSERT_NE(fused.fused_program(), nullptr) << fused.fused_refusal();
  ASSERT_NE(fused.typed_fused_program(), nullptr)
      << fused.typed_fused_refusal();
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

TEST(FusedExecution, HandlerRetagFallsBackAndStaysBitEqual) {
  // The handler stores an int into the Double scalar `g`, so the typed
  // trace's state classes no longer hold: activate() must refuse and later
  // batches run per-actor, where `g / 2` is now integer division.
  const auto mk = [] {
    auto h = filter("h")
                 .rates(1, 1, 1)
                 .scalar("g", ir::Value(3.0))
                 .handler("set", {"amt"}, seq({let("g", v("amt"))}))
                 .work(seq({push_(pop_() * (v("g") / ci(2)))}))
                 .node();
    return make_pipeline("p", {tiny_src("s"), h});
  };
  auto fused = make_fused(mk());
  ASSERT_NE(fused.typed_fused_program(), nullptr)
      << fused.typed_fused_refusal();
  sched::ExecOptions vopt;
  vopt.engine = sched::Engine::Vm;
  sched::Executor vm(mk(), vopt);
  const int hf = actor_id(fused.graph(), "h");
  const int hv = actor_id(vm.graph(), "h");
  ASSERT_GE(hf, 0);

  expect_same_output(fused.run_steady(3), vm.run_steady(3));
  const std::vector<ir::Value> amt = {ir::Value(std::int64_t{3})};
  fused.run_handler(hf, "set", amt);
  vm.run_handler(hv, "set", amt);
  const auto fout = fused.run_steady(3);
  const auto vout = vm.run_steady(3);
  expect_same_output(fout, vout);
  EXPECT_EQ(fout.back(), 7.0);  // 7 * (3 / 2), integer division
  expect_same_state(vm, fused);
  EXPECT_TRUE(fused.filter_state(hf).scalars.at("g").is_int());
}

// ---- runtime faults ---------------------------------------------------------

// Lower without the analysis gate, which rejects every faulting program
// below statically.
sched::CompiledProgram lower_ungated(const ir::NodeP& root) {
  sched::CompiledProgram p;
  p.graph = root;
  p.flat = runtime::flatten(root);
  p.schedule = sched::make_schedule(p.flat);
  return p;
}

// The what() of the fault the first steady state throws ("" if none).
std::string first_fault(const ir::NodeP& root, sched::Engine engine,
                        sched::TypedMode typed) {
  sched::ExecOptions opts;
  opts.engine = engine;
  opts.typed = typed;
  sched::Executor ex(lower_ungated(root), opts);
  if (typed == sched::TypedMode::On) {
    for (const auto& a : ex.metrics_snapshot().actors) {
      EXPECT_EQ(a.typed_status, "typed") << a.name;
    }
    if (engine == sched::Engine::Fused) {
      EXPECT_NE(ex.typed_fused_program(), nullptr) << ex.typed_fused_refusal();
    }
  }
  try {
    ex.run_steady(1);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A fault's message is part of the cross-engine contract: the tree
// interpreter, the tagged VM, the typed VM and the typed fused trace must
// throw the same what().
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
  };
  for (const auto& fc : cases) {
    const NodeP root =
        make_pipeline("p", {tiny_src("s"), fc.filter, tiny_snk("k")});
    const std::string name = fc.filter->name;
    EXPECT_EQ(first_fault(root, sched::Engine::Tree, sched::TypedMode::Off),
              fc.message)
        << name << " on the tree interpreter";
    EXPECT_EQ(first_fault(root, sched::Engine::Vm, sched::TypedMode::Off),
              fc.message)
        << name << " on the tagged VM";
    EXPECT_EQ(first_fault(root, sched::Engine::Vm, sched::TypedMode::On),
              fc.message)
        << name << " on the typed VM";
    EXPECT_EQ(first_fault(root, sched::Engine::Fused, sched::TypedMode::On),
              fc.message)
        << name << " on the typed fused trace";
  }
}

}  // namespace
}  // namespace sit
