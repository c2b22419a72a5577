// Pass-manager unit tests: registry and spec parsing, preset pipelines,
// environment resolution (SIT_OPT / SIT_PASSES and the consolidated
// sit::resolve_exec_options), compile() artifacts, pass hooks, and the
// structured per-candidate rewrite records.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "ir/streamit_syntax.h"
#include "opt/compile.h"
#include "sched/envopts.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit::opt {
namespace {

// Scoped environment override (restores the previous value on destruction).
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVar() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

ir::NodeP observable(const ir::NodeP& app) {
  if (app->kind != ir::Node::Kind::Pipeline || app->children.size() < 2) {
    return app;
  }
  std::vector<ir::NodeP> kids(app->children.begin(), app->children.end() - 1);
  return ir::make_pipeline(app->name + "_obs", kids);
}

// The preset spelled out, so SIT_PASSES cannot replace it.
CompileOptions pinned_level(OptLevel level) {
  CompileOptions co;
  std::string spec;
  for (const std::string& p : preset(level)) spec += (spec.empty() ? "" : ",") + p;
  co.passes = spec;
  co.pass.verify_each = VerifyMode::Off;
  return co;
}

// ---- registry ---------------------------------------------------------------

TEST(PassRegistry, AllBuiltinsRegistered) {
  const PassManager& pm = PassManager::global();
  for (const char* name :
       {"validate", "analysis-gate", "verify", "const-fold", "linear-extract",
        "linear-combine", "frequency", "selective-fuse", "fission",
        "coarsen"}) {
    Pass* p = pm.find(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_STREQ(p->name(), name);
    EXPECT_NE(std::string(p->description()), "");
  }
  EXPECT_EQ(pm.find("nonsense"), nullptr);
  EXPECT_EQ(pm.pass_names().size(), 10u);
}

TEST(PassRegistry, LaterRegistrationShadows) {
  class Nop final : public Pass {
   public:
    const char* name() const override { return "validate"; }
    const char* description() const override { return "shadow"; }
    PassResult run(const ir::NodeP& root, PassContext&) override {
      return {root, false};
    }
  };
  PassManager pm;
  Pass* builtin = pm.find("validate");
  pm.register_pass(std::make_unique<Nop>());
  Pass* shadowed = pm.find("validate");
  EXPECT_NE(shadowed, builtin);
  EXPECT_STREQ(shadowed->description(), "shadow");
}

// ---- spec parsing -----------------------------------------------------------

TEST(PassSpec, ParsesAndTrims) {
  const auto names = parse_spec(" validate , const-fold ,, frequency ");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "validate");
  EXPECT_EQ(names[1], "const-fold");
  EXPECT_EQ(names[2], "frequency");
  EXPECT_TRUE(parse_spec("").empty());
}

TEST(PassSpec, RejectsUnknownNames) {
  EXPECT_THROW(parse_spec("validate,no-such-pass"), std::invalid_argument);
  try {
    parse_spec("no-such-pass");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-pass"), std::string::npos);
  }
}

// ---- presets ----------------------------------------------------------------

TEST(Presets, LevelsNest) {
  const auto o0 = preset(OptLevel::O0);
  const auto o1 = preset(OptLevel::O1);
  const auto o2 = preset(OptLevel::O2);
  ASSERT_EQ(o0, (std::vector<std::string>{"validate", "analysis-gate"}));
  // Each level extends the previous one.
  ASSERT_GT(o1.size(), o0.size());
  ASSERT_GT(o2.size(), o1.size());
  for (std::size_t i = 0; i < o0.size(); ++i) EXPECT_EQ(o1[i], o0[i]);
  for (std::size_t i = 0; i < o1.size(); ++i) EXPECT_EQ(o2[i], o1[i]);
  EXPECT_EQ(o2.back(), "frequency");
  // Mapping passes never appear in presets (engine interchangeability).
  for (const auto& n : o2) {
    EXPECT_NE(n, "coarsen");
    EXPECT_NE(n, "fission");
    EXPECT_NE(n, "selective-fuse");
  }
}

TEST(Presets, AutoResolvesFromEnv) {
  {
    EnvVar opt("SIT_OPT", "0");
    EXPECT_EQ(resolve_opt_level(OptLevel::Auto), OptLevel::O0);
    EXPECT_EQ(preset(OptLevel::Auto), preset(OptLevel::O0));
    // Explicit levels ignore the environment.
    EXPECT_EQ(resolve_opt_level(OptLevel::O2), OptLevel::O2);
  }
  {
    EnvVar opt("SIT_OPT", "1");
    EXPECT_EQ(resolve_opt_level(OptLevel::Auto), OptLevel::O1);
  }
  {
    EnvVar opt("SIT_OPT", nullptr);
    EXPECT_EQ(resolve_opt_level(OptLevel::Auto), OptLevel::O2);
  }
}

// ---- consolidated env resolution (satellite 1) ------------------------------

TEST(ExecEnv, Defaults) {
  EnvVar e("SIT_ENGINE", nullptr), t("SIT_THREADS", nullptr),
      tr("SIT_TRACE", nullptr), s("SIT_STALL_MS", nullptr),
      o("SIT_OPT", nullptr), p("SIT_PASSES", nullptr);
  const ExecEnv env = resolve_exec_options();
  EXPECT_EQ(env.engine, sched::Engine::Fused);
  EXPECT_EQ(env.threads, 1);
  EXPECT_FALSE(env.trace);
  EXPECT_EQ(env.stall_ms, 120000);
  EXPECT_EQ(env.opt_level, 2);
  EXPECT_TRUE(env.passes.empty());
}

// The retired per-actor engine's name selects the one compiled engine.
TEST(ExecEnv, RetiredVmNameResolvesToFused) {
  EnvVar e("SIT_ENGINE", "vm");
  EXPECT_EQ(resolve_exec_options().engine, sched::Engine::Fused);
  EXPECT_EQ(sched::resolve_engine(sched::Engine::Auto), sched::Engine::Fused);
}

// What a user gets with no SIT_* variable set: an -O2 compile runs on the
// whole-graph trace, the engine perfbench measures.
TEST(ExecEnv, DefaultEngineRunsTheWholeGraphTrace) {
  EnvVar e("SIT_ENGINE", nullptr), tr("SIT_TRACE", nullptr),
      p("SIT_PASSES", nullptr);
  CompileOptions copts;
  copts.level = OptLevel::O2;
  sched::Executor ex(compile(apps::make_app("FIR"), copts));
  EXPECT_EQ(ex.engine(), sched::Engine::Fused);
  EXPECT_NE(ex.fused_program(), nullptr) << ex.fused_refusal();
  EXPECT_EQ(ex.metrics_snapshot().fallback, "none");
}

TEST(ExecEnv, ReadsEveryKnob) {
  EnvVar e("SIT_ENGINE", "tree"), t("SIT_THREADS", "3"),
      s("SIT_STALL_MS", "5000"), o("SIT_OPT", "1"),
      p("SIT_PASSES", "validate,const-fold");
  const ExecEnv env = resolve_exec_options();
  EXPECT_EQ(env.engine, sched::Engine::Tree);
  EXPECT_EQ(env.threads, 3);
  EXPECT_EQ(env.stall_ms, 5000);
  EXPECT_EQ(env.opt_level, 1);
  EXPECT_EQ(env.passes, "validate,const-fold");
}

TEST(ExecEnv, ClampsAndSanitizes) {
  {
    EnvVar t("SIT_THREADS", "0"), o("SIT_OPT", "7");
    const ExecEnv env = resolve_exec_options();
    EXPECT_EQ(env.threads, 1);   // threads >= 1
    EXPECT_EQ(env.opt_level, 2); // clamped to [0, 2]
  }
  {
    EnvVar o("SIT_OPT", "-3");
    EXPECT_EQ(resolve_exec_options().opt_level, 0);
  }
}

// ---- compile() --------------------------------------------------------------

TEST(Compile, FirAtO2ReducesModeledCost) {
  CompileOptions copts;
  copts.level = OptLevel::O2;
  PassContext ctx;
  const sched::CompiledProgram prog =
      compile(apps::make_app("FIR"), copts, &ctx);
  ASSERT_TRUE(prog.valid());
  EXPECT_EQ(prog.pipeline,
            "validate,analysis-gate,const-fold,linear-combine,frequency");
  ASSERT_EQ(prog.passes.size(), 5u);
  for (const auto& p : prog.passes) {
    EXPECT_GE(p.wall_ns, 0);
    EXPECT_GT(p.actors_before, 0);
    EXPECT_GT(p.edges_before, 0);
  }
  // The linear passes must pay for themselves on the flagship linear app.
  EXPECT_LT(prog.passes.back().cost_after,
            prog.passes.front().cost_before * 0.5);
  // Stats snapshot == context stats, and the report renders all of it.
  EXPECT_EQ(ctx.stats.size(), prog.passes.size());
  const std::string report = pass_report(prog, &ctx.rewrites);
  EXPECT_NE(report.find("pipeline: "), std::string::npos);
  EXPECT_NE(report.find("frequency"), std::string::npos);
  EXPECT_NE(report.find("% reduction"), std::string::npos);
}

TEST(Compile, ExplicitSpecOverridesLevelAndEnv) {
  EnvVar p("SIT_PASSES", "validate,analysis-gate,frequency");
  {
    CompileOptions copts;  // no explicit spec: SIT_PASSES wins over level
    copts.level = OptLevel::O0;
    const auto prog = compile(apps::make_app("FIR"), copts);
    EXPECT_EQ(prog.pipeline, "validate,analysis-gate,frequency");
  }
  {
    CompileOptions copts;  // explicit spec wins over SIT_PASSES
    copts.passes = "validate,analysis-gate,linear-combine";
    const auto prog = compile(apps::make_app("FIR"), copts);
    EXPECT_EQ(prog.pipeline, "validate,analysis-gate,linear-combine");
  }
}

TEST(Compile, GatesArePrependedWhenMissing) {
  CompileOptions copts;
  copts.passes = "linear-combine";
  const auto prog = compile(apps::make_app("FIR"), copts);
  EXPECT_EQ(prog.pipeline, "validate,analysis-gate,linear-combine");

  copts.ensure_gate = false;
  const auto bare = compile(apps::make_app("FIR"), copts);
  EXPECT_EQ(bare.pipeline, "linear-combine");
}

TEST(Compile, OnPassHookFiresInOrder) {
  CompileOptions copts;
  copts.level = OptLevel::O1;
  std::vector<std::string> seen;
  copts.on_pass = [&seen](const obs::PassSnapshot& s, const ir::NodeP& g) {
    ASSERT_NE(g, nullptr);
    seen.push_back(s.name);
  };
  compile(apps::make_app("FIR"), copts);
  EXPECT_EQ(seen, preset(OptLevel::O1));
}

TEST(Compile, InvalidProgramIsRejectedByTheGate) {
  // A splitjoin whose joiner arity disagrees with the branch count fails
  // structural validation -> the validate pass throws.
  auto bad = ir::make_splitjoin(
      "bad", ir::roundrobin_split({1, 1}), ir::roundrobin_join({1}),
      {apps::make_app("FIR"), apps::make_app("FIR")});
  EXPECT_THROW(compile(bad), std::runtime_error);
}

TEST(Compile, RewriteRecordsAreStructured) {
  CompileOptions copts;
  copts.level = OptLevel::O2;
  PassContext ctx;
  compile(apps::make_app("FIR"), copts, &ctx);
  bool saw_selected = false, saw_refusal = false;
  for (const auto& r : ctx.rewrites) {
    EXPECT_FALSE(r.pass.empty());
    EXPECT_FALSE(r.site.empty());
    if (r.applied) {
      saw_selected = true;
      EXPECT_LT(r.cost_after, r.cost_before) << r.to_string();
    } else if (r.pass == "extract") {
      saw_refusal = true;
      EXPECT_NE(r.note.find("not linear"), std::string::npos);
    }
    EXPECT_FALSE(r.to_string().empty());
  }
  EXPECT_TRUE(saw_selected);
  EXPECT_TRUE(saw_refusal);  // the stateful source refuses extraction
}

TEST(Compile, EachDecisionIsRecordedOnceByThePassThatMadeIt) {
  // linear-combine and frequency both run the whole selection over DES,
  // whose Feistel rounds refuse extraction; each refusal must still appear
  // once, attributed to linear-combine, the pass that made it first.
  CompileOptions copts;
  copts.level = OptLevel::O2;
  PassContext ctx;
  const sched::CompiledProgram prog =
      compile(apps::make_app("DES"), copts, &ctx);
  int extract_refusals = 0;
  std::vector<std::string> lines;
  for (const auto& r : ctx.rewrites) {
    EXPECT_FALSE(r.by_pass.empty()) << r.to_string();
    if (r.pass == "extract" && !r.applied) {
      ++extract_refusals;
      EXPECT_EQ(r.by_pass, "linear-combine") << r.to_string();
      EXPECT_EQ(r.to_string().rfind("linear-combine: extract [", 0), 0u)
          << r.to_string();
    }
    lines.push_back(r.to_string());
  }
  EXPECT_GT(extract_refusals, 0);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end())
      << "duplicate decision line";

  // The rendered report carries each decision line once as well.
  const std::string report = pass_report(prog, &ctx.rewrites);
  for (const std::string& line : lines) {
    const std::string needle = "  " + line + "\n";
    const auto first = report.find(needle);
    ASSERT_NE(first, std::string::npos) << line;
    EXPECT_EQ(report.find(needle, first + 1), std::string::npos) << line;
  }
}

// The selection counts the rewrites it made, not nodes whose names happen to
// end in "_lin"/"_freq": a user filter so named that nothing rewrites leaves
// both linear passes unchanged and the input graph in place.
TEST(Compile, UserFilterNamedLikeARewriteIsNotARewrite) {
  using namespace ir::dsl;
  const ir::NodeP sq = filter("foo_lin")
                           .rates(1, 1, 1)
                           .work(seq({push_(peek_(0) * peek_(0)), discard(1)}))
                           .node();
  const ir::NodeP root = ir::make_pipeline("p", {sq});
  PassContext ctx;
  const sched::CompiledProgram prog =
      compile(root, pinned_level(OptLevel::O2), &ctx);
  int linear_passes = 0;
  for (const obs::PassSnapshot& p : prog.passes) {
    if (p.name == "linear-combine" || p.name == "frequency") {
      ++linear_passes;
      EXPECT_FALSE(p.changed) << p.name;
    }
  }
  EXPECT_EQ(linear_passes, 2);
  EXPECT_EQ(prog.graph, root);
  PassContext direct;
  const PassResult res =
      PassManager::global().find("linear-combine")->run(root, direct);
  EXPECT_FALSE(res.changed);
  EXPECT_EQ(res.graph, root);
}

// The interval DP costs each distinct realization once, and the frequency
// pass reuses linear-combine's costs.  Serpent is a 35-stage pipeline with
// no collapsible run: costing every split point of every interval, in both
// passes, took ~14,400 evaluations; one per interval in one pass is ~650.
TEST(Compile, SerpentSelectionCostEvaluationsAreBounded) {
  const sched::CompiledProgram prog =
      compile(apps::make_app("Serpent"), pinned_level(OptLevel::O2));
  int evals = 0;
  for (const obs::PassSnapshot& p : prog.passes) evals += p.cost_evals;
  EXPECT_GT(evals, 0);
  EXPECT_LE(evals, 1500);
  EXPECT_NE(pass_report(prog).find("evals"), std::string::npos);
}

// ---- artifact consumption ---------------------------------------------------

std::vector<double> run_executor(sched::Executor& ex, int items) {
  std::vector<double> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < items && ++guard < 4000) {
    const auto got = ex.run_steady(1);
    out.insert(out.end(), got.begin(), got.end());
  }
  out.resize(static_cast<std::size_t>(items));
  return out;
}

TEST(Artifact, ExecutorFromProgramMatchesExecutorFromGraph) {
  const auto app = observable(apps::make_app("RateConvert"));
  CompileOptions copts;
  copts.level = OptLevel::O0;  // gates only: graph passes through untouched
  sched::Executor from_prog(compile(app, copts));
  sched::Executor from_graph(ir::clone(app));
  const auto a = run_executor(from_prog, 48);
  const auto b = run_executor(from_graph, 48);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "item " << i;  // bit-equal
  }
}

TEST(Artifact, ProgramEngineAppliesWhenOptsAreAuto) {
  CompileOptions copts;
  copts.level = OptLevel::O0;
  copts.exec.engine = sched::Engine::Tree;
  sched::Executor ex(compile(apps::make_app("FIR"), copts));
  EXPECT_EQ(ex.engine(), sched::Engine::Tree);

  // An explicit executor option still overrides the artifact default.
  sched::ExecOptions pin;
  pin.engine = sched::Engine::Fused;
  sched::Executor pinned(compile(apps::make_app("FIR"), copts), pin);
  EXPECT_EQ(pinned.engine(), sched::Engine::Fused);
}

TEST(Artifact, MetricsCarryPipelineAndPassStats) {
  CompileOptions copts;
  copts.level = OptLevel::O2;
  sched::Executor ex(compile(apps::make_app("FIR"), copts));
  ex.run_steady(1);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  EXPECT_EQ(m.pipeline,
            "validate,analysis-gate,const-fold,linear-combine,frequency");
  ASSERT_EQ(m.passes.size(), 5u);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"passes\""), std::string::npos);
  EXPECT_NE(json.find("\"linear-combine\""), std::string::npos);
}

TEST(Artifact, ThreadedExecutorConsumesProgram) {
  CompileOptions copts;
  copts.passes = "validate,analysis-gate,coarsen";
  copts.exec.threads = 4;
  sched::ExecOptions opts;
  opts.threads = 4;
  sched::ThreadedExecutor tex(compile(apps::make_app("FMRadio"), copts), opts);
  EXPECT_NO_THROW(tex.run_steady(2));
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  EXPECT_EQ(m.pipeline, "validate,analysis-gate,coarsen");
  EXPECT_EQ(m.passes.size(), 3u);
}

// ---- decision identity -------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// What the selection decided for `app` at `level` (every rewrite record
// with its costs to the last bit, and the compiled graph), then what the
// benchmark body compiled the same way builds on the sequential typed fused
// engine: the fields of perfbench's `counts` line and a hash of the first
// outputs on seeded input.
std::string decisions_of(const apps::AppInfo& app, OptLevel level) {
  std::ostringstream os;
  os << "== " << app.name << " -O" << (level == OptLevel::O1 ? 1 : 2) << "\n";
  PassContext ctx;
  const sched::CompiledProgram prog =
      compile(app.make(), pinned_level(level), &ctx);
  for (const linear::RewriteRecord& r : ctx.rewrites) {
    os << "rewrite " << r.by_pass << " | " << r.pass << " | " << r.site << " | "
       << (r.applied ? "applied" : "refused") << " | " << r.note << " | "
       << g17(r.cost_before) << " | " << g17(r.cost_after) << "\n";
  }
  os << ir::describe(prog.graph);
  const std::string text = ir::to_streamit(prog.graph);
  os << "streamit " << hex(fnv1a(0xcbf29ce484222325ULL, text.data(), text.size()))
     << "\n";

  // perfbench's body: the root pipeline minus its source and sink.
  const ir::NodeP root = app.make();
  const ir::NodeP body = ir::make_pipeline(
      root->name, {root->children.begin() + 1, root->children.end() - 1});
  sched::ExecOptions eo;
  eo.count_ops = true;
  eo.engine = sched::Engine::Fused;
  eo.typed = sched::TypedMode::On;
  eo.threads = 1;
  eo.trace = sched::TraceMode::Off;
  CompileOptions co = pinned_level(level);
  co.exec = eo;
  const sched::CompiledProgram bprog = compile(body, co);
  const int actors_after = bprog.passes.back().actors_after;
  sched::Executor ex(bprog, eo);
  // perfbench's counts line, whose typed_fused field repeats fused: the
  // trace is built typed or not at all.
  const std::string fused =
      ex.fused_program() ? "admitted" : "refused:" + ex.fused_refusal();
  os << "counts fused=" << fused << " typed_fused=" << fused
     << " trace_len="
     << (ex.fused_program() ? ex.fused_program()->code.size() : 0)
     << " typed_actors=" << ex.metrics_snapshot().typed_actors
     << " actors_after=" << actors_after << "\n";
  const sched::Schedule& s = ex.schedule();
  const std::int64_t iters = (256 + s.input_per_steady - 1) / s.input_per_steady;
  std::mt19937_64 gen(7);
  std::vector<double> in(
      static_cast<std::size_t>(s.input_for_init + iters * s.input_per_steady));
  for (double& x : in) x = static_cast<double>(gen() >> 11) * 0x1p-53 - 0.5;
  ex.feed_input(in);
  const std::vector<double> out = ex.run_steady(static_cast<int>(iters));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : out) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    h = fnv1a(h, &bits, sizeof bits);
  }
  os << "outputs " << out.size() << " " << hex(h) << "\n";
  return os.str();
}

// tests/data/opt_decisions.txt was generated before the selection learned to
// price candidates in closed form and to memoize structural costs; both are
// pure speedups, so every decision, cost, graph and output must still match
// it.  Only its trace_len values have moved since: linear nodes became one
// linear-kernel instruction each, and a trace that runs several steady
// states per pass loops its one-firing runs too, with each back-edge merged
// into the next run's SetActor.  On a mismatch the actual dump is written
// to opt_decisions.actual.txt in the working directory.
TEST(SelectionIdentity, DecisionsGraphsAndCountsMatchExpectation) {
  std::string actual;
  for (const apps::AppInfo& app : apps::all_apps()) {
    for (OptLevel level : {OptLevel::O1, OptLevel::O2}) {
      actual += decisions_of(app, level);
    }
  }
  std::ifstream f(SIT_TEST_DATA_DIR "/opt_decisions.txt");
  std::stringstream expected;
  expected << f.rdbuf();
  if (actual == expected.str()) return;
  std::ofstream("opt_decisions.actual.txt") << actual;
  std::istringstream a(actual), e(expected.str());
  std::string la, le;
  int line = 0;
  while (true) {
    ++line;
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_e = static_cast<bool>(std::getline(e, le));
    if (!more_a && !more_e) break;
    if (!more_a || !more_e || la != le) {
      ADD_FAILURE() << "line " << line << "\n  expected: "
                    << (more_e ? le : "<end>") << "\n  actual:   "
                    << (more_a ? la : "<end>")
                    << "\n(full dump in opt_decisions.actual.txt)";
      return;
    }
  }
}

}  // namespace
}  // namespace sit::opt
