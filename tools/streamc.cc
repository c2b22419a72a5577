// streamc: the compiler driver.  Compile a built-in app through the pass
// pipeline (src/opt), report what every pass did, and run the result.
//
//   streamc --app=NAME [-O0|-O1|-O2] [--passes=a,b,c] [--report]
//           [--verify-each] [--dump-after=PASS] [--engine=vm|tree|fused]
//           [--threads=N] [--steady=N] [--cost=FILE] [--metrics=FILE]
//           [--quiet]
//   streamc --list
//   streamc --list-passes
//
// -O levels select the preset pipelines (see opt/pass_manager.h); --passes
// overrides them with an explicit comma-separated spec (validate and
// analysis-gate are prepended if missing).  --report prints the per-pass
// table (wall time, actor/edge counts before -> after, modeled cost delta)
// plus every per-candidate optimization decision.  --verify-each runs the
// semantic verifier (analysis/verify.h) after every pass; a failure names
// the offending pass (equivalent to SIT_VERIFY=each).  --cost loads a
// CostProfile (streamprof --calibrate output; equivalent to SIT_COST=FILE)
// so partitioning and selection run on measured actor weights and --report
// gains the measured/divergence columns.  --dump-after prints
// the graph as it stands after the named pass.  The compiled artifact then
// runs through ThreadedExecutor (one thread = embedded sequential executor),
// so the same driver exercises every engine/thread combination.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "analysis/typeflow.h"
#include "obs/costmodel.h"
#include "opt/compile.h"
#include "sched/texec.h"

namespace {

// The fused-engine executor for a (mid-pipeline) graph, as the fuse-steady
// pass builds it: the reports show the trace run_steady would run.
sit::sched::Executor fused_executor(const sit::ir::NodeP& g) {
  sit::sched::CompiledProgram p;
  p.graph = g;
  p.flat = sit::runtime::flatten(g);
  p.schedule = sit::sched::make_schedule(p.flat);
  sit::sched::ExecOptions o;
  o.engine = sit::sched::Engine::Fused;
  o.trace = sit::sched::TraceMode::Off;
  return sit::sched::Executor(std::move(p), o);
}

// Render the fused steady-state trace for a graph, or explain why it does
// not fuse.  Used by --dump-after=fuse-steady.
std::string fused_trace_dump(const sit::ir::NodeP& g) {
  try {
    const sit::sched::Executor ex = fused_executor(g);
    const sit::runtime::FusedProgram* prog = ex.fused_program();
    if (!prog) return "refused: " + ex.fused_refusal() + "\n";
    return prog->disassemble();
  } catch (const std::exception& e) {
    return std::string("unavailable: ") + e.what() + "\n";
  }
}

// The --report fusion section: the eliminated-channel tally, the decode
// census, superinstruction statics, or the stable refusal reason.
std::string fused_report(const sit::sched::CompiledProgram& prog) {
  std::string out = "fuse-steady:\n";
  const sit::sched::Executor ex = fused_executor(prog.graph);
  const sit::runtime::FusedProgram* fp = ex.fused_program();
  if (!fp) return out + "  refused: " + ex.fused_refusal() + "\n";
  out += "  admissible: " + std::to_string(fp->eliminated_channels) +
         " channel(s) lowered to trace buffers, " +
         std::to_string(fp->code.size()) + " trace instruction(s), " +
         std::to_string(fp->runs.size()) + " firing run(s)\n";
  // The decode census: how many trace instructions run on a generic
  // handler (sit::runtime::Handler), and which.
  out += "  dispatch: " + std::to_string(fp->generic_count()) + " of " +
         std::to_string(fp->code.size()) +
         " instruction(s) on a generic handler";
  std::string generic;
  for (const auto& [h, n] : fp->dispatch) {
    if (!sit::runtime::handler_generic(h)) continue;
    generic += std::string(generic.empty() ? " (" : ", ") +
               sit::runtime::handler_name(h) + " " + std::to_string(n);
  }
  out += generic + (generic.empty() ? "\n" : ")\n");
  if (fp->super.empty()) {
    out += "  superinstructions: none selected\n";
  } else {
    for (const auto& [name, n] : fp->super) {
      out += "  super " + name + ": " + std::to_string(n) + " instance(s)\n";
    }
  }
  return out;
}

// The --report typed-dataflow section: per-actor inferred-type tables,
// specialization status (or the stable refusal reason), and per-edge content
// tags (analysis/typeflow.h).
std::string typeflow_report(const sit::sched::CompiledProgram& prog) {
  try {
    const sit::analysis::TypeflowResult tf = sit::analysis::typeflow(prog.flat);
    return tf.describe(prog.flat);
  } catch (const std::exception& e) {
    return std::string("typeflow: unavailable (") + e.what() + ")\n";
  }
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: streamc --app=NAME [-O0|-O1|-O2] [--passes=a,b,c] [--report]\n"
      "               [--verify-each] [--dump-after=PASS]\n"
      "               [--engine=vm|tree|fused]\n"
      "               [--threads=N] [--batch=N|auto] [--steady=N]\n"
      "               [--cost=FILE] [--metrics=FILE] [--quiet]\n"
      "       streamc --list\n"
      "       streamc --list-passes\n");
}

std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

const sit::apps::AppInfo* find_app(const std::string& name) {
  const std::string want = lower(name);
  for (const auto& a : sit::apps::all_apps()) {
    if (lower(a.name) == want) return &a;
  }
  return nullptr;
}

struct Args {
  std::string app;
  sit::opt::OptLevel level{sit::opt::OptLevel::Auto};
  std::string passes;
  std::string dump_after;
  std::string engine;  // "", "vm", "tree", "fused"
  int threads{0};      // 0 = SIT_THREADS
  int batch{0};        // 0 = SIT_BATCH, -1 = auto, >= 1 explicit
  int steady{16};
  std::string cost_path;
  std::string metrics_path;
  bool report{false};
  bool verify_each{false};
  bool list{false};
  bool list_passes{false};
  bool quiet{false};
};

// Accepts --key=value and --key value (plus the -ON short form).
bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string val;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      val = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto take = [&]() -> bool {
      if (!val.empty()) return true;
      if (i + 1 >= argc) return false;
      val = argv[++i];
      return true;
    };
    if (arg == "--list") {
      a->list = true;
    } else if (arg == "--list-passes") {
      a->list_passes = true;
    } else if (arg == "--report") {
      a->report = true;
    } else if (arg == "--verify-each") {
      a->verify_each = true;
    } else if (arg == "--quiet") {
      a->quiet = true;
    } else if (arg == "-O0") {
      a->level = sit::opt::OptLevel::O0;
    } else if (arg == "-O1") {
      a->level = sit::opt::OptLevel::O1;
    } else if (arg == "-O2") {
      a->level = sit::opt::OptLevel::O2;
    } else if (arg == "--app") {
      if (!take()) return false;
      a->app = val;
    } else if (arg == "--passes") {
      if (!take()) return false;
      a->passes = val;
    } else if (arg == "--dump-after") {
      if (!take()) return false;
      a->dump_after = val;
    } else if (arg == "--engine") {
      if (!take()) return false;
      a->engine = lower(val);
      if (a->engine != "vm" && a->engine != "tree" && a->engine != "fused") {
        return false;
      }
    } else if (arg == "--threads") {
      if (!take()) return false;
      a->threads = std::atoi(val.c_str());
    } else if (arg == "--batch") {
      if (!take()) return false;
      if (lower(val) == "auto") {
        a->batch = -1;
      } else {
        a->batch = std::atoi(val.c_str());
        if (a->batch < 1) return false;
      }
    } else if (arg == "--steady") {
      if (!take()) return false;
      a->steady = std::atoi(val.c_str());
      if (a->steady < 1) return false;
    } else if (arg == "--cost") {
      if (!take()) return false;
      a->cost_path = val;
    } else if (arg == "--metrics") {
      if (!take()) return false;
      a->metrics_path = val;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage(stderr);
    return 2;
  }
  if (args.list) {
    for (const auto& a : sit::apps::all_apps()) {
      std::printf("%-16s %s\n", a.name.c_str(), a.description.c_str());
    }
    return 0;
  }
  if (args.list_passes) {
    const sit::opt::PassManager& pm = sit::opt::PassManager::global();
    for (const std::string& n : pm.pass_names()) {
      std::printf("%-16s %s\n", n.c_str(), pm.find(n)->description());
    }
    return 0;
  }
  if (args.app.empty()) {
    usage(stderr);
    return 2;
  }
  const sit::apps::AppInfo* app = find_app(args.app);
  if (app == nullptr) {
    std::fprintf(stderr, "streamc: unknown app '%s' (try --list)\n",
                 args.app.c_str());
    return 2;
  }
  if (!args.dump_after.empty() &&
      sit::opt::PassManager::global().find(args.dump_after) == nullptr) {
    std::fprintf(stderr,
                 "streamc: unknown pass '%s' for --dump-after "
                 "(try --list-passes)\n",
                 args.dump_after.c_str());
    return 2;
  }

  if (!args.cost_path.empty()) {
    std::string err;
    if (!sit::obs::load_cost_model(args.cost_path, &err)) {
      std::fprintf(stderr, "streamc: --cost: %s\n", err.c_str());
      return 1;
    }
  }

  sit::opt::CompileOptions copts;
  copts.level = args.level;
  copts.passes = args.passes;
  if (args.verify_each) copts.pass.verify_each = sit::opt::VerifyMode::Each;
  copts.exec.threads = args.threads;
  copts.exec.batch = args.batch;
  if (args.engine == "vm") copts.exec.engine = sit::sched::Engine::Vm;
  if (args.engine == "tree") copts.exec.engine = sit::sched::Engine::Tree;
  if (args.engine == "fused") copts.exec.engine = sit::sched::Engine::Fused;
  if (!args.dump_after.empty()) {
    copts.on_pass = [&args](const sit::obs::PassSnapshot& snap,
                            const sit::ir::NodeP& g) {
      if (snap.name == args.dump_after) {
        std::printf("--- graph after %s ---\n%s", snap.name.c_str(),
                    sit::ir::describe(g).c_str());
        // The fuse-steady pass's artifact is the trace, not a graph rewrite:
        // dump the flat bytecode with superinstructions annotated.
        if (snap.name == "fuse-steady") {
          std::printf("--- fused steady-state trace ---\n%s",
                      fused_trace_dump(g).c_str());
        }
      }
    };
  }

  sit::opt::PassContext ctx;
  sit::sched::CompiledProgram prog;
  try {
    prog = sit::opt::compile(app->make(), copts, &ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "streamc: %s: compilation failed:\n%s\n",
                 app->name.c_str(), e.what());
    return 1;
  }

  if (args.report) {
    std::printf("%s\n%s%s%s", app->name.c_str(),
                sit::opt::pass_report(prog, &ctx.rewrites).c_str(),
                fused_report(prog).c_str(), typeflow_report(prog).c_str());
  }

  sit::sched::ThreadedExecutor tex(std::move(prog), copts.exec);
  if (tex.graph().input_edge >= 0) {
    tex.set_input_generator([](std::int64_t i) {
      return static_cast<double>((i % 64) - 32) / 32.0;
    });
  }
  tex.run_steady(args.steady);

  sit::obs::MetricsSnapshot m = tex.metrics_snapshot();
  m.app = app->name;
  if (!args.quiet) {
    std::printf("%s: %s\n", app->name.c_str(),
                tex.report().to_string().c_str());
  }
  if (!args.metrics_path.empty()) {
    std::ofstream f(args.metrics_path);
    if (!f) {
      std::fprintf(stderr, "streamc: cannot write '%s'\n",
                   args.metrics_path.c_str());
      return 1;
    }
    f << m.to_json();
  }
  return 0;
}
