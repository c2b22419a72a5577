#pragma once
// compile(): graph in, sched::CompiledProgram out.
//
// This is the pipeline's front door.  It resolves which passes run (an
// explicit spec beats SIT_PASSES beats the -O preset), runs them through the
// global PassManager, then flattens and schedules the result once.  The
// returned artifact carries the final graph, flat graph, steady-state
// schedule, the engine/thread request, and the per-pass stats -- executors
// (sched::Executor, sched::ThreadedExecutor, msg::MessagingExecutor) consume
// it as-is instead of re-deriving any of it.

#include <string>
#include <vector>

#include "opt/pass_manager.h"
#include "sched/exec.h"
#include "sched/program.h"

namespace sit::opt {

struct CompileOptions {
  // Preset selection; Auto consults SIT_OPT (default -O2).
  OptLevel level{OptLevel::Auto};
  // Explicit comma-separated pass spec; when nonempty it overrides `level`
  // (and SIT_PASSES overrides `level` when this is empty).
  std::string passes;
  // Engine/thread request recorded into the artifact.  The executors still
  // merge their own ExecOptions and the environment on top, so the artifact
  // is a default, not a pin.  exec.threads also feeds the mapping passes
  // (fission, coarsen) when pass.threads is unset.
  sched::ExecOptions exec;
  // Knobs forwarded to the passes.
  PassOptions pass;
  // Forwarded to PassContext::on_pass: fires after every pass with its
  // snapshot and output graph (streamc --dump-after).
  std::function<void(const obs::PassSnapshot&, const ir::NodeP&)> on_pass;
  // Prepend validate + analysis-gate when the resolved spec lacks them.  Off
  // only for tests that exercise gate-free pipelines.
  bool ensure_gate{true};
};

// Run the pipeline and lower the result.  Throws on invalid programs (the
// gate passes), unknown pass names, and unschedulable graphs.  When
// `ctx_out` is given it receives the full pass context (diagnostics,
// per-candidate rewrite records, stats) for reporting.
sched::CompiledProgram compile(const ir::NodeP& root,
                               const CompileOptions& opts = {},
                               PassContext* ctx_out = nullptr);

// The pass spec compile() would run for `opts` (after env/preset/gate
// resolution), joined with commas -- what the artifact's `pipeline` field
// will say.
std::string resolve_pipeline_spec(const CompileOptions& opts);

// Human-readable per-pass report: one table row per pass (wall time, actors
// and edges before -> after, modeled cost delta, changed flag).  When
// `rewrites` is given, the per-candidate optimization decisions are appended
// (streamc --report).
std::string pass_report(const sched::CompiledProgram& prog,
                        const std::vector<linear::RewriteRecord>* rewrites =
                            nullptr);

}  // namespace sit::opt
