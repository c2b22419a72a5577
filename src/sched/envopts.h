#pragma once
// One-stop environment-variable resolution.
//
// Every SIT_* knob the runtime honors is read here and nowhere else:
//
//   SIT_ENGINE    "fused" | "tree"       work-function engine (default
//                                        fused: the whole-program
//                                        steady-state trace, per-actor
//                                        traces when refused, tree
//                                        interpreter for filters the typed
//                                        lowering refuses)
//   SIT_THREADS   integer >= 1           ThreadedExecutor workers (default 1)
//   SIT_BATCH     integer >= 1 | "auto"  steady iterations per pipeline step
//                                        (default auto: sized from per-edge
//                                        traffic + planned cost, clamped to
//                                        the static max_batch)
//   SIT_TRACE     "1" | "on" | "true"    event tracing + timing (default off)
//   SIT_STALL_MS  integer ms             threaded stall-abort (default 120000)
//   SIT_OPT       0 | 1 | 2              default optimization level (default 2)
//   SIT_PASSES    "a,b,c"                explicit pass spec (overrides SIT_OPT)
//   SIT_VERIFY    "final" | "each"       run the semantic verifier after the
//                                        pipeline / after every pass
//                                        (default off)
//
// One deliberate exception: SIT_COST (a cost-profile path for the
// calibrated cost model) is resolved lazily by obs::cost_model()
// (obs/costmodel.h) -- sched depends on obs, not the other way around, and
// the model must also serve consumers that never touch the runtime
// (linear selection, the coarsen pass).
//
// resolve_exec_options() snapshots all of them at once; the field-level
// env_*() helpers back the sched::resolve_* merge functions (which combine a
// caller-requested value with the environment default) so both views share
// one parser.  Executors and tools go through these -- never raw getenv.

#include <string>

#include "sched/program.h"

namespace sit {

// The environment's execution configuration, fully resolved to concrete
// values (engine is never Auto, threads >= 1).
struct ExecEnv {
  sched::Engine engine{sched::Engine::Fused};
  int threads{1};
  int batch{-1};  // -1 = auto, otherwise >= 1
  bool trace{false};
  int stall_ms{120000};
  int opt_level{2};    // clamped to [0, 2]
  std::string passes;  // empty = use the preset for opt_level
  int verify{0};       // 0 off, 1 final, 2 each
};

// Snapshot every SIT_* variable.  `trace` is additionally false when the
// observability instrumentation was compiled out (cmake -DSIT_OBS=OFF).
ExecEnv resolve_exec_options();

// Field-level reads (the parsers behind resolve_exec_options and the
// sched::resolve_* helpers).
sched::Engine env_engine();
int env_threads();    // >= 1
int env_batch();      // -1 = auto (default / "auto"), otherwise >= 1
bool env_trace();     // raw SIT_TRACE; does not consult obs::kCompiledIn
int env_stall_ms();   // 0 / unset -> 120000; negative = never abort
int env_opt_level();  // clamped to [0, 2]
std::string env_passes();
// 0 off, 1 final ("final"/"1"/"on"), 2 each ("each"/"2").  Plain int so the
// sched layer stays independent of opt::VerifyMode, which mirrors it.
int env_verify();

}  // namespace sit
