#pragma once
// The compiled-program artifact.
//
// A CompiledProgram is what the opt/ pass pipeline produces and what every
// executor consumes: the final (post-pass) stream graph, its flattened actor
// form, the SDF schedule, and the engine/thread choice the pipeline resolved
// -- plus the per-pass stats that document how the graph got this shape.
// Executors built from a CompiledProgram do not re-validate, re-flatten, or
// re-schedule; the artifact is the single source of truth, which is also the
// seam future work (compiled-program caching, autotuning, multi-backend)
// plugs into.
//
// Invariant: `flat` holds raw `const ir::Node*` pointers into the tree owned
// by `graph`, so `graph` must outlive `flat` -- anything holding a
// CompiledProgram (or a copy; copies share the graph) satisfies this
// automatically.

#include <string>
#include <vector>

#include "ir/graph.h"
#include "obs/metrics.h"
#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::sched {

// Which work-function engine drives AST filters.  Fused, the compiled
// engine, lowers each filter's work function to typed bytecode once and
// runs one whole steady-state iteration as a single flat trace with
// superinstructions (runtime/fused.h) when the program is admissible
// (Executor::fused_refusal names why not).  Otherwise -- and under the
// threaded runtime, tracing or a message sink -- it fires actor by actor,
// each typed filter through its one-actor trace; a filter outside the
// bytecode subset or refused by the typed lowering runs on the tree
// interpreter.  Tree forces the tree interpreter everywhere.  Auto
// resolves from the SIT_ENGINE environment variable ("tree" or "fused"),
// defaulting to Fused -- which lets CI run the whole test suite under
// either engine without code changes.
enum class Engine { Auto, Tree, Fused };

struct CompiledProgram {
  ir::NodeP source;  // pre-pipeline graph (provenance; may be null)
  ir::NodeP graph;   // final graph; owns the nodes `flat` points into
  runtime::FlatGraph flat;
  Schedule schedule;

  // Resolved execution choice.  Engine::Auto / threads 0 mean "decide at
  // executor construction from the environment" (the pre-pipeline default).
  Engine engine{Engine::Auto};
  int threads{0};

  // The pass spec that was actually run ("validate,analysis-gate,...";
  // empty for a bare lower()) and its per-pass stats, stamped into every
  // obs::MetricsSnapshot taken from an executor of this program.
  std::string pipeline;
  std::vector<obs::PassSnapshot> passes;

  [[nodiscard]] bool valid() const { return graph != nullptr; }
};

// Validate, flatten, and schedule a graph without running any optimization
// passes: the minimal CompiledProgram (what the executors' graph-taking
// constructors have always done internally).  Throws on analysis errors.
CompiledProgram lower(ir::NodeP root);

}  // namespace sit::sched
