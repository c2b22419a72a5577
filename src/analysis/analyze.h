#pragma once
// Entry point for the whole static-analysis suite.
//
// analyze() runs, in order:
//   1. the structural validator (ir/validate: rates, arity, zero-weight
//      rule, handler purity, instance uniqueness);
//   2. per-filter dataflow passes: constant folding (div/mod-by-zero),
//      peek/array interval bounds, definite initialization & dead state;
//   3. graph-level consistency: balance-equation solvability and
//      feedback-loop init liveness (skipped when step 1 found errors --
//      a malformed graph rarely flattens meaningfully).
//
// Every finding is a Diagnostic; errors mean the program would misbehave or
// crash under the interpreter, warnings are advisory (dead state, maybe-
// uninitialized locals).

#include <vector>

#include "analysis/diagnostic.h"
#include "ir/graph.h"

namespace sit::analysis {

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool ok() const { return !has_errors(diagnostics); }
  [[nodiscard]] std::size_t errors() const { return count_errors(diagnostics); }
  [[nodiscard]] std::string report() const { return render(diagnostics); }
};

AnalysisResult analyze(const ir::NodeP& root);

}  // namespace sit::analysis
