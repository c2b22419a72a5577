#pragma once
// Constant folding & propagation (dataflow pass 1).
//
// A forward worklist analysis over the work-function CFG computes, for every
// program point, which invocation-local variables hold compile-time-known
// ir::Values (the same `Exact` domain the linear extractor interprets; both
// evaluate through the runtime's own operator kernels, runtime/eval_ops.h
// fold and apply_un, so a folded literal is what the interpreter computes).
// The computed environments then drive an AST rewrite:
//
//   * expressions whose operands are exact fold to literals;
//   * short-circuit identities fold (`true || e` -> true, `false && e` ->
//     false; sound because the interpreter short-circuits, so `e` -- pops and
//     all -- never evaluates);
//   * If statements and ?: expressions with a constant condition collapse to
//     the taken arm (the dropped arm never executes, so its channel ops
//     vanish with it);
//   * For loops with a constant empty range are deleted.
//
// The fold is what lets the linear extractor see through branch-shaped but
// statically-decided control flow: extraction runs on the folded body by
// default and detects strictly more filters as linear (see linear/extract).
//
// Constant division/modulo by zero is reported as a diagnostic: the fold
// leaves the expression in place and the program will fault at runtime.

#include <vector>

#include "analysis/diagnostic.h"
#include "ir/filter.h"

namespace sit::analysis {

struct FoldResult {
  ir::StmtP body;                      // folded statement tree
  std::vector<Diagnostic> diagnostics; // constant div/mod-by-zero findings
};

// Fold a statement tree (a work/init/handler body).  `where` prefixes
// diagnostic locations, e.g. the filter name.
FoldResult fold_body(const ir::StmtP& body, const std::string& where);

// Convenience: fold a filter's work function.
ir::StmtP fold_work(const ir::FilterSpec& spec);

}  // namespace sit::analysis
