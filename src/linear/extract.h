#pragma once
// Linear extraction analysis (paper section: "linear extraction analysis
// that automatically detects linear filters based on the C-like code in
// their work function").
//
// The work AST is abstractly interpreted over a lattice of
//   Exact    -- a compile-time-known constant (ints for control/indexing,
//               doubles for coefficients),
//   Affine   -- an affine form  sum_i c_i * W[i] + k  over the peek window,
//   Top      -- not expressible.
//
// State variables start from the concrete values the init function computes
// (we simply run init with the interpreter).  A work function that *writes*
// any state variable is rejected: its firings are not independent, so no
// single matrix describes it -- this is also exactly the paper's notion of a
// stateful filter, which the parallelization sections reuse.

#include <optional>
#include <string>

#include "ir/filter.h"
#include "linear/linear_rep.h"

namespace sit::linear {

struct ExtractResult {
  std::optional<LinearRep> rep;  // engaged iff the filter is linear
  std::string reason;            // why extraction failed (diagnostic)
};

struct ExtractOptions {
  // Run the analysis constant-folding pass over the work function first.
  // Folding collapses statically-decided control flow (constant ?: arms,
  // short-circuit `true || e` / `false && e`) that the abstract interpreter
  // would otherwise reject as data-dependent, so strictly more filters are
  // detected linear.  The abstract Exact domain and the folder both
  // evaluate through the runtime's operator kernels (runtime/eval_ops.h).
  bool fold_constants{true};
};

// A filter that carries coefficient rows (ir::FilterSpec::linear_rows: a
// linear::to_filter result whose work was not replaced since) is not
// analyzed: its rep is replayed from the rows with the extractor's own
// arithmetic, so it is exactly what analyzing the work would return, down
// to the sign of zero.
ExtractResult extract(const ir::FilterSpec& spec, const ExtractOptions& opts);
ExtractResult extract(const ir::FilterSpec& spec);  // default options

}  // namespace sit::linear
