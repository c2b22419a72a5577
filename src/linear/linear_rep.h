#pragma once
// The linear representation of a filter (the paper's central object).
//
// A filter is *linear* when every output it pushes is an affine combination
// of the items in its peek window:
//
//     y_o = sum_i A[o][i] * W[i]  +  b[o]
//
// where W is the window of `peek` input items, W[0] = peek(0) (the oldest
// not-yet-popped item) and W[peek-1] the newest, and outputs y_0..y_{push-1}
// are pushed in order during one firing.  This fixes the paper's matrix up
// to layout; we store A as push x peek, row o = coefficients of output o.
//
// The window convention matters for composition: at firing t the window
// covers the filter's own input items [t*pop, t*pop + peek).

#include <string>
#include <vector>

#include "ir/filter.h"
#include "linear/matrix.h"
#include "runtime/opcounts.h"

namespace sit::linear {

struct LinearRep {
  int peek{0}, pop{0}, push{0};
  Matrix A;                // push x peek
  std::vector<double> b;   // push

  // Operation counts of one firing of to_filter(*this), read off the matrix:
  // equal, field by field, to what estimate_work measures by interpreting
  // that filter (whenever pop <= peek + 1, which validation guarantees; the
  // interpreter's synthetic input is peek + 1 items).  Per output: one
  // multiply and one peek per nonzero coefficient, one add per term beyond
  // the first (a nonzero constant is a term), one push; then the pops.
  [[nodiscard]] runtime::OpCounts op_counts() const;

  // Direct-implementation flops of one firing (op_counts().flops).
  [[nodiscard]] double cost_flops_per_firing() const {
    return static_cast<double>(op_counts().flops);
  }

  [[nodiscard]] std::string describe() const;
};

// Evaluate one firing on an explicit window (|window| == peek).
std::vector<double> apply(const LinearRep& rep, const std::vector<double>& window);

// Lower a linear representation back to an ordinary AST filter whose work
// function computes A*W + b directly, and attach the same sums as
// coefficient rows (FilterSpec::linear), built in one loop: per output a
// `push` of `[b +] c*peek(i) + ...` over the nonzero coefficients in column
// order, with b only when nonzero (`push(0.0)` when nothing is left), then
// `pop_n(pop)`; the rows' counts are op_counts().  The result is analyzable
// by every other pass (extraction recovers `rep` exactly), which is how
// collapsed nodes re-enter the stream graph; the compiled engines run the
// rows as a kernel (runtime/linear_kernel.h).
ir::FilterSpec to_filter(const LinearRep& rep, const std::string& name);

// Exact structural equality (used in tests).
bool operator==(const LinearRep& a, const LinearRep& b);

}  // namespace sit::linear
