#pragma once
// Filter specifications.
//
// A filter is the StreamIt unit of computation: single input channel, single
// output channel, static peek/pop/push rates, private state, and a `work`
// function (ast.h).  Two flavours exist:
//
//  * AST filters -- behaviour given by the work AST; analyzable by every
//    compiler pass (linear extraction, work estimation, fusion...).
//  * Native filters -- behaviour given by a C++ functor with declared rates
//    and a declared per-firing cost.  These are *produced by the compiler*
//    (frequency-translated filters run an FFT; fused filters run an inner
//    schedule) and by the I/O endpoints; they execute and map like any other
//    filter but are opaque to source-level analyses.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/ast.h"
#include "ir/value.h"

namespace sit::ir {

// State variable declaration.  Arrays are fixed size; `init` optionally gives
// initial contents (scalars: one element).  Most state is filled by the
// filter's init function instead.
struct VarDecl {
  std::string name;
  bool is_array{false};
  std::int64_t size{1};
  bool is_int{false};
  std::vector<Value> init;
};

// Message handler: teleport messages invoke these between work invocations.
struct Handler {
  std::vector<std::string> params;
  StmtP body;
};

// A linear node's work function as data (the paper's y = A W + b): per
// output row, an optional leading constant b and the terms c*peek(i) in the
// order the work function adds them, CSR.  linear::to_filter builds it
// together with the work AST it describes; the compiled engines run it as a
// coefficient kernel (runtime/linear_kernel.h).
struct LinearRows {
  int peek{0}, pop{0}, push{0};
  std::vector<std::int32_t> row_ptr;  // push + 1 offsets into col/val
  std::vector<std::int32_t> col;      // window offset of each term
  std::vector<double> val;            // coefficient of each term
  std::vector<std::uint8_t> has_b;    // per row: starts from b[row]
  std::vector<double> b;
  std::int32_t span{0};  // largest window offset + 1 (0: peeks nothing)
  // Exact OpCounts of one firing of the work function.
  std::int64_t flops{0}, channel{0};
  // The work AST these rows describe (FilterSpec::linear_rows).
  StmtP work;

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
  // Whether an actor with these tapes can run the kernel: it always pushes,
  // and reads its input only when it peeks or pops.  An actor without them
  // keeps the expression form, which reports the missing tape.
  [[nodiscard]] bool fits_tapes(bool has_in, bool has_out) const {
    return has_out && (has_in || (span == 0 && pop == 0));
  }
};

struct FilterSpec {
  std::string name;
  int peek{0}, pop{0}, push{0};
  std::vector<VarDecl> state;
  StmtP init;  // runs once at graph start; may not touch channels
  StmtP work;
  std::map<std::string, Handler> handlers;
  // Set by linear::to_filter; see linear_rows().
  std::shared_ptr<const LinearRows> linear;

  [[nodiscard]] bool is_source() const { return pop == 0 && peek == 0; }
  [[nodiscard]] bool is_sink() const { return push == 0; }
  [[nodiscard]] bool does_peek() const { return peek > pop; }
  // The coefficient rows of this filter's work function, or null.  Rows
  // hold only while `work` is still the AST they were built from and the
  // rates are theirs, so a rewrite that replaces the work drops them.
  [[nodiscard]] const LinearRows* linear_rows() const {
    return linear && linear->work == work && linear->peek == peek &&
                   linear->pop == pop && linear->push == push
               ? linear.get()
               : nullptr;
  }
};

// True if the work function assigns any declared state variable (scalar or
// array element).  Independent of linearity: a filter can be nonlinear yet
// stateless (e.g. a squarer).
bool writes_state(const FilterSpec& spec);

// ---- native filters ---------------------------------------------------------

// The storage under a tape's live items: item i (0 = the next to pop) is
// buf[(head + i) & mask].  A power-of-two ring reports its own mask; flat
// memory reports an all-ones mask.
struct RingView {
  const double* buf{nullptr};
  std::size_t head{0};
  std::size_t mask{0};
};

// Minimal channel views used by native work functions so that ir/ does not
// depend on the runtime library.  The runtime adapts its channels to these.
class InTape {
 public:
  virtual ~InTape() = default;
  virtual double peek_item(int offset) = 0;  // offset 0 = next item to pop
  virtual double pop_item() = 0;
  // Bulk discard of the next `n` items; concrete tapes override with an O(1)
  // index advance (decimation loops and splitter strides hit this hard).
  virtual void pop_many(int n) {
    for (int i = 0; i < n; ++i) pop_item();
  }
  // When at least `n` items are live, describe their storage in *v and
  // return true; the view holds until the next push or pop.  False when
  // fewer are live, or (the default) when the tape has no such storage.
  virtual bool ring_view(std::size_t /*n*/, RingView* /*v*/) { return false; }
};

class OutTape {
 public:
  virtual ~OutTape() = default;
  virtual void push_item(double v) = 0;
};

// Per-instance state for a native filter.  clone() supports fission: each
// replica starts from an identical copy of the initial state.
class NativeState {
 public:
  virtual ~NativeState() = default;
  virtual std::unique_ptr<NativeState> clone() const = 0;
};

struct NativeFilter {
  std::string name;
  int peek{0}, pop{0}, push{0};
  std::function<std::unique_ptr<NativeState>()> make_state;
  // One firing: consume exactly `pop` items (peeking at most `peek`), produce
  // exactly `push` items.
  std::function<void(NativeState*, InTape&, OutTape&)> work;
  // Static cost estimate (abstract machine operations per firing), split into
  // floating-point and total ops so MFLOPS accounting stays honest.
  double cost_ops{0};
  double cost_flops{0};
  bool stateful{false};

  [[nodiscard]] bool does_peek() const { return peek > pop; }
};

}  // namespace sit::ir
