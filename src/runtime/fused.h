#pragma once
// Whole-program fused steady-state trace.
//
// The per-actor VM (typed.h) still pays, on every steady-state iteration, one
// work-function dispatch per firing and a ring-buffer round trip per item.
// This engine removes both: build_fused() compiles the schedule's
// steady-state firing sequence -- runs of consecutive firings of one actor
// (sched::Schedule::steady_runs) -- into ONE flat bytecode trace, and lowers
// every fully-internal channel to a flat array ("trace buffer") indexed by
// cursors whose motion is statically known.  Ring channels survive only at
// the program boundary (external input/output edges), where the
// feeder/drainer needs them.
//
// Layout of one iteration's trace, per firing run (actor a, n firings):
//
//   SetActor a            switch OpCounts attribution + peek window, and
//                         load the actor's register template for the first
//                         firing (exactly the per-invocation copy the VM does)
//   <work template>       the filter's compiled bytecode (vm.h's FInstr, the
//                         one instruction format), registers and state slots
//                         rebased into the flat program-wide files, channel
//                         ops bound to the actor's edges: TPeek/TPop/TPush on
//                         a trace buffer, RPeek/RPop/RPush on a boundary ring
//   FireLoop a, n         (n > 1 only) reload the template and jump back to
//                         the template for the next firing, n times in all
//
// So the trace holds each template once per run: its length is set by the
// number of runs (one per actor on a single-appearance schedule), not by the
// repetition counts.  The back-edge doubles as the per-firing register
// reset, so a firing dispatches its template plus that one instruction.
//
// A linear node's run is a single instruction instead (no SetActor, no
// template, no registers):
//
//   LinearKernel k        all n firings of the actor as one CSR mat-vec per
//                         firing over the peek window (linear-kernel below)
//
// Splitters/joiners are synthesized as explicit pop/push templates and
// native filters as NativeFire calls through tape adapters, so any graph the
// per-actor executor runs (modulo the admissibility rules in
// analysis/fuse.h) can fuse.
//
// A peephole pass over each template then collapses the hot patterns into
// superinstructions -- single opcodes that execute a whole loop or firing
// with identical semantics and identical OpCounts:
//
//   mac-loop       for(i) acc += peek(i) * coef[i]   (FIR taps; the dominant
//                  pattern of every linear app)
//   sum-loop       for(i) acc += peek(i)             (adders/combiners)
//   pop-push       push(pop())                       (pass-through)
//   pop-bin-push   push(pop() <op> x)                (gain, scalers)
//   pop-un-push    push(<op>(pop()))                 (rectifiers)
//   copy-run       n x { pop(src); push(dst) }       (round-robin routing)
//   dup-run        n x { pop(src); push(all dsts) }  (duplicate splitters)
//   linear-kernel  n x { push(A W + b); pop_n(pop) } (a whole linear node's
//                  run; see below)
//
// linear-kernel replaces an actor rather than a window of its template.  The
// builder recognizes the exact work function linear::to_filter emits for a
// linear node: no state, init or handlers; one `push` per output of a
// left-deep sum `[b +] c*peek(i) + c*peek(i) + ...` with literal c and
// literal 0 <= i < peek; then `pop_n(pop)` (omitted when pop is 0).  The
// coefficients are copied out of the AST in CSR form (linear_kernel_rows),
// and TypedFusedExec runs every firing of the run as a raw double* loop over
// the peek window (a trace buffer, or a boundary ring -- as one span when
// its live items do not wrap), two rows side by side:
//   * evaluation order: a row starts from b only when the AST has a leading
//     constant, otherwise from its first term (never from +0.0, which would
//     turn a -0.0 first term into +0.0); each further term is
//     `acc = acc + c*w` in the AST's order, so results are bit-equal to the
//     expression (the build is strict ISO C++, so nothing is contracted into
//     an FMA);
//   * counting: each firing adds the expression's exact OpCounts -- per row
//     one flop per multiply and per add and one channel op per peek and the
//     push, then `pop` channel ops;
//   * faults: firings the input (and a trace buffer's room) provably covers
//     run unchecked; the first firing that could fault runs with the
//     template's checks in its order, so a short input throws the same
//     message at the same offset.
// The expression form stays the semantics: the tree interpreter and the
// per-actor VMs still run it, and every engine-differential test compares
// the kernel against it.  `runtime` cannot see linear::LinearRep (linear
// depends on runtime), which is why the AST is the carrier.
//
// A splitter/joiner run whose firing collapses to one copy-run/dup-run stays
// one instruction moving the whole run's items, with no firing loop.
// Superinstruction counts (FusedProgram::super) are per iteration: an
// instance inside a firing loop counts once per firing.
//
// The trace is a program format, not an executor: build_typed_fused()
// (runtime/typed.h) lowers it onto the dual value plane and TypedFusedExec
// runs it.  A trace that typed lowering refuses runs per-actor instead.
// The bit-equality contract lives on TypedFusedExec; tests/test_fused.cc
// pins superinstruction selection and every refusal reason.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.h"
#include "runtime/flatgraph.h"
#include "runtime/vm.h"

namespace sit::runtime {

// for (i = r[ri]; i < r[rhi]; i += r[rstep])
//   r[acc] += peek(i) [ * coef[i] ]
// with per-iteration counts identical to the 9-instruction (7 without the
// coefficient array) VM loop body it replaces.
struct MacLoopArgs {
  std::uint16_t ri{0}, rhi{0}, rstep{0};  // loop bookkeeping registers
  std::uint16_t slot{0};                  // the loop-variable local
  std::uint16_t acc{0};                   // accumulator register
  std::uint16_t p{0}, q{0}, m{0};         // constituent temporaries
  std::uint16_t arr{0};                   // flat array slot (has_array)
  bool has_array{false};
  std::int32_t edge{-1};
  bool real{false};  // peek the boundary ring instead of a trace buffer
};

struct PcpArgs {
  enum class Kind : std::uint8_t { Plain, Bin, Un };
  Kind kind{Kind::Plain};
  std::uint8_t sub{0};             // BinOp/UnOp ordinal (Bin/Un kinds)
  CountTag tag{CountTag::None};    // the compute op's CountTag
  std::int32_t in_edge{-1}, out_edge{-1};
  bool in_real{false}, out_real{false};
  std::uint16_t rpop{0};           // register the popped item lands in
  std::uint16_t a{0}, b{0};        // Bin operand registers
  std::uint16_t rres{0};           // register whose value is pushed
};

struct CopyRunArgs {
  std::int32_t src{-1};
  bool src_real{false};
  std::vector<std::int32_t> dst;   // >= 1 destinations (dup-run when > 1)
  std::vector<std::uint8_t> dst_real;
  std::int64_t n{0};               // items moved
  std::uint16_t reg{0};            // scratch register (holds the last item)
};

struct NativeFireArgs {
  int actor{-1};
  std::int32_t in_edge{-1}, out_edge{-1};
  bool in_real{false}, out_real{false};
  // Static per-firing counts, exactly as the per-actor executor adds them.
  std::int64_t flops{0}, int_ops{0}, channel{0};
};

// A linear node's work function as data: per output row, an optional
// leading constant b and the terms c*peek(i) in the AST's order, CSR.
struct LinearRows {
  int peek{0}, pop{0}, push{0};
  std::vector<std::int32_t> row_ptr;  // push + 1 offsets into col/val
  std::vector<std::int32_t> col;      // window offset of each term
  std::vector<double> val;            // coefficient of each term
  std::vector<std::uint8_t> has_b;    // per row: starts from b[row]
  std::vector<double> b;
  std::int32_t span{0};  // largest window offset + 1 (0: peeks nothing)
  // Exact OpCounts of one firing of the expression form.
  std::int64_t flops{0}, channel{0};

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

// The coefficient rows of `f` when its work function has exactly the shape
// linear::to_filter emits (see the file comment); false for anything else,
// which keeps its compiled template.
bool linear_kernel_rows(const ir::FilterSpec& f, LinearRows* out);

struct LinearKernelArgs {
  int actor{-1};  // OpCounts attribution
  std::int32_t in_edge{-1}, out_edge{-1};  // -1: the filter has no such tape
  bool in_real{false}, out_real{false};
  std::int64_t firings{0};  // the run's firings, all in one dispatch
  LinearRows rows;
};

struct FusedActorMeta {
  std::string name;
  std::uint32_t reg_base{0};
  std::uint32_t scalar_base{0}, array_base{0};
  std::uint32_t num_scalars{0}, num_arrays{0};
  std::vector<ir::Value> reg_init;  // empty for natives and linear kernels
  std::int64_t peek_window{0};
  bool native{false};
};

struct FusedEdgeMeta {
  bool internal{false};
  std::int64_t carry{0};    // items living across iteration boundaries (L0)
  std::int64_t traffic{0};  // items crossing per iteration
};

struct FusedProgram {
  const FlatGraph* graph{nullptr};  // non-owning; must outlive the program
  std::vector<FiringRun> runs;      // the steady-state firing sequence
  std::vector<FInstr> code;
  std::vector<MacLoopArgs> macs;
  std::vector<PcpArgs> pcps;
  std::vector<CopyRunArgs> copies;
  std::vector<NativeFireArgs> nats;
  std::vector<LinearKernelArgs> kernels;
  std::vector<FusedActorMeta> actors;
  std::vector<FusedEdgeMeta> edges;
  // Flat state-slot name tables (error messages + binding), indexed by
  // actors[i].scalar_base/array_base + slot.
  std::vector<std::string> scalar_names, array_names;
  std::size_t num_regs{0};
  int eliminated_channels{0};  // internal edges lowered to trace buffers
  // Static superinstruction selection: trace-instruction instances by stable
  // name (mac-loop, sum-loop, pop-push, pop-bin-push, pop-un-push, copy-run,
  // dup-run, linear-kernel).  Absent name == 0.
  std::map<std::string, std::int64_t> super;

  [[nodiscard]] std::int64_t super_count(const std::string& name) const {
    const auto it = super.find(name);
    return it == super.end() ? 0 : it->second;
  }
  // Human-readable trace listing with superinstructions annotated
  // (streamc --dump-after=fuse-steady).
  [[nodiscard]] std::string disassemble() const;
};

using FusedProgramP = std::shared_ptr<const FusedProgram>;

// Build the fused trace for one steady-state iteration.  `runs` is the
// steady-state firing sequence (sched::Schedule::steady_runs); `carry`/
// `traffic` are the per-edge sizing from analysis::fuse_plan (carry < 0
// marks a boundary edge).  Returns nullptr with `reason` filled when some
// construct cannot be traced -- among them the vm-fallback:<filter> and
// teleport-send:<filter> refusals analysis/fuse.h lists -- and the caller
// falls back to the per-actor VM.
FusedProgramP build_fused(const FlatGraph& g, const std::vector<FiringRun>& runs,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          std::string* reason = nullptr);

}  // namespace sit::runtime
