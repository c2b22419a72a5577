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
//   <work template>       the filter's typed work program (typed.h: vm.h's
//                         FInstr with operand-plane mode bytes and resolved
//                         count tags), registers and state slots rebased
//                         into the flat program-wide files, channel ops bound
//                         to the actor's edges: TPeek/TPop/TPush on a trace
//                         buffer, RPeek/RPop/RPush on a boundary ring
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
// Every filter is typed once: build_fused copies the per-actor typed
// programs the executor already made (typed_compile), with their plane
// templates and state classes.  A filter actor without one refuses the
// whole trace, named after the actor: vm-fallback:<f> (<why>),
// teleport-send:<f>, has-handlers:<f>, mixed-register:<f> or
// mixed-state:<f>.<slot>.
//
// A peephole pass over each typed template then collapses the hot patterns
// into superinstructions -- single opcodes that execute a whole loop or
// firing with identical semantics and identical OpCounts:
//
//   mac-loop       for(i) acc += peek(i) * coef[i]   (FIR taps; the dominant
//                  pattern of every linear app)
//   sum-loop       for(i) acc += peek(i)             (adders/combiners)
//                  Both need an Int counter and bound, a Double
//                  accumulator and (mac-loop) a Double coefficient array;
//                  a loop typed any other way runs as plain instructions.
//   copy-run       n x { pop(src); push(dst) }       (round-robin routing)
//   dup-run        n x { pop(src); push(all dsts) }  (duplicate splitters)
//   linear-kernel  n x { push(A W + b); pop_n(pop) } (a whole linear node's
//                  run; see below)
//
// linear-kernel replaces an actor rather than a window of its template: a
// filter whose typed program carries coefficient rows (TypedFilter::kernel,
// attached by typed_compile to linear::to_filter's exact form) runs its
// whole run through linear_firings (linear_kernel.h) over a trace buffer or
// a boundary ring, with the expression's exact results, counts and faults.
// The tree interpreter is the only engine that still runs the expression
// form, and every engine-differential test compares the kernel against it.
//
// A splitter/joiner run whose firing collapses to one copy-run/dup-run stays
// one instruction moving the whole run's items, with no firing loop.
// Superinstruction counts (FusedProgram::super) are per iteration: an
// instance inside a firing loop counts once per firing.
//
// TypedFusedExec (below) runs the trace on the dual value plane; a refused
// trace runs per-actor instead.  The bit-equality contract lives on
// TypedFusedExec; tests/test_fused.cc pins superinstruction selection and
// every refusal reason.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.h"
#include "runtime/channel.h"
#include "runtime/flatgraph.h"
#include "runtime/interp.h"
#include "runtime/linear_kernel.h"
#include "runtime/opcounts.h"
#include "runtime/typed.h"
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

struct LinearKernelArgs {
  int actor{-1};  // OpCounts attribution
  std::int32_t in_edge{-1}, out_edge{-1};  // -1: the filter has no such tape
  bool in_real{false}, out_real{false};
  std::int64_t firings{0};  // the run's firings, all in one dispatch
  LinearRows rows;
};

struct FusedActorMeta {
  std::string name;
  CompiledFilterP filter;  // state slots to bind; null without a template
  std::uint32_t reg_base{0}, num_regs{0};
  std::uint32_t scalar_base{0}, array_base{0};
  std::int64_t peek_window{0};
};

struct FusedEdgeMeta {
  bool internal{false};
  std::int64_t carry{0};    // items living across iteration boundaries (L0)
  std::int64_t traffic{0};  // items crossing per iteration
};

struct FusedProgram {
  const FlatGraph* graph{nullptr};  // non-owning; must outlive the program
  std::vector<FiringRun> runs;      // the steady-state firing sequence
  std::vector<FInstr> code;         // typed: mode bytes set, no ByResult
  // The two register planes' templates and the state slots' classes: each
  // actor's typed program's, at its reg_base / scalar_base / array_base.
  std::vector<double> dreg_init;
  std::vector<std::int64_t> ireg_init;
  std::vector<Tag> scalar_class, array_class;
  std::vector<MacLoopArgs> macs;
  std::vector<CopyRunArgs> copies;
  std::vector<NativeFireArgs> nats;
  std::vector<LinearKernelArgs> kernels;
  std::vector<FusedActorMeta> actors;
  std::vector<FusedEdgeMeta> edges;
  // Flat array-slot names (bounds errors, disassembly), indexed by
  // actors[i].array_base + slot.
  std::vector<std::string> array_names;
  int eliminated_channels{0};  // internal edges lowered to trace buffers
  // Static superinstruction selection: trace-instruction instances by stable
  // name (mac-loop, sum-loop, copy-run, dup-run, linear-kernel).  Absent
  // name == 0.
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
// marks a boundary edge).  `typed[i]` is actor i's typed work program, or
// null with `why[i]` the reason compile_filter or typed_compile gave.
// Returns nullptr with `reason` filled when some construct cannot be traced
// -- among them the per-filter refusals above -- and the caller runs
// per-actor instead.
FusedProgramP build_fused(const FlatGraph& g, const std::vector<FiringRun>& runs,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          const std::vector<TypedFilterP>& typed,
                          const std::vector<std::string>& why,
                          std::string* reason = nullptr);

// The fused engine's executor: a fused trace bound to one executor's
// storage (FilterStates, boundary Channels, NativeStates).  Usage per
// run_steady call:
//
//   if (fx.activate()) {           // lower internal channels to buffers
//     for each iteration: fx.run_iteration(counts);
//     fx.deactivate();             // restore carried items to the channels
//   }
//
// activate() refuses (returns false) in two cases, and the caller then runs
// the batch per-actor instead:
//   * some internal channel does not hold exactly its steady-state carry --
//     e.g. manual fire() calls left the graph mid-iteration;
//   * some state tag no longer matches its inferred class -- e.g. a caller
//     stored the other tag through Executor::filter_state between runs.
// On success it also mirrors every filter state scalar/array into raw plane
// storage for the duration of the activation (written back on deactivate),
// which is what lets the mac-loop run as `for (i) acc += src[i] * coef[i]`
// over raw double spans.  run_iteration executes one whole steady state,
// advances every lowered channel's cumulative counters by its traffic, and
// compacts each buffer's carried items back to the front.
//
// Bit-equality contract: for any admissible program, running the trace
// produces outputs, per-actor FilterState, per-actor OpCounts, and per-edge
// cumulative push/pop counters identical to per-actor execution.
// Counting preservation is per-instruction (every lowered/fused op carries
// the same CountTag arithmetic as the VM dispatch loop); channel-counter
// preservation is by bulk advance (each lowered edge's n(t)/p(t) advance by
// `traffic` once per iteration, which equals the sum of the per-item
// increments the VM would have made).  Only Channel high-water marks differ
// (a lowered channel never observes intermediate occupancy).
// tests/test_pipeline_diff.cc holds the contract across all apps x all
// optimization levels.
class TypedFusedExec {
 public:
  TypedFusedExec(FusedProgramP prog, std::vector<FilterState>& states,
                 const std::vector<std::unique_ptr<Channel>>& chans,
                 const std::vector<std::unique_ptr<ir::NativeState>>& nstates);

  bool activate();
  void deactivate();
  void run_iteration(OpCounts* actor_counts);
  [[nodiscard]] bool active() const { return active_; }

 private:
  template <bool kCount>
  void run(OpCounts* actor_counts);
  // One LinearKernel instruction: out of line, so traces without one keep
  // the dispatch loop's code unchanged.  `actor_counts` is run's argument.
  [[gnu::noinline]] void run_linear(const LinearKernelArgs& K,
                                    OpCounts* actor_counts);
  void finish_iteration();
  bool sync_state_in();   // Value -> planes; false on a class/tag mismatch
  void sync_state_out();  // planes -> Value

  struct EdgeState {
    std::vector<double> buf;
    std::size_t rd{0}, wr{0};
  };
  class BufIn;
  class BufOut;

  FusedProgramP prog_;
  std::vector<ir::Value*> scalar_vals_;
  std::vector<std::vector<ir::Value>*> array_vals_;
  std::vector<double> dregs_;
  std::vector<std::int64_t> iregs_;
  std::vector<double> dscalars_;
  std::vector<std::int64_t> iscalars_;
  std::vector<std::vector<double>> darrays_;
  std::vector<std::vector<std::int64_t>> iarrays_;
  std::vector<Channel*> chans_;
  std::vector<ir::NativeState*> nstates_;
  std::vector<EdgeState> ebuf_;
  bool active_{false};
};

}  // namespace sit::runtime
