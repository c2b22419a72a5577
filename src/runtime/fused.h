#pragma once
// Fused traces: the one form the compiled engines execute.
//
// Per-actor firing pays one work-function dispatch per firing and a
// ring-buffer round trip per item.  build_trace() removes both for any set
// of actors: it compiles a firing sequence -- runs of consecutive firings of
// one actor (for a whole steady state, sched::Schedule::steady_runs) --
// into ONE flat bytecode trace over exactly the actors the runs name, and
// lowers every channel whose two ends it lays out to a flat array ("trace
// buffer") indexed by cursors whose motion is statically known.  Every
// other channel stays a boundary tape (the program's external input/output
// edges in a whole-graph trace), read through the caller's tape table.
//
// Layout of one trace, per firing run (actor a, n firings):
//
//   SetActor a            switch OpCounts attribution + peek window, and
//                         load the actor's register template for the first
//                         firing (the per-firing register reset)
//   <work template>       the filter's typed work program (typed.h: vm.h's
//                         FInstr with operand-plane mode bytes and resolved
//                         count tags), registers and state slots rebased
//                         into the flat program-wide files, channel ops bound
//                         to the actor's edges: TPeek/TPop/TPush on a trace
//                         buffer, RPeek/RPop/RPush on a boundary ring
//   FireLoop a, n         reload the template and jump back to the template
//                         for the next firing, n x m times in all (omitted
//                         when n = 1 and the trace never scales, M = 1);
//                         the next run's SetActor takes over the FireLoop
//                         before it, so looping a run adds no instruction
//                         over inlining its one firing
//
// So the trace holds each template once per run: its length is set by the
// number of runs (one per actor on a single-appearance schedule), not by the
// repetition counts.  The back-edge doubles as the per-firing register
// reset, so a firing dispatches its template plus that one instruction.
//
// Pass multiplier.  Every run count in a trace is per steady state, and
// each TypedFusedExec::fire call runs the whole trace once with every run
// scaled by its multiplier m: the FireLoop limit, a linear kernel's firings
// and a collapsed copy-run's items are multiplied by m at run time, and the
// end of the call expects, compacts and counts m steady states' traffic on
// every lowered edge.  So one call -- one pass -- runs m steady states and
// pays the dispatch into the trace, each run's SetActor and each edge's
// compaction once.  Scaling a steady state's runs is only sound when every
// actor appears in one run and no lowered edge is a feedback back edge
// (its consumer runs before its producer, on the initial items alone);
// otherwise the trace's bound M (FusedProgram::max_pass) is 1.  Else M is
// the largest m whose m x (traffic per steady state, summed over the
// lowered edges) stays within kPassItemBudget (fused.cc) items; the buffers
// are sized carry + M x traffic.  A one-actor trace lowers no edge, so its
// multiplier is simply the firings each fire() asks for.
//
// A linear node's run is a single instruction instead (no SetActor, no
// template, no registers):
//
//   LinearKernel k        all n firings of the actor as one CSR mat-vec per
//                         firing over the peek window (linear-kernel below)
//
// A splitter's or joiner's firing is synthesized as copy-run/dup-run
// superinstructions, one per branch with a positive weight (flatten() gives
// each such branch an edge, flatgraph.h), and a native filter's as a
// NativeFire call through tape adapters, so any graph the per-actor
// executor runs (modulo the refusals below and the executor's own,
// sched/exec.h fused_refusal) can fuse.
//
// Every filter is typed once: build_trace copies the per-actor typed
// programs the executor already made (typed_compile), with their plane
// templates and state classes.  A laid-out filter actor without one refuses
// the whole trace, named after the actor: vm-fallback:<f> (<why>),
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
// filter whose typed program carries coefficient rows (TypedFilter::kernel:
// the rows linear::to_filter built with the filter's work AST) runs its
// whole run through linear_firings (linear_kernel.h) over a trace buffer or
// a boundary ring, with the expression's exact results, counts and faults.
// The tree interpreter is the only engine that still runs the expression
// form, and every engine-differential test compares the kernel against it.
//
// A splitter/joiner run whose firing collapses to one copy-run/dup-run stays
// one instruction moving the whole run's items, with no firing loop.
// Superinstruction counts (FusedProgram::super) are per steady state: an
// instance inside a firing loop counts once per firing.
//
// The executors call it with two sets today.  The whole graph's steady
// state lays out every actor, so a slot is the actor's id.  One actor's
// single run of one firing is its one-actor trace -- SetActor, its template
// and a FireLoop, or its one LinearKernel instruction, with the firing count
// each TypedFusedExec::fire call passes as its multiplier.  It lowers no
// edge and keeps no per-edge table, and needs no other filter typed.  A
// lone splitter or joiner run collapses to one copy-run as in any trace.
// sched::Executor fires every typed actor through one (a refused whole
// trace, run_init, fire(), the threaded workers), and FilterExec fires a
// lone filter outside any executor.
//
// TypedFusedExec (below) runs any trace on the dual value plane; its run()
// is the only loop that dispatches typed FInstr code.  A build ends by
// decoding every instruction to the handler run() switches on (vm.h
// Handler): a same-plane op's specialized handler fixes its planes, its
// operator and the OpCounts field it bumps, so the loop makes one flat
// dispatch per instruction; FusedProgram::dispatch is the census.  The
// bit-equality contract lives on TypedFusedExec; tests/test_fused.cc pins
// superinstruction selection and every refusal reason.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
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
// coefficient array) typed loop body it replaces.
struct MacLoopArgs {
  std::uint16_t ri{0}, rhi{0}, rstep{0};  // loop bookkeeping registers
  std::uint16_t slot{0};                  // the loop-variable local
  std::uint16_t acc{0};                   // accumulator register
  std::uint16_t p{0}, q{0}, m{0};         // constituent temporaries
  std::uint16_t arr{0};                   // flat array slot (has_array)
  bool has_array{false};
  std::int32_t edge{-1};
  bool real{false};  // peek the boundary tape instead of a trace buffer
};

struct CopyRunArgs {
  std::int32_t src{-1};
  bool src_real{false};
  std::vector<std::int32_t> dst;   // >= 1 destinations (dup-run when > 1)
  std::vector<std::uint8_t> dst_real;
  std::int64_t n{0};               // items moved
  std::uint16_t reg{0};            // scratch register (holds the last item)
  // A whole run collapsed to this one instruction: `n` is the run's items
  // per steady state, moved n x m-fold in a pass of multiplier m.
  bool whole_run{false};
};

struct NativeFireArgs {
  int actor{-1};  // the graph's actor id: its native state and name
  std::int32_t in_edge{-1}, out_edge{-1};
  bool in_real{false}, out_real{false};
  // Static per-firing counts (native_firing_counts).
  OpCounts counts;
};

struct LinearKernelArgs {
  int actor{-1};  // the program's actor slot: OpCounts attribution
  std::int32_t in_edge{-1}, out_edge{-1};  // -1: the filter has no such tape
  bool in_real{false}, out_real{false};
  // The run's firings per steady state, all the pass's in one dispatch.
  std::int64_t firings{0};
  ir::LinearRows rows;
};

// One laid-out actor.  A trace's actor slots number its actors in id order:
// the graph's actor ids in a whole-graph trace, the one slot 0 in a
// one-actor trace.  SetActor, FireLoop and LinearKernelArgs::actor name
// slots.
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
  // M: the largest pass multiplier fire() accepts -- the steady states one
  // pass runs at most (see the file comment).  1 when the runs do not scale.
  std::int64_t max_pass{1};
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
  std::vector<FusedActorMeta> actors;  // by slot
  std::vector<FusedEdgeMeta> edges;    // by edge id; empty when none lowered
  // Flat array-slot names (bounds errors, disassembly), indexed by
  // actors[i].array_base + slot.
  std::vector<std::string> array_names;
  int eliminated_channels{0};  // edges lowered to trace buffers
  // Static superinstruction selection: trace-instruction instances by stable
  // name (mac-loop, sum-loop, copy-run, dup-run, linear-kernel).  Absent
  // name == 0.
  std::map<std::string, std::int64_t> super;

  // The decode census: trace instructions per handler (vm.h Handler) that
  // run() dispatches them on.  Absent handler == 0.
  std::map<Handler, std::int64_t> dispatch;

  [[nodiscard]] std::int64_t super_count(const std::string& name) const {
    const auto it = super.find(name);
    return it == super.end() ? 0 : it->second;
  }
  // Instructions on a generic handler (vm.h handler_generic).
  [[nodiscard]] std::int64_t generic_count() const;
  // Human-readable trace listing with superinstructions annotated
  // (streamc --dump-after).
  [[nodiscard]] std::string disassemble() const;
};

using FusedProgramP = std::shared_ptr<const FusedProgram>;

// Build the trace of `runs` (see the file comment): the actors they name,
// laid out in id order, and each run's firings per steady state (at least
// one).  An edge whose two ends are laid out becomes a trace buffer sized by
// `carry`/`traffic`
// (analysis::channel_bounds' post_init and traffic); the caller needs them
// only when some edge is.  `typed[i]` is actor i's typed work program, or
// null with `why[i]` the reason compile_filter or typed_compile gave (read
// only then, so a caller whose laid-out filters are all typed passes none).
// Returns nullptr with `reason` filled when some construct cannot be traced
// -- among them the per-filter refusals above -- and the caller runs those
// actors another way (per-actor, or on the tree interpreter).
FusedProgramP build_trace(const FlatGraph& g, const std::vector<FiringRun>& runs,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          const std::vector<TypedFilterP>& typed,
                          const std::vector<std::string>& why,
                          std::string* reason = nullptr);

// A trace bound to storage: the FilterStates of its actor slots
// (`states[i]` is slot i's), the per-edge tape tables its boundary ops read
// (an executor's, so a tape retargeted to an SPSC ring between calls is read
// there), the executor's Channels (a trace lowers its internal edges from
// them, and a kernel pushes straight into one its out tape still is), and,
// by actor id, the native filters' states for a trace that fires one.
// Usage per public call:
//
//   if (fx.activate()) {           // mirror state into the planes, lower
//     fx.fire(counts, m);          //   internal channels to buffers; one
//     ...                          //   pass of m steady states per call
//     fx.deactivate();             // write state back, restore channels
//   }
//
// activate() refuses (returns false, mutating nothing) in two cases, and
// the caller then runs the call per-actor / on the tree interpreter:
//   * some internal channel does not hold exactly its steady-state carry --
//     e.g. manual fire() calls left the graph mid-iteration;
//   * some state tag no longer matches its inferred class -- e.g. a caller
//     stored the other tag through Executor::filter_state between calls.
// On success it mirrors every filter state scalar/array into raw plane
// storage until deactivate() writes it back, which is what lets the
// mac-loop run as `for (i) acc += src[i] * coef[i]` over raw double spans.
// fire(counts, m) runs one pass of m steady states (m firings of a
// one-actor trace), advances every lowered channel's cumulative counters by
// m x its traffic, and compacts each buffer's carried items back to the
// front.  A fault thrown out of a pass leaves the trace active with the
// firings up to the fault done; deactivate() then returns each lowered
// edge's live items to its Channel and advances its counters by the items
// the pass actually moved, so the graph is left exactly where the faulting
// firing left it, and activate() refuses until it is back at its carry
// levels.
//
// Bit-equality contract: for any admissible program, running the trace
// produces outputs, per-actor FilterState, per-actor OpCounts, and per-edge
// cumulative push/pop counters identical to the tree interpreter.
// Counting preservation is per-instruction (every lowered/fused op carries
// the cost class the tree tallies, both read off eval_ops.h's operator
// table);
// channel-counter preservation is by bulk advance (each lowered edge's
// n(t)/p(t) advance by m x `traffic` once per pass, which equals the sum of
// the per-item increments per-actor firing makes).  Only Channel high-water
// marks differ (a lowered channel never observes intermediate occupancy).
// tests/test_pipeline_diff.cc holds the contract across all apps x all
// optimization levels.
//
// Cache-line aligned: threaded workers fire different actors' one-actor
// traces at once, each writing its own exec's fields on every call, and an
// executor makes those execs one after another.  Sharing lines cost FMRadio
// and Vocoder 11-15% at four threads (perfbench threads-O2, 4-vCPU VM).
class alignas(64) TypedFusedExec {
 public:
  TypedFusedExec(
      FusedProgramP prog, std::span<FilterState> states,
      const std::vector<ir::InTape*>& in, const std::vector<ir::OutTape*>& out,
      std::span<const std::unique_ptr<Channel>> chans = {},
      std::span<const std::unique_ptr<ir::NativeState>> nstates = {});

  bool activate();
  void deactivate();
  // One pass: the trace with every run scaled by `m` -- m steady states of
  // a whole-graph trace (m <= program().max_pass), m firings of a one-actor
  // trace -- tallied per actor slot into counts[] (null: no counting).
  void fire(OpCounts* counts, std::int64_t m);
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const FusedProgram& program() const { return *prog_; }

 private:
  // The dispatch loop, every run count scaled by the multiplier `m`.
  template <bool kCount>
  void run(OpCounts* actor_counts, std::int64_t m);
  // One LinearKernel instruction: out of line, so traces without one keep
  // the dispatch loop's code unchanged.  `actor_counts` and `m` are run's.
  [[gnu::noinline]] void run_linear(const LinearKernelArgs& K,
                                    OpCounts* actor_counts, std::int64_t m);
  // Check, compact and count a finished pass of m steady states.
  void finish_pass(std::int64_t m);
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
  const std::vector<ir::InTape*>* in_;
  const std::vector<ir::OutTape*>* out_;
  std::span<const std::unique_ptr<Channel>> chans_;
  std::span<const std::unique_ptr<ir::NativeState>> nstates_;
  std::vector<EdgeState> ebuf_;
  bool active_{false};
};

// A lone filter fired outside any executor -- a peeking-fission replica, a
// differential test, a microbenchmark -- through its one-actor trace over a
// private one-filter graph, on the tapes each fire() call names.  As with
// an executor, firings run between activate() and deactivate(), and the
// bound FilterState is current only outside them.
class FilterExec {
 public:
  // Null when typed_compile or build_trace refuses `filter` (a filter node
  // whose work `base` is, specialized against `state`'s current tags).
  static std::unique_ptr<FilterExec> make(const ir::NodeP& filter,
                                          const CompiledFilterP& base,
                                          FilterState& state);

  bool activate() { return exec_->activate(); }
  void deactivate() { exec_->deactivate(); }
  void fire(ir::InTape& in, ir::OutTape& out, OpCounts* counts,
            std::int64_t n = 1);

 private:
  FilterExec() = default;

  ir::NodeP node_;
  FlatGraph g_;
  std::vector<ir::InTape*> in_;
  std::vector<ir::OutTape*> out_;
  std::unique_ptr<TypedFusedExec> exec_;
};

}  // namespace sit::runtime
