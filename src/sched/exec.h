#pragma once
// Graph executor.
//
// Drives a flattened stream program through its initialization epoch and any
// number of steady states, firing actors data-driven in topological sweeps
// (which realizes exactly the operational semantics of the paper: an actor
// may fire whenever >= peek items are buffered on its input).  The executor
// also:
//   * tallies per-actor operation counts (the work estimates used by the
//     partitioners and the machine model),
//   * exposes single-actor firing so the messaging module can drive a
//     *constrained* schedule,
//   * records cumulative push/pop counters per channel (n(t), p(t)).
//
// Every typed filter actor fires through its one-actor trace
// (runtime/fused.h build_trace): a template actor's run is SetActor, its
// template and a FireLoop, a linear node's is one LinearKernel instruction,
// and either way fire_run(actor, n) is one dispatch.  The trace is built
// once, at construction; its TypedFusedExec and state planes are made at
// the actor's first per-actor firing, so an actor that only ever runs in
// the whole-graph trace costs no planes.  Each trace's TypedFusedExec
// mirrors the actor's state into raw planes once per public call --
// run_init, run_steady, fire, and ThreadedExecutor::run_steady around its
// workers -- and writes it back when the call returns; an actor
// whose state tags drifted from its typed classes fires on the tree
// interpreter for that call.  Everything else (tree-engine actors, natives,
// splitters, joiners) fires through fire_into's own cases; a filter's or a
// native's one firing is fire_work, which the threaded runtime's split
// lanes call too, on their own tapes and state.
//
// It is also the per-actor execution core of the threaded runtime: a
// ThreadedExecutor (sched/texec.h) owns one Executor, built the public way,
// runs the init epoch on it, and has its workers fire every steady state's
// actors through it after pointing each cross-worker edge's tape at an SPSC
// ring; the whole-graph trace is built but never runs there.

#include <functional>
#include <memory>
#include <vector>

#include "analysis/bounds_chan.h"
#include "ir/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/channel.h"
#include "runtime/flatgraph.h"
#include "runtime/fused.h"
#include "runtime/interp.h"
#include "runtime/typed.h"
#include "sched/program.h"
#include "sched/schedule.h"

namespace sit::sched {

// Engine lives in sched/program.h (the CompiledProgram artifact records the
// pipeline's choice); re-exported here for the executors' users.

// Resolve Auto against SIT_ENGINE (other values pass through).
Engine resolve_engine(Engine e);

// Resolve a requested worker-thread count: 0 means "consult SIT_THREADS",
// which itself defaults to 1 (sequential).  Values < 1 clamp to 1.  Only the
// ThreadedExecutor (sched/texec.h) acts on counts > 1; the plain Executor
// ignores the field.
int resolve_threads(int requested);

// Event tracing + timing metrics (src/obs).  Auto consults the SIT_TRACE
// environment variable ("1"/"on"/"true" enable) and defaults to Off; the
// explicit values let tests and tools pin the behavior regardless of the
// environment.
enum class TraceMode { Auto, Off, On };

// Resolve Auto against SIT_TRACE; always false when the instrumentation was
// compiled out (cmake -DSIT_OBS=OFF).
bool resolve_trace(TraceMode mode);

// The compiled value plane: On (the default) runs AST filters on the typed
// engines wherever the typeflow analysis (runtime/typed.h) proves it safe,
// falling back per actor to the tree interpreter and per program to
// per-actor execution; Off runs every AST filter on the tree interpreter:
// the executor resolves it to Engine::Tree.
enum class TypedMode { Off, On };

// Resolve the threaded runtime's stall-abort threshold in milliseconds:
// 0 = consult SIT_STALL_MS, which itself defaults to 120000 (two minutes);
// negative = never abort (spin forever).
int resolve_stall_ms(int requested);

// Resolve a requested steady-iteration batch factor: 0 = consult SIT_BATCH
// (whose default is auto), -1 = auto, values >= 1 pass through.  Returns -1
// (auto) or a count >= 1.  Auto is resolved per program inside the
// ThreadedExecutor when it plans the placement, where per-edge traffic, the
// actors' planned weights, and the static max_batch are known.
int resolve_batch(int requested);

struct ExecOptions {
  bool count_ops{true};
  Engine engine{Engine::Auto};
  // Worker threads for ThreadedExecutor: 0 = resolve from SIT_THREADS.
  int threads{0};
  // Steady iterations per pipeline step (ThreadedExecutor only): 0 = resolve
  // from SIT_BATCH, -1 = auto heuristic, >= 1 = explicit (clamped to the
  // static max_batch of the program).
  int batch{0};
  // Event tracing + per-firing timing (obs::Recorder).
  TraceMode trace{TraceMode::Auto};
  // Compiled value plane (TypedMode above).
  TypedMode typed{TypedMode::On};
  // Threaded runtime stall detector: abort after this many ms without
  // progress in a spin wait (0 = SIT_STALL_MS / default, < 0 = never).
  int stall_ms{0};
  // Receives teleport messages emitted by Send statements; delivery policy is
  // the msg module's job (the plain executor only forwards).
  runtime::MessageSink message_sink;
};

class ThreadedExecutor;

class Executor {
 public:
  // Graph-taking form: validates, flattens, and schedules internally
  // (equivalent to Executor(lower(root), opts)).
  explicit Executor(ir::NodeP root, ExecOptions opts = {});

  // Artifact-taking form: consume a pipeline-compiled program as-is -- no
  // re-analysis, re-flattening, or re-scheduling.  The program's resolved
  // engine applies when opts.engine is Auto (and likewise threads), so the
  // same artifact can still be pinned to a specific engine per executor.
  explicit Executor(CompiledProgram prog, ExecOptions opts = {});

  [[nodiscard]] const runtime::FlatGraph& graph() const { return g_; }
  [[nodiscard]] const Schedule& schedule() const { return sched_; }
  // The static per-edge occupancy bounds (analysis::channel_bounds over the
  // schedule), computed once at construction: they size the whole-graph
  // trace's buffers and fill metrics_snapshot's bound_items.
  [[nodiscard]] const analysis::ChannelBounds& bounds() const {
    return bounds_;
  }

  // External input: either an explicit item feed or a generator the executor
  // pulls from on demand (index = item position in the input stream).
  void feed_input(const std::vector<double>& items);
  void set_input_generator(std::function<double(std::int64_t)> gen);

  // Initialization epoch: runs every filter's init function happened already
  // (at construction); this executes the init firings that buffer peek
  // windows and primes feedback loops.  Idempotent.
  void run_init();

  // Run `n` steady states (running init first if needed); returns the items
  // pushed to the program output during those steady states.
  std::vector<double> run_steady(int n);

  // --- fine-grained control (sdep / messaging) -----------------------------
  [[nodiscard]] bool can_fire(int actor) const;
  void fire(int actor);

  // Invoke a teleport-message handler on an AST filter actor.  Handlers run
  // through the tree interpreter, on the actor's own FilterState storage.
  // typed_compile refuses a filter with handlers, so its per-actor firings
  // run on the tree too, and the fused trace refuses it as
  // "has-handlers:<filter>".
  void run_handler(int actor, const std::string& method,
                   const std::vector<ir::Value>& args);

  // The engine actually driving this graph (Auto already resolved, and
  // TypedMode::Off resolved to Tree), and
  // whether a given AST filter actor fires through its one-actor trace
  // (otherwise it runs on the tree interpreter).
  [[nodiscard]] Engine engine() const { return engine_; }
  [[nodiscard]] bool actor_uses_vm(int actor) const {
    return actor_trace_[static_cast<std::size_t>(actor)] != nullptr;
  }
  // The stable reason an AST filter actor runs on the tree interpreter under
  // a compiled engine: compile_filter's (e.g. "teleport-send"),
  // typed_compile's ("has-handlers", "mixed-register", "mixed-state:<slot>")
  // or build_trace's.
  // "" when it runs compiled, or was never a candidate (non-filter or tree
  // engine).
  [[nodiscard]] const std::string& typed_refusal(int actor) const {
    return typed_refusal_[static_cast<std::size_t>(actor)];
  }
  // The specialized work program for one actor (null on the tree).
  [[nodiscard]] const runtime::TypedFilter* typed_program(int actor) const {
    const auto ai = static_cast<std::size_t>(actor);
    return actor_trace_[ai] ? typed_[ai].get() : nullptr;
  }
  // The actor's one-actor trace (runtime/fused.h build_trace), or null when
  // it runs on the tree interpreter.
  [[nodiscard]] const runtime::FusedProgram* actor_trace(int actor) const {
    return actor_trace_[static_cast<std::size_t>(actor)].get();
  }
  // Whether the actor's one-actor trace is its typed program's coefficient
  // kernel (runtime/linear_kernel.h) rather than its template.
  [[nodiscard]] bool runs_kernel(int actor) const {
    const auto& p = actor_trace_[static_cast<std::size_t>(actor)];
    return p && !p->kernels.empty();
  }

  // Whole-graph trace introspection.  fused_program() is the
  // whole-iteration typed trace run_steady executes, or null when there is
  // none: on the tree engine, or when fusion was refused -- in which case
  // fused_refusal() carries the stable kebab-case reason and steady states
  // run per-actor instead.  The executor's own reasons are
  // message-sink-attached and tracing-enabled (observers that want
  // per-firing granularity); build_trace adds the per-filter ones
  // (runtime/fused.h).  sched/describe.h renders all of it for streamc
  // --report.
  [[nodiscard]] const runtime::FusedProgram* fused_program() const {
    return fprog_ ? fprog_.get() : nullptr;
  }
  [[nodiscard]] const std::string& fused_refusal() const {
    return fused_refusal_;
  }
  // Aliases of the two above, kept only for perfbench's counts line.
  [[nodiscard]] const runtime::FusedProgram* typed_fused_program() const {
    return fused_program();
  }
  [[nodiscard]] const std::string& typed_fused_refusal() const {
    return fused_refusal_;
  }

  [[nodiscard]] const std::vector<std::int64_t>& firings() const { return fired_; }
  [[nodiscard]] runtime::Channel& channel(int edge_id) {
    return *chans_[static_cast<std::size_t>(edge_id)];
  }
  runtime::FilterState& filter_state(int actor) {
    return fstate_[static_cast<std::size_t>(actor)];
  }
  [[nodiscard]] const runtime::FilterState& filter_state(int actor) const {
    return fstate_[static_cast<std::size_t>(actor)];
  }

  // Drain whatever is on the external output edge.
  std::vector<double> take_output();

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] const std::vector<runtime::OpCounts>& actor_ops() const {
    return ops_;
  }
  [[nodiscard]] runtime::OpCounts total_ops() const;

  // --- observability --------------------------------------------------------
  // Null unless tracing is enabled (ExecOptions::trace / SIT_TRACE).
  [[nodiscard]] obs::Recorder* recorder() noexcept { return rec_.get(); }
  [[nodiscard]] const obs::Recorder* recorder() const noexcept {
    return rec_.get();
  }
  // The single-threaded executor's own event log (null when not tracing);
  // MessagingExecutor appends teleport delivery events here.
  [[nodiscard]] obs::ThreadBuffer* trace_buffer() noexcept { return tb_; }
  // Quiescent metrics snapshot (actor/edge/timing tables; obs/metrics.h).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  // The threaded runtime embeds a public-form executor and drives it
  // through the hooks below (retarget, fire_run and fire_work, the
  // per-firing tracing, the sequential steady state, the input feed); it
  // reads the tallies, progress counters and one-actor traces directly.
  friend class ThreadedExecutor;

  // Point edge `edge`'s tapes at an SPSC ring.  The edge's Channel stays
  // owned (and drained); high-water notes and metrics_snapshot skip it from
  // then on, and since can_fire still reads it, per-actor epochs must not
  // run after a retarget.
  void retarget(int edge, ir::InTape* in, ir::OutTape* out) {
    in_tape_[static_cast<std::size_t>(edge)] = in;
    out_tape_[static_cast<std::size_t>(edge)] = out;
  }
  [[nodiscard]] bool on_channel(std::size_t edge) const {
    return in_tape_[edge] == chans_[edge].get();
  }
  // Mirrors the typed actors' state into their one-actor traces' planes for
  // one public call -- every actor's, or `actor`'s alone -- and writes it
  // back when the call ends, by return or by throw.  An actor whose trace
  // has no executor yet is skipped: active_fx makes and activates one at
  // its first firing inside the binding.  Bindings do not nest, and the
  // whole-steady-state trace only activates outside one.
  class Bind {
   public:
    explicit Bind(Executor& ex, int actor = -1);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    Executor& ex_;
    std::size_t lo_, hi_;
  };
  // The one per-actor firing routine: tallies into *counts (null = no
  // counting) and traces into tb (null = no tracing).  Afterwards notes high
  // water on the fired actor's own edges that still live on a Channel.  A
  // typed actor whose trace is not active (outside a Bind, or its state
  // tags drifted) fires on the tree interpreter.
  void fire_into(int actor, runtime::OpCounts* counts, obs::ThreadBuffer* tb);
  // `n` consecutive firings of one actor (the caller has made their input
  // and room available).  An active one-actor trace runs all n in one
  // dispatch, noting high water once afterwards; every other actor, and any
  // actor while tracing, loops fire_into.
  void fire_run(int actor, std::int64_t n, runtime::OpCounts* counts,
                obs::ThreadBuffer* tb);
  void note_high_water(const runtime::FlatActor& a);
  // The actor's one-actor trace executor when it is active, making it first
  // when the actor is traced, has none yet, and is inside the current Bind.
  // Null: the actor fires on the tree interpreter.
  runtime::TypedFusedExec* active_fx(std::size_t actor);
  // One firing of filter or native actor `a` on the tapes and state given
  // -- the executor's, or a split lane's: through `x`, its active one-actor
  // trace, when there is one, else natively (with its static counts) or on
  // the tree interpreter, which alone delivers Sends to `sink`.
  static void fire_work(
      const runtime::FlatActor& a, runtime::TypedFusedExec* x,
      runtime::FilterState& state, ir::NativeState* native, ir::InTape& in,
      ir::OutTape& out, runtime::OpCounts* counts,
      const runtime::MessageSink* sink);
  // Per-firing tracing around one firing of `actor`: trace_begin emits
  // FireBegin and returns its time; trace_end emits the firing's pop/push
  // batches at its declared rates and FireEnd, and records the firing's
  // time into *stats.
  std::int64_t trace_begin(obs::ThreadBuffer* tb, int actor) const;
  void trace_end(obs::ThreadBuffer* tb, int actor, std::int64_t t0,
                 obs::FiringStats* stats) const;
  // Data-driven sweeps in schedule order until every actor fired its quota.
  void run_epoch(const std::vector<std::int64_t>& quota);
  // `n` steady states as data-driven epochs inside one Bind: run_steady
  // without the whole-graph trace (or past the steady states its input
  // holds), and the split calls the threaded runtime reruns sequentially.
  void run_steady_epochs(int n);
  // Emit a Phase event when tracing; Steady only the first time.
  void mark_phase(obs::PhaseId id);
  // Count one more steady state and top up the input feed for it.
  void start_steady_state();
  // The whole steady states the external input channel holds now (INT64_MAX
  // for a program without one): the items past its consumer's peek window,
  // in steady states' worth.
  [[nodiscard]] std::int64_t steady_states_fed() const;
  void ensure_input_for(std::int64_t items_needed);
  [[nodiscard]] runtime::OpCounts* counts_or_null() {
    return opts_.count_ops ? ops_.data() : nullptr;
  }

  ir::NodeP root_;
  ExecOptions opts_;
  runtime::FlatGraph g_;
  Schedule sched_;
  analysis::ChannelBounds bounds_;
  Engine engine_{Engine::Fused};
  std::vector<std::unique_ptr<runtime::Channel>> chans_;
  // Per-edge tape table the firing routine reads: each entry points at the
  // edge's Channel until the threaded runtime retargets it to a ring.
  std::vector<ir::InTape*> in_tape_;
  std::vector<ir::OutTape*> out_tape_;
  std::vector<runtime::FilterState> fstate_;
  std::vector<std::unique_ptr<ir::NativeState>> nstate_;
  // Per actor, its typed program, its one-actor trace (build_trace's; null
  // when the actor runs on the tree), that trace's executor bound to its
  // fstate_ entry and the tape tables -- made on first use inside a Bind
  // (active_fx), so fstate_ entries must never be reseated; actors that
  // only ever run in the whole-graph trace never make one -- and the
  // per-actor refusal reasons.
  std::vector<runtime::TypedFilterP> typed_;
  std::vector<runtime::FusedProgramP> actor_trace_;
  std::vector<std::unique_ptr<runtime::TypedFusedExec>> fx_;
  std::vector<std::string> typed_refusal_;
  // The actors [bind_lo_, bind_hi_) the current Bind covers (empty outside
  // one).
  std::size_t bind_lo_{0}, bind_hi_{0};
  // Fused steady-state trace (null when there is none: fused_program())
  // and its executor: run_steady runs a call on it, in passes of up to
  // fprog_->max_pass steady states, when activation succeeds, and per-actor
  // otherwise.
  runtime::FusedProgramP fprog_;
  std::string fused_refusal_;
  std::unique_ptr<runtime::TypedFusedExec> tfexec_;
  std::vector<runtime::OpCounts> ops_;
  std::vector<std::int64_t> fired_;
  std::function<double(std::int64_t)> input_gen_;
  std::int64_t input_fed_{0};
  std::int64_t steady_run_{0};
  bool init_done_{false};
  bool steady_marked_{false};
  // Tracing (null when disabled; tb_ is this executor's thread-0 buffer).
  std::unique_ptr<obs::Recorder> rec_;
  obs::ThreadBuffer* tb_{nullptr};
  // Compilation provenance (from the CompiledProgram; empty when built from
  // a raw graph), surfaced through metrics_snapshot().
  std::string pipeline_;
  std::vector<obs::PassSnapshot> passes_;
};

}  // namespace sit::sched
