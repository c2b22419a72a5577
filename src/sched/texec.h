#pragma once
// Threaded runtime: execute a partitioned stream graph on real cores.
//
// The sequential Executor realizes the paper's operational semantics one
// firing at a time, and machine::simulate only *models* parallel speedup.
// ThreadedExecutor closes that gap: it places the flattened graph's actors
// onto N OS threads and runs a software-pipelined steady state per worker.
//
// Execution model:
//   * Every ThreadedExecutor owns one sequential Executor, its per-actor
//     execution core: channels, filter state, the one-actor traces
//     (runtime::build_trace of one actor), init functions, the input feed,
//     firing tallies, the per-actor firing routines (fire_run, fire_into
//     and a filter's one firing, fire_work) and the sequential steady
//     state (run_steady_epochs) all live there.  It is built the public
//     way, Executor(prog, opts), once per program: a fallback runs the
//     program on it as is, and the threaded path never runs its
//     whole-graph trace (inherently single-threaded), which the threaded
//     metrics snapshot does not report.
//   * Initialization runs sequentially on the embedded Executor, and
//     run_init then plans the placement once, weighing each actor at one
//     steady state's static cost: reps * firing_weight (below).  Every
//     steady iteration, the first call's included, runs on the workers.
//   * Actors are partitioned by longest-processing-time greedy balancing
//     over those weights, with an affinity pass that glues featherweight
//     actors (splitters, sinks, gains) to their heaviest neighbor so
//     trivial actors do not buy a ring crossing.
//   * Steady iterations are grouped into *batches* of B iterations (the
//     batch factor: ExecOptions::batch / SIT_BATCH, auto-sized by default
//     from per-edge traffic, planned cost, and the static max_batch).  One
//     pipeline step runs a whole batch: every worker executes its slice in
//     the *global* topological order, firing each actor reps * B times
//     consecutively.  With this single-appearance discipline, a firing's
//     inputs are produced either earlier in the same step (forward edges) or
//     by the previous step (back edges), so per-edge quota waits alone order
//     the computation -- no global barrier between steady states.  Batching
//     is what amortizes the cross-thread machinery: each ring handoff
//     publishes once per B*T items, and the window counters advance once per
//     B iterations.
//   * Cross-thread edges are migrated to lock-free SPSC rings in deferred
//     (bulk-publication) mode (runtime/spsc.h) by pointing the embedded
//     Executor's tape for the edge at the ring; intra-thread edges keep the
//     unsynchronized Channel.  Workers fire each actor's reps * B firings
//     of a step with one Executor::fire_run call, once wait_ready has seen
//     their input and room on the rings.  fire_run runs a typed actor's
//     whole run as one dispatch of its one-actor trace (runtime/fused.h):
//     a linear node (an actor whose typed program carries coefficient rows)
//     as one linear-kernel instruction, any other as its template under a
//     FireLoop, reading a ring or a Channel through the same tape table.
//     It loops the embedded Executor's one firing routine for every other
//     actor (and for every actor while tracing, so per-firing events stay
//     per firing).  run_steady keeps the typed actors' state in their
//     traces' planes for the whole call, until the workers
//     join.  ThreadedReport::kernels counts the kernel actors.  A
//     sliding step window (kPipelineWindow) caps how far any worker runs
//     ahead, which bounds ring occupancy so each ring is sized once to the
//     exact static bound analysis::channel_bounds computes: post-init level
//     + (window + 1) * B * steady-state traffic.  Debug/observability
//     builds re-check every edge's observed high water against its static
//     bound after the workers join.
//   * Workers are persistent: the first threaded run_steady starts
//     threads - 1 OS threads (the calling thread is worker 0), and they
//     live until the executor is destroyed.  Between calls they park -- a
//     bounded spin, then std::atomic::wait, so an idle executor costs no
//     CPU.  A call publishes its job through a generation counter (release)
//     and waits for a done count (acquire), the happens-before join() gave.
//   * A graph that is one stateless actor (an AST filter whose work writes
//     no state field, or a native filter not declared stateful -- e.g. FIR
//     and FilterBank after -O2 collapse them) is not partitioned but split:
//     each call's F = reps * n firings go to the workers as contiguous
//     ranges [F*w/T, F*(w+1)/T).  Each worker reads the input Channel
//     through a read-only view starting at its first firing's items (the
//     peek windows overlap; nobody pops the channel during the run), writes
//     its own output buffer, and fires with its own state: its own
//     TypedFusedExec over the actor's one-actor trace, its own native state
//     clone, or its own copy of the state for the tree interpreter.  A
//     share's trace runs all its firings in one dispatch; otherwise (and
//     while tracing) the lane fires through Executor::fire_work, the
//     routine the sequential executor fires the actor with.  The
//     calling thread then appends the outputs in worker order, pops the
//     F * pop input items, and adds the firings and OpCounts, so every
//     firing runs the code it runs sequentially and outputs, OpCounts and
//     channel counters stay bit-equal.  A call whose input is short, or
//     whose shares fault or pop other than the declared rate, runs again on
//     the embedded executor (run_steady_epochs), which gives the sequential
//     result or message.
//     ThreadedReport::split is the number of workers sharing the actor.
//   * Deadlock freedom: induction over (step, topo position).  The earliest
//     unfinished firing's data waits point only at strictly smaller
//     (step, topo) pairs (back edges carry the previous step's items, and
//     analysis::ChannelBounds::max_batch caps B so every back edge's delay
//     covers a whole batch) and its space waits at consumers of strictly
//     smaller pairs, so some actor can always proceed.
//
// Determinism: every actor's state, tally, and every channel's FIFO content
// have exactly one owner thread (a split actor writes no state, and only the
// calling thread touches its channels and tallies), so outputs, final filter
// state, and the cumulative push/pop counters are bit-equal to the
// sequential executor (tests/test_texec.cc holds this differentially).
//
// Out of scope -- these run the program on the embedded Executor as is,
// sequentially and with the requested engine (see
// ThreadedReport::fallback_reason): thread counts <= 1, teleport messaging
// (handlers, Send statements, or an attached message_sink: delivery points
// are defined against the sequential schedule), a graph that is one
// stateful actor (too-few-actors: its firings depend on each other), and
// graphs whose steady state admits no single-appearance topological
// schedule (checked statically from the post-init channel counts; e.g.
// tight feedback loops whose delay cannot cover a whole iteration).
// Splitting a stateless actor inside a multi-actor partition is not done.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds_chan.h"
#include "ir/graph.h"
#include "runtime/channel.h"
#include "runtime/flatgraph.h"
#include "runtime/spsc.h"
#include "sched/exec.h"
#include "sched/schedule.h"

namespace sit::sched {

// Max pipeline steps (batches of `batch` steady iterations) any worker may
// run ahead of the slowest worker.  Bounds every ring's occupancy at exactly
// analysis::ChannelBounds::pipelined(e, kPipelineWindow, batch), which is
// how the executor sizes each ring; small values lose pipelining slack,
// large values cost memory.  Public so tools and tests can reproduce the
// ring bound.
inline constexpr int kPipelineWindow = 4;

// Why a ThreadedExecutor fell back to the embedded sequential Executor.
// The enum and its to_string names are a stable interface -- streamprof
// prints them and tests pin them; ThreadedReport::fallback_reason carries
// the human-readable detail (which filter, etc.).
enum class FallbackReason {
  None,                // running threaded
  OneThread,           // one worker requested (or SIT_THREADS unset)
  MessageSink,         // teleport message sink attached
  TeleportHandlers,    // some filter declares message handlers
  TeleportSends,       // some filter sends teleport messages
  TooFewActors,        // one stateful actor (or none): nothing to split
  InterleavedFirings,  // no single-appearance steady schedule exists
};

// Stable kebab-case name: "none", "one-thread", "message-sink",
// "teleport-handlers", "teleport-sends", "too-few-actors",
// "interleaved-firings".
const char* to_string(FallbackReason r);

// The placement planner's weight of one firing of `a`, in the machine
// model's cycles: a filter's or native's linear::calibrated_ops_per_firing
// (measured where the active cost profile covers the actor, the static
// estimate otherwise), and a splitter's or joiner's channel traffic as
// Executor::fire tallies it (the sum of its rates, at the channel weight).
double firing_weight(const runtime::FlatActor& a);

// How a ThreadedExecutor decided to run; owner/ring/batch/speedup fields
// are populated once the placement is planned (at the end of run_init).
struct ThreadedReport {
  bool threaded{false};
  int threads{1};               // workers actually used
  FallbackReason fallback{FallbackReason::None};
  std::string fallback_reason;  // human-readable detail; empty when threaded
  std::vector<int> owner;       // actor index -> worker id
  int ring_edges{0};            // edges migrated to SPSC rings
  int batch{1};                 // steady iterations per pipeline step
  int kernels{0};               // actors firing as coefficient kernels
  // Workers sharing a lone stateless actor's firings (0: the graph's actors
  // are partitioned instead).
  int split{0};
  double predicted_speedup{0};  // machine-model estimate for this placement

  // One-line summary: "threaded threads=4 ring-edges=3 batch=8 kernels=0
  // split=0 speedup=2.71" or "sequential fallback=teleport-handlers (filter
  // 'F' has teleport handlers)".
  [[nodiscard]] std::string to_string() const;
};

class ThreadedExecutor {
 public:
  // Graph-taking form (equivalent to ThreadedExecutor(lower(root), opts)).
  explicit ThreadedExecutor(ir::NodeP root, ExecOptions opts = {});

  // Artifact-taking form: consume a pipeline-compiled program -- no
  // re-analysis/flatten/schedule.  opts.engine / opts.threads of Auto / 0
  // fall back to the program's resolved choice before consulting the
  // environment; the embedded Executor is built from the same artifact.
  explicit ThreadedExecutor(CompiledProgram prog, ExecOptions opts = {});
  ~ThreadedExecutor();

  [[nodiscard]] const runtime::FlatGraph& graph() const;
  [[nodiscard]] const Schedule& schedule() const;

  // External input -- same contract as Executor.  Only callable between
  // run_* calls (no worker is running then).
  void feed_input(const std::vector<double>& items);
  void set_input_generator(std::function<double(std::int64_t)> gen);

  // The init epoch, then (threaded) the placement plan; idempotent.
  void run_init();
  // Run `n` steady states (init happens on first demand); returns the items
  // pushed to the program output.
  std::vector<double> run_steady(int n);
  std::vector<double> take_output();

  // The engine driving the actors (Auto already resolved).
  [[nodiscard]] Engine engine() const;
  [[nodiscard]] const std::vector<std::int64_t>& firings() const;
  [[nodiscard]] const std::vector<runtime::OpCounts>& actor_ops() const;
  [[nodiscard]] runtime::OpCounts total_ops() const;
  runtime::FilterState& filter_state(int actor);
  // Cumulative per-edge counters -- n(t)/p(t), regardless of whether the
  // edge lives on a Channel or was migrated to a ring.
  [[nodiscard]] std::int64_t edge_pushed(int edge) const;
  [[nodiscard]] std::int64_t edge_popped(int edge) const;

  [[nodiscard]] const ThreadedReport& report() const { return report_; }

  // The static per-edge occupancy bounds the executor sized its storage
  // from (analysis::channel_bounds over the compiled schedule).  Rings are
  // sized to bounds().pipelined(e, kPipelineWindow, report().batch);
  // intra-worker channels never exceed
  // bounds().channel_bound(e, report().batch).  The embedded executor's
  // copy, computed once per program.
  [[nodiscard]] const analysis::ChannelBounds& bounds() const {
    return exec_->bounds();
  }

  // --- observability --------------------------------------------------------
  // Null unless tracing is enabled; the embedded executor's recorder, which
  // also holds the per-worker stats when threaded.
  [[nodiscard]] obs::Recorder* recorder() noexcept {
    return exec_->recorder();
  }
  // Quiescent snapshot (only call between run_* calls).  Reports the
  // planned weights (reps * firing_weight, 0 before run_init) as per-actor
  // cycle weights and attributes each actor to its owning worker.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  FallbackReason refusal_reason(const runtime::FlatGraph& g,
                                const analysis::ChannelBounds& bounds,
                                std::string* detail) const;
  [[nodiscard]] obs::Recorder* rec() const { return exec_->rec_.get(); }
  // Weigh the actors and, unless split, place them, size the batch and the
  // rings and fill the report: once, after the init epoch.
  void plan();
  // Resolve the batch factor for this placement: explicit requests clamp to
  // the static max_batch; auto sizes from cross-edge traffic, the planned
  // weights, and a ring-memory cap.
  int resolve_partition_batch() const;
  void run_threaded(int iters);
  void worker(int w, std::int64_t first, std::int64_t last) noexcept;

  // --- persistent workers ---------------------------------------------------
  // Run worker w's share of the current call on every worker -- the pool's
  // threads_ - 1 threads and the calling thread as worker 0 -- and return
  // once all of them have finished.  Starts the pool on first use.
  void run_on_workers();
  void run_share(int w) noexcept;
  void pool_loop(int w, std::uint32_t seen) noexcept;
  void stop_pool() noexcept;

  // --- the lone stateless actor's split --------------------------------------
  struct Lane;
  void run_split(int n);
  void run_lane(int w) noexcept;
  void wait_ready(int actor, std::int64_t chunk, obs::ThreadBuffer* tb,
                  std::int64_t* wait_ns);
  void stage_input(std::int64_t last_iter, std::int64_t chunk);
  std::int64_t min_completed() const;
  void check_bounds() const;  // throws if occupancy exceeded a static bound

  ExecOptions opts_;
  ThreadedReport report_;
  // The per-actor execution core (storage, bindings, init, input feed,
  // firing, tallies, recorder), threaded or not.  Never null.
  std::unique_ptr<Executor> exec_;

  // Rings replacing the cross-worker edges' channels (null elsewhere).
  std::vector<std::unique_ptr<runtime::SpscRing>> rings_;

  // Stall detector (resolved from ExecOptions / SIT_STALL_MS at
  // construction; < 0 = never abort).
  int stall_ms_{120000};

  // Frozen by plan().
  int threads_{1};
  int batch_{1};                 // steady iterations per pipeline step
  std::int64_t steps_run_{0};    // pipeline steps completed across run_* calls
  std::vector<double> cost_;              // actor -> reps * firing_weight
  std::vector<int> owner_;                // actor -> worker
  std::vector<std::vector<int>> plan_;    // worker -> actors, global topo order
  int input_owner_{-1};

  struct alignas(64) PaddedCounter {
    std::atomic<std::int64_t> v{0};
  };
  std::vector<std::unique_ptr<PaddedCounter>> completed_;
  std::atomic<bool> abort_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;

  // The persistent pool: workers 1..threads_-1, parked between calls.  A
  // call writes its job (job_first_/job_last_, or the lanes), bumps gen_
  // (release) and waits for done_ to reach threads_ - 1 (acquire), which
  // orders the workers' writes before the caller's reads as join() did.
  std::vector<std::thread> pool_;
  alignas(64) std::atomic<std::uint32_t> gen_{0};
  alignas(64) std::atomic<int> done_{0};
  bool stop_{false};  // written before a gen_ bump, read after one
  std::int64_t job_first_{0}, job_last_{0};

  // Workers sharing the lone actor's run (0: not split), and their lanes
  // (made at the first split call).
  int split_{0};
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace sit::sched
