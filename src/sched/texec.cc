#include "sched/texec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "analysis/analyze.h"
#include "ir/filter.h"
#include "linear/cost.h"
#include "machine/machine.h"
#include "obs/trace.h"

namespace sit::sched {

using runtime::Channel;
using runtime::FlatActor;
using runtime::OpCounts;
using runtime::SpscRing;

namespace {

// Local alias for the public window constant (texec.h).
constexpr int kWindow = kPipelineWindow;

// Auto-batch tuning (resolve_partition_batch).  The heuristic picks the
// smallest batch that (a) moves at least kBatchTargetItems items per ring
// publish on the thinnest cross-worker edge and (b) gives each worker at
// least kBatchTargetCycles weighted cycles of work per pipeline step, then
// caps it so total ring storage stays under kBatchMemCapDoubles and the
// factor under kMaxAutoBatch.
constexpr std::int64_t kBatchTargetItems = 256;
constexpr double kBatchTargetCycles = 100000.0;
constexpr std::int64_t kMaxAutoBatch = 1024;
constexpr std::int64_t kBatchMemCapDoubles = 1 << 21;  // 16 MiB of ring slots

#ifndef NDEBUG
constexpr bool kDebugBuild = true;
#else
constexpr bool kDebugBuild = false;
#endif

// Thrown inside a worker when another worker already failed; swallowed after
// the join (only the first error is reported).
struct Aborted {};

// Busy iterations a spin wait makes before it starts yielding.
constexpr int kSpinBeforeYield = 128;

// Spin with backoff until `ready()`.  Cooperative: yields after
// kSpinBeforeYield busy iterations so oversubscribed hosts (more workers
// than cores) keep making progress, and bails out if another worker aborted
// or nothing happened for `stall_ms` milliseconds (a bug's infinite hang
// becomes a test failure instead); stall_ms < 0 disables the abort.
template <typename Pred>
void spin_until(const std::atomic<bool>& abort, Pred&& ready, const char* what,
                int stall_ms) {
  int spins = 0;
  std::chrono::steady_clock::time_point started{};
  while (!ready()) {
    if (abort.load(std::memory_order_acquire)) throw Aborted{};
    if (++spins < kSpinBeforeYield) continue;
    std::this_thread::yield();
    if (stall_ms >= 0 && (spins & 2047) == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (started == std::chrono::steady_clock::time_point{}) {
        started = now;
      } else if (now - started > std::chrono::milliseconds(stall_ms)) {
        throw std::runtime_error(std::string("threaded runtime stalled: ") +
                                 what);
      }
    }
  }
}

// spin_until plus stall-interval tracing: a WaitBegin/WaitEnd pair brackets
// the spin (emitted only when the predicate is not already satisfied, so an
// uncontended wait stays event-free), and the waited nanoseconds accumulate
// into *wait_ns for the worker's utilization accounting.
template <typename Pred>
void traced_spin(const std::atomic<bool>& abort, Pred&& ready, const char* what,
                 int stall_ms, obs::ThreadBuffer* tb, obs::Recorder* rec,
                 std::int64_t* wait_ns, std::int32_t id, obs::WaitKind wk) {
  if (ready()) return;
  if (tb == nullptr) {
    spin_until(abort, ready, what, stall_ms);
    return;
  }
  const std::int64_t t0 = rec->now_ns();
  tb->emit(t0, obs::EventKind::WaitBegin, id, static_cast<std::int64_t>(wk));
  try {
    spin_until(abort, ready, what, stall_ms);
  } catch (...) {
    const std::int64_t ta = rec->now_ns();
    tb->emit(ta, obs::EventKind::WaitEnd, id, static_cast<std::int64_t>(wk));
    *wait_ns += ta - t0;
    throw;
  }
  const std::int64_t t1 = rec->now_ns();
  tb->emit(t1, obs::EventKind::WaitEnd, id, static_cast<std::int64_t>(wk));
  *wait_ns += t1 - t0;
}

// Busy iterations a parked worker (or the caller awaiting the workers)
// makes before it sleeps in std::atomic::wait: back-to-back calls hand work
// over without a futex round trip, and a worker idle for longer costs
// nothing.
constexpr int kParkSpins = 1 << 11;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spin kParkSpins times, then sleep, until `a` no longer holds `old`;
// returns the new value.
template <typename T>
T await_change(const std::atomic<T>& a, T old) {
  T v = a.load(std::memory_order_acquire);
  for (int spins = 0; v == old; ++spins) {
    if (spins < kParkSpins) {
      cpu_relax();
    } else {
      a.wait(old, std::memory_order_acquire);
    }
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

// Whether a lone actor's firings are independent of one another: an AST
// filter whose work writes no state field, or a native filter not declared
// stateful.
bool stateless(const FlatActor& a) {
  switch (a.kind) {
    case FlatActor::Kind::Filter:
      return !ir::writes_state(a.node->filter);
    case FlatActor::Kind::Native:
      return !a.node->native.stateful;
    default:
      return false;
  }
}

// A read-only view of a Channel's live items from `base` on: peeks and ring
// views read through to the channel, pops advance only the view.  Items,
// checks and messages are the ones the channel gives a consumer that has
// popped `base` items.
class ChannelView final : public ir::InTape {
 public:
  void reset(Channel* ch, std::size_t base) {
    ch_ = ch;
    base_ = base;
  }
  [[nodiscard]] std::size_t base() const { return base_; }

  double peek_item(int offset) override {
    const std::size_t live = ch_->size() - base_;
    if (offset < 0 || static_cast<std::size_t>(offset) >= live) {
      runtime::buffer_peek_error(offset, live);
    }
    return ch_->peek_item(static_cast<int>(base_) + offset);
  }
  double pop_item() override {
    if (base_ >= ch_->size()) throw std::runtime_error("pop from empty channel");
    return ch_->peek_item(static_cast<int>(base_++));
  }
  void pop_many(int n) override {
    if (n <= 0) return;
    if (base_ + static_cast<std::size_t>(n) > ch_->size()) {
      throw std::runtime_error("pop from empty channel");
    }
    base_ += static_cast<std::size_t>(n);
  }
  bool ring_view(std::size_t n, ir::RingView* v) override {
    ir::RingView w;
    if (!ch_->ring_view(base_ + n, &w)) return false;
    *v = {w.buf, w.head + base_, w.mask};
    return true;
  }

 private:
  Channel* ch_{nullptr};
  std::size_t base_{0};
};

// A worker's outputs, appended to the program's output channel by the
// calling thread.  Reserved for the share's declared pushes on that thread.
class VectorOut final : public ir::OutTape {
 public:
  void push_item(double v) override { items.push_back(v); }
  std::vector<double> items;
};

std::int64_t rate_into(const FlatActor& a, int edge) {
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    if (a.in_edges[p] == edge) return a.in_rate[p];
  }
  return 0;
}

}  // namespace

const char* to_string(FallbackReason r) {
  switch (r) {
    case FallbackReason::None: return "none";
    case FallbackReason::OneThread: return "one-thread";
    case FallbackReason::MessageSink: return "message-sink";
    case FallbackReason::TeleportHandlers: return "teleport-handlers";
    case FallbackReason::TeleportSends: return "teleport-sends";
    case FallbackReason::TooFewActors: return "too-few-actors";
    case FallbackReason::InterleavedFirings: return "interleaved-firings";
  }
  return "?";
}

double firing_weight(const FlatActor& a) {
  if (a.is_filter()) return linear::calibrated_ops_per_firing(*a.node, a.name);
  OpCounts c;
  for (const int r : a.in_rate) c.channel += r;
  for (const int r : a.out_rate) c.channel += r;
  return c.weighted();
}

std::string ThreadedReport::to_string() const {
  if (!threaded) {
    std::string s = std::string("sequential fallback=") +
                    sched::to_string(fallback);
    if (!fallback_reason.empty()) s += " (" + fallback_reason + ")";
    return s;
  }
  char speed[32];
  std::snprintf(speed, sizeof(speed), "%.2f", predicted_speedup);
  return "threaded threads=" + std::to_string(threads) +
         " ring-edges=" + std::to_string(ring_edges) +
         " batch=" + std::to_string(batch) +
         " kernels=" + std::to_string(kernels) +
         " split=" + std::to_string(split) + " speedup=" + speed;
}

ThreadedExecutor::ThreadedExecutor(ir::NodeP root, ExecOptions opts)
    : ThreadedExecutor(lower(std::move(root)), std::move(opts)) {}

ThreadedExecutor::ThreadedExecutor(CompiledProgram prog, ExecOptions opts)
    : opts_(std::move(opts)) {
  const int requested =
      resolve_threads(opts_.threads != 0 ? opts_.threads : prog.threads);
  // One executor either way: a fallback runs the program on it as is, and
  // the threaded path fires its actors per-actor (the whole-graph trace it
  // builds is inherently single-threaded and never runs here).  Its static
  // channel bounds feed the eligibility checks.
  exec_ = std::make_unique<Executor>(std::move(prog), opts_);
  FallbackReason fb = FallbackReason::None;
  std::string detail;
  if (requested <= 1) {
    fb = FallbackReason::OneThread;
    detail = "one thread requested";
  } else if (opts_.message_sink) {
    fb = FallbackReason::MessageSink;
    detail = "teleport message sink attached";
  } else {
    fb = refusal_reason(graph(), bounds(), &detail);
  }
  if (fb != FallbackReason::None) {
    report_.threaded = false;
    report_.threads = 1;
    report_.fallback = fb;
    report_.fallback_reason = detail;
    return;
  }

  // A lone (stateless: refusal_reason) actor's firings are split across
  // all the requested workers; otherwise a worker per actor at most.
  const int actors = static_cast<int>(graph().actors.size());
  threads_ = actors == 1 ? requested : std::min(requested, actors);
  if (actors == 1) {
    split_ = threads_;
    report_.split = split_;
    report_.owner.assign(1, 0);
    // The split's model: equal shares of one actor, nothing communicated.
    report_.predicted_speedup = static_cast<double>(split_);
  }
  report_.threaded = true;
  report_.threads = threads_;
  for (std::size_t i = 0; i < graph().actors.size(); ++i) {
    if (exec_->runs_kernel(static_cast<int>(i))) ++report_.kernels;
  }
  stall_ms_ = resolve_stall_ms(opts_.stall_ms);
  rings_.resize(graph().edges.size());
  // What a snapshot reads before plan(): no weights, every actor on worker
  // 0, and each split worker running the lone actor.
  cost_.assign(graph().actors.size(), 0.0);
  owner_.assign(graph().actors.size(), 0);
  plan_.assign(static_cast<std::size_t>(threads_),
               split_ > 0 ? std::vector<int>{0} : std::vector<int>{});
  if (rec() != nullptr) rec()->attach_workers(static_cast<std::size_t>(threads_));
}

// A lone actor's share of one call on one worker: a read-only view of the
// input from the share's first firing on, its own output buffer, and its
// own firing state -- a typed actor's one-actor trace over the executor's
// tape table with the two edges swapped for these, a native actor's state
// clone, or a copy of an AST filter's state for the tree interpreter.
struct alignas(64) ThreadedExecutor::Lane {
  ChannelView in;
  VectorOut out;
  std::vector<ir::InTape*> in_tapes;
  std::vector<ir::OutTape*> out_tapes;
  std::unique_ptr<runtime::TypedFusedExec> fx;
  std::unique_ptr<ir::NativeState> native;
  runtime::FilterState state;
  // This call's share and its results.
  std::int64_t lo{0}, hi{0};
  OpCounts counts;
  obs::FiringStats stats;
  bool failed{false};
};

ThreadedExecutor::~ThreadedExecutor() { stop_pool(); }

FallbackReason ThreadedExecutor::refusal_reason(
    const runtime::FlatGraph& g, const analysis::ChannelBounds& bounds,
    std::string* detail) const {
  for (const auto& a : g.actors) {
    if (a.kind != FlatActor::Kind::Filter) continue;
    const ir::FilterSpec& spec = a.node->filter;
    if (!spec.handlers.empty()) {
      *detail = "filter '" + spec.name + "' has teleport handlers";
      return FallbackReason::TeleportHandlers;
    }
    if (ir::stmt_sends(spec.work) || ir::stmt_sends(spec.init)) {
      *detail = "filter '" + spec.name + "' sends teleport messages";
      return FallbackReason::TeleportSends;
    }
  }
  if (g.actors.empty()) {
    *detail = "graph has no actors";
    return FallbackReason::TooFewActors;
  }
  if (g.actors.size() == 1 && !stateless(g.actors[0])) {
    *detail = "the graph's one actor '" + g.actors[0].name + "' keeps state";
    return FallbackReason::TooFewActors;
  }

  // Single-appearance schedulability: delegated to the static channel-bound
  // analysis, which simulates one steady state in the global topological
  // order with each actor firing its full repetition count at once, starting
  // from the post-init channel populations.  If any actor comes up short,
  // the graph needs interleaved firings (e.g. a tight feedback loop) and
  // stays sequential.
  if (!bounds.single_appearance) {
    *detail = "actor '" + bounds.blocker +
              "' needs interleaved firings in the steady state";
    return FallbackReason::InterleavedFirings;
  }
  return FallbackReason::None;
}

// ---- delegating accessors ---------------------------------------------------

const runtime::FlatGraph& ThreadedExecutor::graph() const {
  return exec_->graph();
}
const Schedule& ThreadedExecutor::schedule() const { return exec_->schedule(); }
Engine ThreadedExecutor::engine() const { return exec_->engine(); }
const std::vector<std::int64_t>& ThreadedExecutor::firings() const {
  return exec_->firings();
}
const std::vector<OpCounts>& ThreadedExecutor::actor_ops() const {
  return exec_->actor_ops();
}
OpCounts ThreadedExecutor::total_ops() const { return exec_->total_ops(); }
runtime::FilterState& ThreadedExecutor::filter_state(int actor) {
  return exec_->filter_state(actor);
}
std::int64_t ThreadedExecutor::edge_pushed(int edge) const {
  const auto e = static_cast<std::size_t>(edge);
  return report_.threaded && rings_[e] ? rings_[e]->total_pushed()
                                       : exec_->channel(edge).total_pushed();
}
std::int64_t ThreadedExecutor::edge_popped(int edge) const {
  const auto e = static_cast<std::size_t>(edge);
  return report_.threaded && rings_[e] ? rings_[e]->total_popped()
                                       : exec_->channel(edge).total_popped();
}

void ThreadedExecutor::feed_input(const std::vector<double>& items) {
  exec_->feed_input(items);
}

void ThreadedExecutor::set_input_generator(
    std::function<double(std::int64_t)> gen) {
  exec_->set_input_generator(std::move(gen));
}

void ThreadedExecutor::run_init() {
  if (exec_->init_done_) return;
  exec_->run_init();
  if (report_.threaded) plan();
}

// ---- planning ---------------------------------------------------------------

void ThreadedExecutor::plan() {
  const runtime::FlatGraph& g = graph();
  const Schedule& sched = schedule();
  const std::size_t n = g.actors.size();
  // One steady state's static cost per actor; the init epoch adds nothing.
  for (std::size_t i = 0; i < n; ++i) {
    cost_[i] = static_cast<double>(sched.reps[i]) * firing_weight(g.actors[i]);
  }
  if (split_ > 0) return;

  // Longest-processing-time greedy: heaviest actor to the least loaded
  // worker.  Classic 4/3-approximate makespan balancing.
  std::vector<std::size_t> by_cost(n);
  std::iota(by_cost.begin(), by_cost.end(), std::size_t{0});
  std::sort(by_cost.begin(), by_cost.end(), [&](std::size_t x, std::size_t y) {
    return cost_[x] > cost_[y];
  });
  std::vector<double> load(static_cast<std::size_t>(threads_), 0.0);
  for (std::size_t i : by_cost) {
    const auto b = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner_[i] = static_cast<int>(b);
    load[b] += cost_[i];
  }

  // Affinity pass: an actor that costs a rounding error of the balance
  // target buys nothing by sitting on its "own" worker but costs a ring
  // crossing per neighbor.  Glue such actors to their heaviest neighbor.
  const double total = std::accumulate(cost_.begin(), cost_.end(), 0.0);
  const double feather = 0.01 * total / static_cast<double>(threads_);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cost_[i] > feather) continue;
      int best = -1;
      double best_cost = -1.0;
      for (const auto& e : g.edges) {
        int nb = -1;
        if (e.src == static_cast<int>(i)) nb = e.dst;
        if (e.dst == static_cast<int>(i)) nb = e.src;
        if (nb >= 0 && cost_[static_cast<std::size_t>(nb)] > best_cost) {
          best_cost = cost_[static_cast<std::size_t>(nb)];
          best = nb;
        }
      }
      if (best >= 0) owner_[i] = owner_[static_cast<std::size_t>(best)];
    }
  }

  // Compact worker ids (LPT bins or the affinity pass may empty some) and
  // freeze each worker's firing plan in global topological order.
  std::vector<int> remap(static_cast<std::size_t>(threads_), -1);
  int used = 0;
  for (int actor : sched.order) {
    int& slot = remap[static_cast<std::size_t>(owner_[static_cast<std::size_t>(actor)])];
    if (slot < 0) slot = used++;
  }
  threads_ = used;
  plan_.assign(static_cast<std::size_t>(threads_), {});
  for (std::size_t i = 0; i < n; ++i) {
    owner_[i] = remap[static_cast<std::size_t>(owner_[i])];
  }
  for (int actor : sched.order) {
    plan_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(actor)])]
        .push_back(actor);
  }
  input_owner_ = g.input_edge >= 0
                     ? owner_[static_cast<std::size_t>(
                           g.edges[static_cast<std::size_t>(g.input_edge)].dst)]
                     : -1;

  // Freeze the batch factor for this placement (explicit request or auto
  // heuristic, both clamped to the static max_batch) before sizing storage.
  batch_ = resolve_partition_batch();

  // Migrate cross-thread edges from Channel to SPSC rings in deferred
  // (bulk-publication) mode, carrying the post-init items over, sized to
  // the exact static occupancy bound:
  // post-init level plus (window + 1) steps of batch * traffic -- the
  // producer of step s may run while the slowest consumer has completed
  // only step s - 1 - kWindow, so at most window + 1 steps of production
  // sit live on top of the steady level.  The sized ring never rejects a
  // push (check_bounds re-verifies this against observed high water).  The
  // embedded executor keeps the drained channel but fires through the ring.
  int ring_edges = 0;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& ed = g.edges[e];
    if (ed.src < 0 || ed.dst < 0) continue;
    if (owner_[static_cast<std::size_t>(ed.src)] ==
        owner_[static_cast<std::size_t>(ed.dst)]) {
      continue;
    }
    Channel& ch = exec_->channel(static_cast<int>(e));
    const std::int64_t pushed = ch.total_pushed();
    const std::int64_t popped = ch.total_popped();
    std::vector<double> live;
    live.reserve(ch.size());
    while (!ch.empty()) live.push_back(ch.pop_item());
    const std::size_t cap =
        static_cast<std::size_t>(bounds().pipelined(e, kWindow, batch_));
    auto ring = std::make_unique<SpscRing>(cap, /*deferred=*/true);
    ring->preload(live, pushed, popped);
    exec_->retarget(static_cast<int>(e), ring.get(), ring.get());
    rings_[e] = std::move(ring);
    ++ring_edges;
  }

  // Per-worker progress counters for the sliding window, counting completed
  // pipeline steps (batches), not raw iterations.
  for (int w = 0; w < threads_; ++w) {
    auto c = std::make_unique<PaddedCounter>();
    c->v.store(0, std::memory_order_relaxed);
    completed_.push_back(std::move(c));
  }

  report_.threads = threads_;
  report_.owner = owner_;
  report_.ring_edges = ring_edges;
  report_.batch = batch_;

  // Machine-model sanity estimate for this placement: a T x 1 grid versus
  // everything on one core, software-pipelined.
  std::vector<machine::PlacedActor> pa;
  pa.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    machine::PlacedActor p;
    p.name = g.actors[i].name;
    p.core = owner_[i];
    p.compute_cycles = cost_[i];
    pa.push_back(std::move(p));
  }
  std::vector<machine::PlacedEdge> pe;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& ed = g.edges[e];
    machine::PlacedEdge p;
    p.src_actor = ed.src;
    p.dst_actor = ed.dst;
    p.items = static_cast<double>(sched.edge_traffic[e]);
    p.back_edge = ed.back_edge;
    pe.push_back(p);
  }
  machine::MachineConfig par_cfg;
  par_cfg.grid_w = threads_;
  par_cfg.grid_h = 1;
  const auto par = machine::simulate(par_cfg, pa, pe, machine::ExecMode::Pipelined);
  std::vector<machine::PlacedActor> pa_one = pa;
  for (auto& p : pa_one) p.core = 0;
  machine::MachineConfig one_cfg;
  one_cfg.grid_w = 1;
  one_cfg.grid_h = 1;
  const auto seq = machine::simulate(one_cfg, pa_one, pe, machine::ExecMode::Pipelined);
  report_.predicted_speedup =
      par.cycles_per_steady > 0 ? seq.cycles_per_steady / par.cycles_per_steady
                                : 0.0;
}

int ThreadedExecutor::resolve_partition_batch() const {
  std::int64_t b = resolve_batch(opts_.batch);
  if (b < 0) {
    // Auto: amortize each ring publish and each window advance.  Both
    // targets look at this placement's cross-worker edges; a placement with
    // none (single effective worker slices never happen here, but affinity
    // can glue everything contiguous) needs no batching.
    const runtime::FlatGraph& g = graph();
    std::int64_t min_traffic = 0;
    std::int64_t sum_traffic = 0;
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const auto& ed = g.edges[e];
      if (ed.src < 0 || ed.dst < 0) continue;
      if (owner_[static_cast<std::size_t>(ed.src)] ==
          owner_[static_cast<std::size_t>(ed.dst)]) {
        continue;
      }
      const std::int64_t t =
          std::max<std::int64_t>(1, schedule().edge_traffic[e]);
      min_traffic = min_traffic == 0 ? t : std::min(min_traffic, t);
      sum_traffic += t;
    }
    if (min_traffic == 0) {
      b = 1;
    } else {
      const double total = std::accumulate(cost_.begin(), cost_.end(), 0.0);
      const double per_worker =
          std::max(1.0, total / static_cast<double>(threads_));
      const std::int64_t b_items =
          (kBatchTargetItems + min_traffic - 1) / min_traffic;
      const auto b_cycles =
          static_cast<std::int64_t>(std::ceil(kBatchTargetCycles / per_worker));
      b = std::max<std::int64_t>({1, b_items, b_cycles});
      // Ring storage grows linearly in the batch: cap the total at
      // kBatchMemCapDoubles across all rings.
      const std::int64_t per_b = (kWindow + 1) * sum_traffic;
      if (per_b > 0) b = std::min(b, std::max<std::int64_t>(1, kBatchMemCapDoubles / per_b));
      b = std::min(b, kMaxAutoBatch);
    }
  }
  // A back edge whose delay cannot cover B iterations caps the batch (the
  // eligibility check already guaranteed max_batch >= 1).
  b = std::min(b, bounds().max_batch);
  return static_cast<int>(std::max<std::int64_t>(1, b));
}

// ---- the threaded steady state ----------------------------------------------

std::int64_t ThreadedExecutor::min_completed() const {
  std::int64_t m = completed_[0]->v.load(std::memory_order_acquire);
  for (std::size_t w = 1; w < completed_.size(); ++w) {
    m = std::min(m, completed_[w]->v.load(std::memory_order_acquire));
  }
  return m;
}

void ThreadedExecutor::wait_ready(int actor, std::int64_t chunk,
                                  obs::ThreadBuffer* tb,
                                  std::int64_t* wait_ns) {
  const auto ai = static_cast<std::size_t>(actor);
  const FlatActor& a = graph().actors[ai];
  const std::int64_t reps = schedule().reps[ai];
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    const int eid = a.in_edges[p];
    if (eid < 0 || !rings_[static_cast<std::size_t>(eid)]) continue;
    SpscRing& r = *rings_[static_cast<std::size_t>(eid)];
    std::int64_t need = reps * chunk * a.in_rate[p];
    if (a.is_filter()) need += a.peek_extra;
    const auto un = static_cast<std::size_t>(need);
    traced_spin(abort_, [&] { return r.can_pop(un); }, "waiting for input data",
                stall_ms_, tb, rec(), wait_ns, actor, obs::WaitKind::Input);
  }
  for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
    const int eid = a.out_edges[p];
    if (eid < 0 || !rings_[static_cast<std::size_t>(eid)]) continue;
    SpscRing& r = *rings_[static_cast<std::size_t>(eid)];
    const auto room = static_cast<std::size_t>(reps * chunk * a.out_rate[p]);
    traced_spin(abort_, [&] { return r.can_push(room); },
                "waiting for output space", stall_ms_, tb, rec(), wait_ns,
                actor, obs::WaitKind::Space);
  }
}

void ThreadedExecutor::stage_input(std::int64_t last_iter, std::int64_t chunk) {
  const runtime::FlatGraph& g = graph();
  const Schedule& sched = schedule();
  exec_->ensure_input_for(sched.input_for_init +
                          last_iter * sched.input_per_steady);
  // Whether fed explicitly or generated, this whole step's quota must be
  // present now -- the consumer pops from a plain Channel nobody refills
  // mid-step.
  const auto dst = static_cast<std::size_t>(
      g.edges[static_cast<std::size_t>(g.input_edge)].dst);
  const FlatActor& d = g.actors[dst];
  std::int64_t need = sched.reps[dst] * chunk * rate_into(d, g.input_edge);
  if (d.is_filter()) need += d.peek_extra;
  if (static_cast<std::int64_t>(exec_->channel(g.input_edge).size()) < need) {
    throw std::runtime_error(
        "runtime deadlock: external input starved (feed_input more items or "
        "set an input generator)");
  }
}

void ThreadedExecutor::worker(int w, std::int64_t first,
                              std::int64_t last) noexcept {
  // Each worker owns one thread buffer and one WorkerStats slot (worker 0
  // runs on the main thread and shares the embedded executor's buffer with
  // the init epoch, which never runs concurrently with workers).
  obs::Recorder* const rec = this->rec();
  obs::ThreadBuffer* tb = nullptr;
  std::int64_t t_start = 0;
  std::int64_t wait_ns = 0;
  std::int64_t iters_done = 0;
  if (rec != nullptr) {
    tb = w == 0 ? exec_->trace_buffer() : rec->thread_buffer(w);
    t_start = rec->now_ns();
  }
  const runtime::FlatGraph& g = graph();
  const std::vector<std::int64_t>& reps = schedule().reps;
  try {
    // Walk the run's iterations in steps of `batch_` (the final step may be
    // a remainder chunk); every worker derives the same step boundaries from
    // (first, last, batch_), and the window counters count steps.
    std::int64_t step = steps_run_;
    for (std::int64_t lo = first; lo <= last; lo += batch_) {
      const std::int64_t hi = std::min<std::int64_t>(last, lo + batch_ - 1);
      const std::int64_t chunk = hi - lo + 1;
      ++step;
      // Sliding window: run at most kWindow steps ahead of the slowest
      // worker, which bounds every ring's occupancy.
      traced_spin(abort_,
                  [&] { return min_completed() >= step - 1 - kWindow; },
                  "iteration window", stall_ms_, tb, rec, &wait_ns, -1,
                  obs::WaitKind::Window);
      if (w == input_owner_) stage_input(hi, chunk);
      for (int actor : plan_[static_cast<std::size_t>(w)]) {
        wait_ready(actor, chunk, tb, &wait_ns);
        const auto ai = static_cast<std::size_t>(actor);
        const FlatActor& a = g.actors[ai];
        OpCounts* counts = opts_.count_ops ? &exec_->ops_[ai] : nullptr;
        exec_->fire_run(actor, reps[ai] * chunk, counts, tb);
        // Bulk publication: one release store per ring per step makes the
        // whole batch of firings visible / returns the whole batch of slots.
        for (const int eid : a.out_edges) {
          if (eid >= 0 && rings_[static_cast<std::size_t>(eid)]) {
            rings_[static_cast<std::size_t>(eid)]->publish_tail();
          }
        }
        for (const int eid : a.in_edges) {
          if (eid >= 0 && rings_[static_cast<std::size_t>(eid)]) {
            rings_[static_cast<std::size_t>(eid)]->publish_head();
          }
        }
      }
      completed_[static_cast<std::size_t>(w)]->v.store(
          step, std::memory_order_release);
      iters_done += chunk;
    }
  } catch (const Aborted&) {
    // Another worker failed first; unwind quietly.
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lk(err_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    abort_.store(true, std::memory_order_release);
  }
  if (rec != nullptr) {
    obs::WorkerStats& ws = rec->worker_stats(w);
    ws.wall_ns += rec->now_ns() - t_start;
    ws.wait_ns += wait_ns;
    ws.iters += iters_done;
  }
}

void ThreadedExecutor::run_threaded(int iters) {
  const std::int64_t first = exec_->steady_run_ + 1;
  const std::int64_t last = exec_->steady_run_ + iters;
  abort_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  job_first_ = first;
  job_last_ = last;
  run_on_workers();
  exec_->steady_run_ = last;
  steps_run_ += (static_cast<std::int64_t>(iters) + batch_ - 1) / batch_;
  if (first_error_) std::rethrow_exception(first_error_);
}

// ---- persistent workers -----------------------------------------------------

void ThreadedExecutor::run_on_workers() {
  if (pool_.empty() && threads_ > 1) {
    pool_.reserve(static_cast<std::size_t>(threads_ - 1));
    const std::uint32_t seen = gen_.load(std::memory_order_relaxed);
    try {
      for (int w = 1; w < threads_; ++w) {
        pool_.emplace_back([this, w, seen] { pool_loop(w, seen); });
      }
    } catch (...) {
      stop_pool();
      throw;
    }
  }
  done_.store(0, std::memory_order_relaxed);
  gen_.fetch_add(1, std::memory_order_release);
  gen_.notify_all();
  run_share(0);
  for (int d = 0; d != threads_ - 1;) d = await_change(done_, d);
}

void ThreadedExecutor::run_share(int w) noexcept {
  if (split_ > 0) {
    run_lane(w);
  } else {
    worker(w, job_first_, job_last_);
  }
}

void ThreadedExecutor::pool_loop(int w, std::uint32_t seen) noexcept {
  for (;;) {
    seen = await_change(gen_, seen);
    if (stop_) return;
    run_share(w);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads_ - 1) {
      done_.notify_one();
    }
  }
}

void ThreadedExecutor::stop_pool() noexcept {
  if (pool_.empty()) return;
  stop_ = true;
  gen_.fetch_add(1, std::memory_order_release);
  gen_.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
  stop_ = false;
}

// ---- the lone stateless actor's split -----------------------------------------

void ThreadedExecutor::run_split(int n) {
  const runtime::FlatGraph& g = graph();
  const Schedule& sched = schedule();
  const FlatActor& a = g.actors[0];
  exec_->ensure_input_for(sched.input_for_init +
                          (exec_->steady_run_ + n) * sched.input_per_steady);
  const std::int64_t fires = sched.reps[0] * n;
  const std::int64_t pop = a.pop_rate();
  Channel* const in = g.input_edge >= 0 ? &exec_->channel(g.input_edge) : nullptr;
  Channel* const out =
      g.output_edge >= 0 ? &exec_->channel(g.output_edge) : nullptr;
  // Short input: the sequential epochs throw the sequential executor's
  // message at the same firing, with the same partial progress.
  if (in != nullptr &&
      static_cast<std::int64_t>(in->size()) < fires * pop + a.peek_extra) {
    exec_->run_steady_epochs(n);
    return;
  }

  if (lanes_.empty()) {
    for (int w = 0; w < split_; ++w) {
      auto l = std::make_unique<Lane>();
      l->in_tapes.assign(g.edges.size(), nullptr);
      l->out_tapes.assign(g.edges.size(), nullptr);
      if (g.input_edge >= 0) {
        l->in_tapes[static_cast<std::size_t>(g.input_edge)] = &l->in;
      }
      if (g.output_edge >= 0) {
        l->out_tapes[static_cast<std::size_t>(g.output_edge)] = &l->out;
      }
      if (exec_->actor_uses_vm(0)) {
        l->fx = std::make_unique<runtime::TypedFusedExec>(
            exec_->actor_trace_[0], std::span(&exec_->fstate_[0], 1),
            l->in_tapes, l->out_tapes);
      }
      if (exec_->nstate_[0]) l->native = exec_->nstate_[0]->clone();
      lanes_.push_back(std::move(l));
    }
  }

  // The shares, in firing order: worker w fires [F*w/T, F*(w+1)/T).  Trace
  // activation mirrors the (unwritten) state into each lane's planes; a
  // lane whose activation refuses runs its share on the tree, on a copy.
  for (int w = 0; w < split_; ++w) {
    Lane& l = *lanes_[static_cast<std::size_t>(w)];
    l.lo = fires * w / split_;
    l.hi = fires * (w + 1) / split_;
    if (in != nullptr) l.in.reset(in, static_cast<std::size_t>(l.lo * pop));
    l.out.items.clear();
    l.out.items.reserve(static_cast<std::size_t>((l.hi - l.lo) * a.push_rate()));
    l.counts = OpCounts{};
    l.stats = obs::FiringStats{};
    l.failed = false;
    if (a.kind == FlatActor::Kind::Filter &&
        (l.fx == nullptr || !l.fx->activate())) {
      l.state = exec_->fstate_[0];
    }
  }
  run_on_workers();
  for (const auto& l : lanes_) {
    if (l->fx) l->fx->deactivate();
  }

  // A share that threw, or popped other than its declared rate (and so read
  // windows the sequential firings would not have), leaves the call to the
  // embedded executor: nothing the lanes did is visible yet, and the
  // sequential run meets the same fault with the same message and partial
  // progress.
  for (const auto& l : lanes_) {
    if (l->failed ||
        (in != nullptr && static_cast<std::int64_t>(l->in.base()) != l->hi * pop)) {
      exec_->run_steady_epochs(n);
      return;
    }
  }
  for (const auto& l : lanes_) {
    if (out != nullptr) out->push_many(l->out.items);
    if (opts_.count_ops) exec_->ops_[0] += l->counts;
    if (rec() != nullptr) rec()->actor_stats(0).merge(l->stats);
  }
  if (in != nullptr) in->pop_many(static_cast<int>(fires * pop));
  exec_->fired_[0] += fires;
  exec_->note_high_water(a);
  exec_->steady_run_ += n;
}

void ThreadedExecutor::run_lane(int w) noexcept {
  Lane& l = *lanes_[static_cast<std::size_t>(w)];
  obs::Recorder* const rec = this->rec();
  obs::ThreadBuffer* tb = nullptr;
  std::int64_t t_start = 0;
  if (rec != nullptr) {
    tb = w == 0 ? exec_->trace_buffer() : rec->thread_buffer(w);
    t_start = rec->now_ns();
  }
  const FlatActor& a = graph().actors[0];
  ir::InTape& in = a.in_edges.empty() ? static_cast<ir::InTape&>(runtime::g_null_in)
                                      : l.in;
  ir::OutTape& out = a.out_edges.empty()
                         ? static_cast<ir::OutTape&>(runtime::g_null_out)
                         : l.out;
  OpCounts* const counts = opts_.count_ops ? &l.counts : nullptr;
  runtime::TypedFusedExec* const x = l.fx && l.fx->active() ? l.fx.get() : nullptr;
  try {
    if (x != nullptr && tb == nullptr) {
      x->fire(counts, l.hi - l.lo);
    } else {
      // One firing at a time, as fire_into fires the actor, on the lane's
      // tapes and state.
      for (std::int64_t k = l.lo; k < l.hi; ++k) {
        const std::int64_t t0 = tb != nullptr ? exec_->trace_begin(tb, 0) : 0;
        Executor::fire_work(a, x, l.state, l.native.get(), in, out, counts,
                            nullptr);
        if (tb != nullptr) exec_->trace_end(tb, 0, t0, &l.stats);
      }
    }
  } catch (...) {
    l.failed = true;  // run_split reruns the call sequentially
  }
  if (rec != nullptr) {
    obs::WorkerStats& ws = rec->worker_stats(w);
    ws.wall_ns += rec->now_ns() - t_start;
    ws.iters += l.hi - l.lo;
  }
}

std::vector<double> ThreadedExecutor::run_steady(int n) {
  if (!report_.threaded) return exec_->run_steady(n);
  run_init();
  if (n <= 0) return take_output();
  exec_->mark_phase(obs::PhaseId::Steady);
  if (split_ > 0) {
    run_split(n);
    return take_output();
  }
  {
    // The typed actors' state lives in their traces' planes until the
    // workers have joined.
    const Executor::Bind bind(*exec_);
    run_threaded(n);
  }
  // With the workers joined, every high-water counter is quiescent; debug
  // and observability builds re-verify the static bounds held.
  if (kDebugBuild || obs::kCompiledIn) check_bounds();
  return take_output();
}

void ThreadedExecutor::check_bounds() const {
  const runtime::FlatGraph& g = graph();
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (bounds().post_init[e] < 0) continue;
    const bool ring = rings_[e] != nullptr;
    const std::int64_t limit = ring
                                   ? bounds().pipelined(e, kWindow, batch_)
                                   : bounds().channel_bound(e, batch_);
    const std::int64_t seen = static_cast<std::int64_t>(
        ring ? rings_[e]->high_water()
             : exec_->channel(static_cast<int>(e)).high_water());
    if (seen > limit) {
      const auto& ed = g.edges[e];
      const std::string name =
          g.actors[static_cast<std::size_t>(ed.src)].name + "->" +
          g.actors[static_cast<std::size_t>(ed.dst)].name;
      throw std::logic_error(
          "channel-bound violation on edge '" + name + "' (" +
          (ring ? "ring" : "channel") + "): observed peak " +
          std::to_string(seen) + " items exceeds static bound " +
          std::to_string(limit));
    }
  }
}

// The output edge's consumer is external, so it is never migrated to a ring;
// the producing worker has joined by the time the caller drains it.
std::vector<double> ThreadedExecutor::take_output() {
  return exec_->take_output();
}

obs::MetricsSnapshot ThreadedExecutor::metrics_snapshot() const {
  obs::MetricsSnapshot m = exec_->metrics_snapshot();
  if (!report_.threaded) {
    // The threaded runtime's reason leads; the embedded executor's
    // whole-graph trace refusal, if any, follows it.
    m.fallback = sched::to_string(report_.fallback);
    const std::string& refused = exec_->fused_refusal();
    m.fallback_detail =
        report_.fallback_reason +
        (refused.empty() ? "" : "; whole-graph trace refused: " + refused);
    return m;
  }

  // The embedded executor filled in everything per-actor (engine, firings,
  // ops, typed tables, timings, edge names and content tags); overwrite only
  // what the threaded runtime owns.  No whole-graph trace runs here.
  m.fallback = "none";
  m.fallback_detail.clear();
  m.fused_channels = -1;
  m.fused_pass = -1;
  m.fused_super.clear();
  m.threads = threads_;
  m.batch = batch_;
  m.threaded = true;
  m.predicted_speedup = report_.predicted_speedup;
  for (std::size_t i = 0; i < m.actors.size(); ++i) {
    // The planner's weight, whether or not per-firing counting is on.
    m.actors[i].calib_cycles = cost_[i];
    m.actors[i].worker = owner_[i];
  }
  for (std::size_t e = 0; e < m.edges.size(); ++e) {
    obs::EdgeSnapshot& s = m.edges[e];
    s.ring = rings_[e] != nullptr;
    s.pushed = edge_pushed(static_cast<int>(e));
    s.popped = edge_popped(static_cast<int>(e));
    s.peak_items = static_cast<std::int64_t>(
        s.ring ? rings_[e]->high_water()
               : exec_->channel(static_cast<int>(e)).high_water());
    s.bound_items = -1;
    if (bounds().post_init[e] >= 0) {
      s.bound_items = s.ring ? bounds().pipelined(e, kWindow, batch_)
                             : bounds().channel_bound(e, batch_);
    }
  }

  for (int w = 0; w < threads_; ++w) {
    obs::WorkerSnapshot ws;
    ws.id = w;
    ws.actors = static_cast<int>(plan_[static_cast<std::size_t>(w)].size());
    if (rec() != nullptr &&
        static_cast<std::size_t>(w) < rec()->all_worker_stats().size()) {
      const obs::WorkerStats& st =
          rec()->all_worker_stats()[static_cast<std::size_t>(w)];
      ws.wall_ns = st.wall_ns;
      ws.wait_ns = st.wait_ns;
      ws.iters = st.iters;
    }
    m.workers.push_back(ws);
  }
  return m;
}

}  // namespace sit::sched
