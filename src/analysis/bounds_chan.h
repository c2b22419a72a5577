#pragma once
// Static per-edge channel bounds for the software-pipelined runtime.
//
// Given a flat graph and its steady-state schedule, channel_bounds() derives
// the exact maximum occupancy of every internal edge under each execution
// discipline the runtime uses:
//
//   * in_order[e] -- peak occupancy when firings are data-driven in the
//     global topological order (the sequential executors, and the threaded
//     runtime's init epoch).  This is the scheduler's own
//     sweep, sched::Schedule::buffer_bound: the init epoch plus two steady
//     states simulated firing for firing as the executors' run_epoch loop
//     fires them, so on in-order runs the observed high-water mark matches
//     this bound exactly.
//
//   * steady-state single-appearance peak -- each actor fires its full
//     repetition count at once, in topo order (one worker iteration of the
//     threaded runtime).  Steady states conserve every edge's level, so the
//     level at each iteration boundary is the post-init level L0 and the
//     in-iteration peak has a closed form: L0 + traffic when the producer
//     precedes the consumer in the firing order (it deposits a full
//     iteration before the consumer drains it), L0 when the consumer fires
//     first (the producer only refills what was drained).
//
//   * pipelined(e, window, batch) -- the cross-worker bound.  The runtime
//     groups `batch` steady-state iterations into one pipeline step, and the
//     sliding window lets a producer enter step P only once every worker has
//     completed step P - 1 - window, so producer and consumer progress
//     differ by at most window + 1 completed steps; each step of lead adds
//     batch steady states' traffic on top of L0:
//
//         max occupancy = L0 + (window + 1) * batch * traffic.
//
//     This is exact (reached when the producer runs a full window ahead and
//     completes its step before the consumer pops), and it is what the
//     ThreadedExecutor sizes each SpscRing to.
//
// Deadlock-freedom is the precondition for all of this: the bounds are
// finite iff the balance equations solve and init + steady scheduling
// succeed, which make_schedule establishes (it throws otherwise).  The
// single_appearance flag reports whether the steady state additionally
// admits the threaded runtime's one-appearance schedule (e.g. a tight
// feedback loop whose delay cannot cover a whole iteration does not); when
// false the runtime falls back to sequential execution and `blocker` names
// the first actor that comes up short.
//
// Batching tightens that admissibility question: a chunk of B iterations
// fires each actor reps * B times at once, so a back edge (consumer before
// producer in topo order) must hold B iterations' worth of delay up front.
// Every per-edge level in the one-appearance simulation is affine in B
// (cnt = c0 + B * c1), so each starvation constraint either holds for all B
// or yields a closed-form ceiling B <= (c0 - peek_extra) / (need1 - c1);
// max_batch is the minimum over those ceilings (kUnboundedBatch when no
// constraint binds, e.g. any DAG).  single_appearance == (max_batch >= 1).
//
// External boundary edges (src or dst == -1) carry no bound: the input edge
// is staged by the feeder (occupancy depends on feed_input batching) and the
// output edge accumulates until the caller drains it.  Their entries are -1.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::analysis {

// max_batch value meaning "no cycle constrains the batch factor".
inline constexpr std::int64_t kUnboundedBatch = 1'000'000'000;

struct ChannelBounds {
  // Per-edge, -1 on the external boundary edges.
  std::vector<std::int64_t> post_init;  // live items after the init epoch (L0)
  std::vector<std::int64_t> traffic;    // items crossing per steady state
  std::vector<std::int64_t> in_order;   // peak under data-driven in-order runs
  std::vector<std::int64_t> steady_single;  // single-appearance iteration peak

  // Threaded-runtime schedulability (see header comment).
  bool single_appearance{true};
  std::string blocker;  // first starved actor when !single_appearance

  // Largest batch factor B for which the one-appearance schedule, fired in
  // chunks of B iterations, is starvation-free (kUnboundedBatch on DAGs;
  // 0 when even B = 1 fails, i.e. !single_appearance).
  std::int64_t max_batch{kUnboundedBatch};

  // Exact ring bound for a producer allowed to run `window` steps of `batch`
  // iterations ahead.
  [[nodiscard]] std::int64_t pipelined(std::size_t e, int window,
                                       std::int64_t batch = 1) const {
    if (post_init[e] < 0) return -1;
    return post_init[e] + (window + 1) * batch * traffic[e];
  }
  // Single-appearance iteration peak when each chunk runs `batch` iterations:
  // a forward edge accumulates `batch` steady states of traffic before the
  // consumer drains it; a back edge still peaks at L0.
  [[nodiscard]] std::int64_t steady_single_batched(std::size_t e,
                                                   std::int64_t batch) const {
    if (steady_single[e] < 0) return -1;
    if (steady_single[e] <= post_init[e]) return steady_single[e];
    return post_init[e] + batch * traffic[e];
  }
  // Bound for an edge that stays on a plain Channel in the threaded runtime:
  // in-order during init, batched single-appearance afterwards.
  [[nodiscard]] std::int64_t channel_bound(std::size_t e,
                                           std::int64_t batch = 1) const {
    const std::int64_t ss = steady_single_batched(e, batch);
    return in_order[e] > ss ? in_order[e] : ss;
  }
};

// Requires a schedule computed from this exact graph (make_schedule output).
ChannelBounds channel_bounds(const runtime::FlatGraph& g,
                             const sched::Schedule& s);

}  // namespace sit::analysis
