#pragma once
// Graph transformations used by the parallelization strategies:
//
//   * fuse_subtree  -- collapse any subtree into a single native filter that
//     executes the subtree's steady state internally (StreamIt filter
//     fusion).  Fusing peeking children introduces internal buffering, so
//     the result is stateful exactly when the paper says it is ("once a
//     peeking filter is fused, it cannot be fissed").
//   * fiss          -- data-parallelize a stateless leaf K ways.  Non-peeking
//     filters fiss into a round-robin split-join; peeking filters fiss with a
//     duplicate splitter and per-replica decimation (the duplication is the
//     synchronization overhead the paper's coarse-grained algorithm weighs).
//   * coarsen_stateless -- fuse maximal regions of stateless, non-peeking
//     actors (the "coarsen granularity" step of coarse-grained data
//     parallelism).
//   * selective_fusion  -- greedily fuse the cheapest adjacent work until the
//     actor count reaches a target (the software-pipelining preparation).

#include <string>

#include "ir/graph.h"

namespace sit::parallel {

// Is this leaf (or subtree) free of mutable state, and does it avoid
// peeking?  Both matter: state forbids fission outright; fusing peeking
// filters manufactures state.
bool leaf_stateful(const ir::Node& leaf);
bool subtree_stateful(const ir::NodeP& node);   // any stateful leaf / feedback
bool subtree_peeks(const ir::NodeP& node);      // any peeking leaf

// Collapse a subtree into one native filter.  The native filter's rates are
// the subtree's per-steady-state external rates; its first firing also
// absorbs the subtree's initialization epoch.
ir::NodeP fuse_subtree(const ir::NodeP& node, const std::string& name);

// Data-parallelize a stateless leaf K ways.  Throws if the leaf is stateful.
ir::NodeP fiss(const ir::NodeP& leaf, int k);

// Fuse maximal stateless non-peeking regions bottom-up.  Returns a new tree.
ir::NodeP coarsen_stateless(const ir::NodeP& root);

// Greedy fusion until at most `target_actors` leaves remain (or no legal
// move is left).  Returns a new tree.
ir::NodeP selective_fusion(const ir::NodeP& root, int target_actors);

// The full coarse-grained data-parallelism transform: coarsen, then fiss
// every stateless leaf whose work share exceeds `min_work_share` by
// min(cores, reps-limit) ways.
ir::NodeP data_parallelize(const ir::NodeP& root, int cores,
                           double min_work_share = 0.01);

// Naive fine-grained data parallelism (the paper's cautionary baseline):
// fiss every stateless filter `cores` ways with no coarsening.
ir::NodeP fine_grained_parallelize(const ir::NodeP& root, int cores);

// Shape a graph into ~one well-sized actor per worker for the batched
// threaded runtime (the `coarsen` pass core): selective-fuse fine-grained
// graphs down to an actor budget (max_actors, defaulting to 4 * threads),
// coarsen maximal stateless regions, then fiss only leaves whose modeled
// work share clears a quarter of a worker (0.25 / threads) -- tiny actors
// never own a partition slice, so fissing them would only buy splitter /
// joiner traffic and ring crossings.  Returns a new tree; identity-shaped
// clone when threads <= 1.
ir::NodeP coarsen_for_threads(const ir::NodeP& root, int threads,
                              int max_actors = 0);

}  // namespace sit::parallel
