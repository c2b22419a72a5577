#pragma once
// Graph-level consistency checks (pass 4).
//
// Three whole-program properties on the flattened actor graph, all decided
// by the scheduler itself (sched::make_schedule), whose ScheduleError is
// reported as a Diagnostic:
//
//  * Steady-state solvability: the SDF balance equations
//    reps[src] * out_rate == reps[dst] * in_rate must admit a positive
//    integer solution.
//
//  * Feedback-loop liveness: the initialization epoch must terminate -- the
//    items enqueued on each back edge (the loop's `delay` / initPath) must
//    cover the peeking demand downstream, otherwise the init firing-count
//    relaxation grows without bound around the cycle.  The diagnostic names
//    every back edge with its initial items.
//
//  * Steady-state liveness: a steady epoch must complete from the post-init
//    channel levels.  A balanced loop can still deadlock when its `delay`
//    enqueues fewer items than the cycle consumes per epoch; the diagnostic
//    names the stuck actors and the back edges.

#include <vector>

#include "analysis/diagnostic.h"
#include "ir/graph.h"

namespace sit::analysis {

// Flattens `root` and schedules it.  Appends diagnostics (pass name
// "rates").  Assumes the program already passed the structural checks of
// ir::check -- malformed graphs that fail to flatten produce a single
// generic error.
void check_graph(const ir::NodeP& root, std::vector<Diagnostic>& out);

}  // namespace sit::analysis
