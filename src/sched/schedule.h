#pragma once
// SDF scheduling.
//
// From the flat graph we compute:
//   * the minimal steady-state repetition vector (balance equations, solved
//     exactly over the rationals and scaled to the least integer solution);
//   * an initialization firing count per actor that leaves every peeking
//     filter's input with its extra peek window buffered, so that thereafter
//     every steady state can execute with each actor firing exactly its
//     repetition count;
//   * per-edge steady-state traffic and buffer bounds;
//   * the steady-state firing sequence, as runs of consecutive firings.
//
// This is the one SDF solver in the tree: the analysis gate
// (analysis/graph_checks.h), the semantic verifier (analysis/verify.h) and
// the channel bounds (analysis/bounds_chan.h) all read make_schedule's
// result or its ScheduleError rather than re-solving the equations.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/flatgraph.h"

namespace sit::sched {

struct Schedule {
  // reps[a]: firings of actor a per steady state (minimal integer solution).
  std::vector<std::int64_t> reps;
  // init_fires[a]: firings during the initialization epoch.
  std::vector<std::int64_t> init_fires;
  // Topological actor order used for in-order execution.
  std::vector<int> order;
  // Items crossing each edge per steady state.
  std::vector<std::int64_t> edge_traffic;
  // Peak live items per edge when firing data-driven in `order`: the init
  // epoch plus two steady states, simulated firing for firing (levels return
  // to their post-init values after every steady state, so the second one
  // proves the peak periodic).  External input is modeled as always
  // available, so the boundary edges' entries are not occupancy bounds.
  std::vector<std::int64_t> buffer_bound;
  // The firings of one steady state in the order the data-driven sweep
  // (Executor::run_epoch) performs them, merged into runs of consecutive
  // firings of one actor.  Every steady state starts from the same post-init
  // channel levels, so every one repeats this sequence.  A single-appearance
  // graph yields one run per actor (order x reps); a tight feedback loop
  // interleaves shorter runs.
  std::vector<runtime::FiringRun> steady_runs;

  // Items consumed from the external input / pushed to the external output
  // per steady state (0 if the graph is closed).
  std::int64_t input_per_steady{0};
  std::int64_t output_per_steady{0};
  // External input items needed to complete the init epoch.
  std::int64_t input_for_init{0};

  [[nodiscard]] std::string describe(const runtime::FlatGraph& g) const;
};

// Why a graph has no schedule.  `where` names the culprit: an actor, a
// channel ("src -> dst"), or "<init schedule>" / "<steady schedule>" when
// the failure is a whole epoch's.  `message` is the one-line finding and
// `detail` its supporting numbers, worded for a diagnostic; what() joins
// the three.
class ScheduleError : public std::runtime_error {
 public:
  enum class Kind {
    Rates,   // the balance equations have no positive integer solution
    Init,    // no initialization epoch fills every peek window
    Steady,  // a steady state deadlocks from the post-init channel levels
  };

  ScheduleError(Kind kind, std::string where, std::string message,
                std::string detail, std::vector<int> stuck = {},
                std::vector<int> back_edges = {});

  Kind kind;
  std::string where;
  std::string message;
  std::string detail;
  // Init and Steady deadlocks: the actors left short of their quota, and
  // every back edge (FlatGraph edge ids), whose initial items are where the
  // missing slack lives.
  std::vector<int> stuck;
  std::vector<int> back_edges;
};

// Computes the schedule; throws ScheduleError when the graph has none.
Schedule make_schedule(const runtime::FlatGraph& g);

}  // namespace sit::sched
