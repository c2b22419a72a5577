#pragma once
// Steady-state fusion admissibility + trace-buffer sizing.
//
// The fused engine (runtime/fused.h) compiles one whole steady-state
// iteration into a single flat bytecode trace: every firing run of the
// schedule's steady-state sequence (sched::Schedule::steady_runs) becomes one
// firing loop over the actor's inlined template, and every fully-internal
// channel is lowered to a flat array indexed by statically-known cursors.
// fuse_plan() sizes the per-edge arrays from the static channel-bound
// analysis (bounds_chan.h) before any code is generated:
//
//   * carry[e]   -- the post-init level L0: items that live across iteration
//                   boundaries (peek windows, feedback delays).  The array
//                   holds carry + traffic items; the carry block is moved to
//                   the front after each iteration.
//   * traffic[e] -- items crossing the edge per steady state; the trace's
//                   write cursor starts at carry and must end at
//                   carry + traffic every iteration (checked at runtime).
//
// Any valid firing sequence pushes exactly `traffic` items per edge per
// iteration, so these sizes hold for interleaved runs (a tight feedback
// loop) as well as for single-appearance ones.
//
// Refusal reasons are stable kebab-case strings (they surface through
// streamc --report and obs::MetricsSnapshot.fallback_detail):
//
//   bounds-unavailable (<why>)     the static channel-bound analysis could
//                                  not size the trace buffers.
//
// runtime::build_fused, which every caller runs right after an admissible
// plan, adds the per-filter refusals: it builds the trace from each filter's
// typed work program (runtime/typed.h), so a filter actor without one
// refuses the trace, named after the actor:
//
//   vm-fallback:<filter> (<why>)   the work function is outside the
//                                  bytecode subset (compile_filter refused).
//   teleport-send:<filter>         the filter sends teleport messages;
//                                  message emission is firing-interleaved
//                                  and cannot be batched into a flat trace.
//   has-handlers:<filter>          teleport handlers may retag its state
//                                  between firings.
//   mixed-register:<filter>        some register read is Int on one path
//   mixed-state:<filter>.<slot>    and Double on another, or some state slot
//                                  is stored with both tags.
//
// The executor adds three refusals of its own on top of these
// (sched/exec.cc): message-sink-attached and tracing-enabled -- observation
// channels that want per-firing granularity -- and typed-off
// (TypedMode::Off leaves no typed programs to build the trace from).

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::analysis {

struct FusePlan {
  bool admissible{false};
  std::string refusal;  // stable kebab-case reason when !admissible

  // Per-edge, -1 on the external boundary edges (which keep ring channels).
  std::vector<std::int64_t> carry;    // post-init level L0
  std::vector<std::int64_t> traffic;  // items per steady state

  int internal_edges{0};  // channels the trace eliminates
};

// Requires a schedule computed from this exact graph (make_schedule output).
// Never throws on an inadmissible program -- the plan carries the refusal.
FusePlan fuse_plan(const runtime::FlatGraph& g, const sched::Schedule& s);

}  // namespace sit::analysis
