#pragma once
// What the compiled engine built for a program, read off the executor that
// runs it (streamc --report).
//
// Two sections, each a view of facts the Executor made at construction:
//
//   fusion:       the whole-graph trace (Executor::fused_program) -- the
//                 channels lowered to trace buffers, its size and firing
//                 runs, the decode census and the superinstructions -- or
//                 the stable reason it was refused (fused_refusal).
//   typeflow:     per AST filter, whether it fires typed (its register
//                 count, or its coefficient kernel's shape when its
//                 one-actor trace is a linear kernel) or on the tree
//                 interpreter with the stable refusal reason, and its state
//                 slots' classes; then each channel's content tag
//                 (analysis/typeflow.h, through metrics_snapshot).
//
// Both describe an executor on the compiled engine with the typed plane on
// (streamc builds one so, with tracing off); on the tree engine every
// filter reads tree with no reason.

#include <string>

#include "sched/exec.h"

namespace sit::sched {

std::string describe_compiled(const Executor& ex);

}  // namespace sit::sched
