#pragma once
// AST -> bytecode compiler for the compiled engines (vm.h, typed.h, fused.h).
//
// Runs once per filter, at executor construction: every scalar, array, and
// invocation-local name is resolved to an integer slot, constants are pooled
// into preloaded registers, short-circuit operators and loops are lowered to
// jumps, and per-instruction OpCounts costs are fixed.  The compiler is
// deliberately conservative: any construct whose runtime behaviour it cannot
// prove equivalent to the tree interpreter (e.g. a read of a local that only
// some paths assign, or a loop variable shadowing a state scalar) makes it
// return nullptr, and the caller falls back to the tree interpreter for that
// filter -- per-filter, so one exotic filter never slows the whole graph.
// A work function with a Send statement is refused as "teleport-send".

#include <string>

#include "ir/filter.h"
#include "runtime/vm.h"

namespace sit::runtime {

// Compile `spec`'s work function (init runs on the tree interpreter).
// Returns nullptr (with `reason` filled, if non-null) when the filter is
// outside the bytecode subset.
CompiledFilterP compile_filter(const ir::FilterSpec& spec,
                               std::string* reason = nullptr);

}  // namespace sit::runtime
