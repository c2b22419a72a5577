#pragma once
// Typed dataflow: static tag inference + dual-plane (unboxed) execution.
//
// Every variable and state slot the tree interpreter touches is an
// ir::Value (variant<int64, double>), so every operation pays variant
// dispatch even though most apps never hold ints in hot registers.  This
// module is the compiled engines' only value plane: it runs bytecode where a
// static analysis proves the tags fixed, and nowhere else.
//
//   * A forward, flow-sensitive dataflow over a filter's work bytecode
//     assigns every register AT EVERY PROGRAM POINT a lattice tag
//         Int | Double | Mixed        (Int join Double = Mixed)
//     seeded from the register template.  An operator's transfer function
//     is its result tag in eval_ops.h's operator table (int op int stays
//     Int, any Double operand promotes, comparisons/logic produce Int,
//     ToInt/ToFloat force a plane); channel pops/peeks produce Double.  Filter state
//     scalars/arrays get one global class each: the join of the bound
//     state's current tag and every store site's tag.  Flow-sensitivity
//     matters because the compiler reuses expression temporaries across
//     statements with different tags -- a per-register summary would refuse
//     nearly everything.
//
//   * When no *read* ever observes Mixed, the program is lowered 1:1 to the
//     same instruction format (vm.h's FInstr) executed against two raw
//     register files -- a double plane and an int64 plane -- with the
//     instruction's mode byte naming each operand's plane, which a trace
//     build decodes into the instruction's handler (vm.h Handler).  Two
//     planes rather than one double file because
//     int64 arithmetic (the LCG sources' wrap-around, bit ops) exceeds a
//     double's 53-bit mantissa.
//
//   * When some read does observe Mixed, lowering refuses with a stable
//     reason string -- "mixed-register" / "mixed-state:<name>" -- and the
//     filter runs on the tree interpreter; a fused trace containing it is
//     refused as "mixed-register:<actor>" / "mixed-state:<actor>.<name>"
//     and runs per-actor.  Bit-equality with the tree interpreter is the
//     contract: a trace's specialized handlers reproduce its same-plane
//     arithmetic, op counting and error strings exactly, and its generic
//     Bin and Un handlers call the tree's own kernels (eval_ops.h), so a
//     result lands on the plane of the tag those kernels give it -- which
//     the same table's result_tag predicts.
//
// Each filter is typed once, by compile.cc::typed_compile.  fused.cc
// rebases its result -- mode bytes, resolved count tags, plane templates and
// state classes -- into the traces build_trace makes and TypedFusedExec
// runs (fused.h): the actor's one-actor trace, which the per-actor engines
// fire, and the whole steady-state trace.  analysis/typeflow.h
// lifts the per-actor results to a whole-graph view with channel content
// tags.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/filter.h"
#include "ir/value.h"
#include "runtime/eval_ops.h"
#include "runtime/interp.h"
#include "runtime/vm.h"

namespace sit::runtime {

// The tag lattice (Tag, join_tag, value_tag) lives beside the operator table
// in eval_ops.h.
const char* tag_name(Tag t);  // "int" | "double" | "mixed"

// The result of lowering one work program.  `code` is the input
// copied 1:1 (same indices, same jump targets) with each instruction's
// operand-plane `mode` byte set (vm.h kModeAD/kModeBD/kModeDD) and
// CountTag::ByResult resolved statically, so typed dispatch never tests a
// value tag; the register template is split across the two planes by tag.
struct TypedCode {
  std::vector<FInstr> code;
  std::vector<double> dreg_init;        // double-plane register template
  std::vector<std::int64_t> ireg_init;  // int-plane register template
  std::vector<Tag> reg_tag;      // per register: join of every write's tag
  std::vector<Tag> scalar_class;  // per scalar slot
  std::vector<Tag> array_class;   // per array slot
  Tag push_tag{Tag::Double};      // join of pushed value tags (Double if none)
  int typed_regs{0};              // registers proven Double everywhere
};

// Run the inference over `f`'s work program to fixpoint, with the state
// classes seeded from `scalar_seed`/`array_seed` (one per slot), and lower.
// Returns false (and fills `refusal` with a stable reason) when some read
// observes Mixed or some state slot's class is Mixed.
bool typed_lower(const CompiledFilter& f, std::vector<Tag> scalar_seed,
                 std::vector<Tag> array_seed, TypedCode* out,
                 std::string* refusal);

// A work function specialized onto the dual register plane.  Produced by
// typed_compile (compile.cc) from an already-compiled filter, whose slot
// names and peek window the binding reads.  Init is not specialized: it
// runs once, on the tree interpreter, before typed_compile.  A filter whose
// spec carries coefficient rows (ir::FilterSpec::linear_rows) also carries
// them here, and the compiled engines run it as that kernel
// (linear_kernel.h).
struct TypedFilter {
  CompiledFilterP base;
  TypedCode work;
  std::shared_ptr<const ir::LinearRows> kernel;
};

using TypedFilterP = std::shared_ptr<const TypedFilter>;

// Specialize `base`'s work program against the *current* state tags (state
// must already be initialized; its tags seed the scalar/array classes).
// Attaches the spec's coefficient rows, if it carries any.
// Returns null with a stable `reason` when inference refuses:
//   "has-handlers"      teleport handlers may retag state at any time
//   "mixed-register"    some read observes an Int-or-Double register
//   "mixed-state:<name>" some state slot is stored with both tags
TypedFilterP typed_compile(const ir::FilterSpec& spec,
                           const CompiledFilterP& base,
                           const FilterState& state,
                           std::string* reason = nullptr);

}  // namespace sit::runtime
