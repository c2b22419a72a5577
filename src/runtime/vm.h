#pragma once
// The bytecode instruction format, and the compiled form of one filter.
//
// The tree interpreter (interp.h) re-resolves every variable name through an
// unordered_map and chases shared_ptr AST nodes on every firing.  compile.h
// lowers a filter's work AST *once* to a flat register bytecode (every
// scalar, array, and local resolved to an integer slot; constants pooled and
// preloaded; peek/pop/push as dedicated opcodes).  That code never runs as
// emitted: the typed lowering (typed.h) annotates it with operand planes,
// and that annotated code runs per actor on TypedBound (dispatch loop in
// vm.cc) and inlined into the fused trace (fused.h) with registers rebased
// and channel ops bound to edges.  Semantics are bit-identical to the tree
// interpreter by construction -- the typed kernels in eval_ops.h mirror its
// Value kernels, and tests/test_vm.cc holds them equal differentially.
//
// Register file layout (per program): [locals | pooled constants | loop
// bookkeeping | expression temporaries].  The template `reg_init` is copied
// in at entry, which both preloads constants and resets locals.
//
// Operation counting: every instruction carries a CountTag resolved at
// compile time (mem, channel, div, ...), so tallying is a single add; only
// ops whose int/float classification depends on value tags
// (Add/Sub/Mul/Min/Max/Neg/Abs) carry ByResult, which the typed lowering
// resolves statically from the proven operand planes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.h"
#include "runtime/opcounts.h"

namespace sit::runtime {

// The one instruction set.  compile_filter emits the scalar core and the
// boundary channel ops (edge -1: the firing's own tapes); the typed VM
// (typed.h) and the fused trace (fused.h) both run this same format.  The
// fused trace adds the lowered channel ops, the firing structure and the
// superinstructions.
enum class FOp : std::uint8_t {
  // Scalar core.  Register and state-slot operands are per-filter in VM
  // code and rebased into the flat program-wide files in a fused trace.
  Move,         // r[dst] = r[a]
  LoadScalar,   // r[dst] = state scalar slot a
  StoreScalar,  // state scalar slot a = r[dst]
  LoadElem,     // r[dst] = array slot a [ r[b] ]   (bounds-checked)
  StoreElem,    // array slot a [ r[b] ] = r[dst]   (bounds-checked)
  Bin,          // r[dst] = <BinOp sub>(r[a], r[b])
  Un,           // r[dst] = <UnOp sub>(r[a])
  Truthy,       // r[dst] = Value(r[a] is truthy)   (bool as int, no count)
  Jmp,          // pc = jump
  JmpIfFalse,   // if (!r[a].truthy()) pc = jump
  JmpIfTrue,    // if (r[a].truthy())  pc = jump
  JmpIfGe,      // if (r[a].as_int() >= r[b].as_int()) pc = jump  (loop test)
  CheckStep,    // throw unless r[a].as_int() > 0   (for-loop step guard)
  ForInc,       // r[dst] = int(r[dst] + r[a])      (loop induction, no count)
  Tally,        // counts->(field selected by `count`) += sub
                // (If/Cond/LAnd/LOr/For costs, dangling splitter traffic)
  // Boundary channel ops: r[dst] = peek(r[a]) / r[dst] = pop() / discard
  // r[a] items / push(r[dst]) on a ring Channel (`edge`, -1 in VM code).
  RPeek, RPop, RPopN, RPush,
  // Lowered channel ops: the same on a flat trace buffer (`edge`).
  TPeek, TPop, TPopN, TPush,
  // Firing structure (fused traces).
  SetActor,  // a = actor id: OpCounts attribution + peek window, and load
             // the actor's register template
  FireLoop,  // a = actor id, jump = first template instruction, edge =
             // firings in the run: reload the template and jump back until
             // the run's last firing, then fall through
  // Superinstructions (fused traces; `a` indexes the matching args table).
  MacLoop,       // mac-loop / sum-loop
  CopyRun,       // copy-run / dup-run
  NativeFire,    // one firing of a native filter through tape adapters
  LinearKernel,  // every firing of a linear node's run (linear-kernel)
  Halt,
};

// The disassembly mnemonic of an opcode.
const char* op_name(FOp op);

// Which OpCounts field an instruction bumps; fixed at compile time except
// ByResult (int_ops vs flops decided by the result's tag, exactly like the
// tree interpreter's count_bin / count_un).  The typed lowering resolves
// every ByResult statically.
enum class CountTag : std::uint8_t {
  None, IntOp, Flop, Div, Trans, Mem, Channel, ByResult,
};

// Add `n` to the field a static tag names (None and ByResult add nothing;
// lowered code carries no ByResult).
inline void tally(OpCounts& c, CountTag tag, std::int64_t n = 1) {
  switch (tag) {
    case CountTag::IntOp: c.int_ops += n; break;
    case CountTag::Flop: c.flops += n; break;
    case CountTag::Div: c.divs += n; break;
    case CountTag::Trans: c.trans += n; break;
    case CountTag::Mem: c.mem += n; break;
    case CountTag::Channel: c.channel += n; break;
    case CountTag::None: case CountTag::ByResult: break;
  }
}

struct FInstr {
  FOp op{FOp::Halt};
  std::uint8_t sub{0};  // BinOp/UnOp ordinal, or Tally amount
  CountTag count{CountTag::None};
  std::uint16_t dst{0}, a{0}, b{0};
  std::uint8_t mode{0};  // typed code only: operand planes (eval_ops.h kMode*)
  std::int32_t jump{-1};
  std::int32_t edge{-1};  // channel ops: flat-graph edge id
};
static_assert(sizeof(FInstr) == 20, "mode rides in the padding before jump");

// Apply `f` to every register operand of a scalar-core or channel
// instruction.  State slots and args-table indices are not registers; the
// other opcodes have none.
template <typename F>
void for_each_reg(FInstr& I, F&& f) {
  switch (I.op) {
    case FOp::Bin:
      f(I.dst);
      f(I.a);
      f(I.b);
      break;
    case FOp::Move: case FOp::Un: case FOp::Truthy: case FOp::ForInc:
    case FOp::RPeek: case FOp::TPeek:
      f(I.dst);
      f(I.a);
      break;
    case FOp::LoadElem: case FOp::StoreElem:
      f(I.dst);
      f(I.b);
      break;
    case FOp::LoadScalar: case FOp::StoreScalar:
    case FOp::RPop: case FOp::TPop: case FOp::RPush: case FOp::TPush:
      f(I.dst);
      break;
    case FOp::JmpIfGe:
      f(I.a);
      f(I.b);
      break;
    case FOp::JmpIfFalse: case FOp::JmpIfTrue: case FOp::CheckStep:
    case FOp::RPopN: case FOp::TPopN:
      f(I.a);
      break;
    default:
      break;
  }
}

struct CompiledProgram {
  std::vector<FInstr> code;
  std::vector<ir::Value> reg_init;  // register template: locals zeroed, consts pooled
};

// A filter's work function in bytecode.  Init is not compiled: it runs once,
// on the tree interpreter, before the work program is specialized.
struct CompiledFilter {
  std::string name;
  std::int64_t peek_window{0};  // max(peek, pop): debug channel-check bound
  std::vector<std::string> scalar_slots;  // slot -> state scalar name
  std::vector<std::string> array_slots;   // slot -> state array name
  CompiledProgram work;
};

using CompiledFilterP = std::shared_ptr<const CompiledFilter>;

// Human-readable disassembly, for debugging and the bytecode docs.
std::string disassemble(const CompiledProgram& p);

}  // namespace sit::runtime
