#pragma once
// The bytecode instruction format, and the compiled form of one filter.
//
// The tree interpreter (interp.h) re-resolves every variable name through an
// unordered_map and chases shared_ptr AST nodes on every firing.  compile.h
// lowers a filter's work AST *once* to a flat register bytecode (every
// scalar, array, and local resolved to an integer slot; constants pooled and
// preloaded; peek/pop/push as dedicated opcodes).  That code never runs as
// emitted: the typed lowering (typed.h) annotates it with operand planes,
// and fused.h inlines the annotated code into traces -- one actor's, or a
// whole steady state's -- with registers rebased and channel ops bound to
// edges; TypedFusedExec::run is the one loop that dispatches it.  Semantics
// are bit-identical to the tree interpreter by construction -- the typed
// kernels in eval_ops.h mirror its Value kernels, and tests/test_vm.cc holds
// them equal differentially.
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
// boundary channel ops (edge -1: the firing's own tapes); the typed lowering
// (typed.h) annotates it and traces (fused.h) run it, binding each channel
// op to an edge and adding the lowered channel ops, the firing structure and
// the superinstructions.
enum class FOp : std::uint8_t {
  // Scalar core.  Register and state-slot operands are per-filter in
  // compiled code and rebased into the flat program-wide files in a trace.
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
  // r[a] items / push(r[dst]) on edge `edge`'s tape (-1 before binding).
  RPeek, RPop, RPopN, RPush,
  // Lowered channel ops: the same on a flat trace buffer (`edge`).
  TPeek, TPop, TPopN, TPush,
  // Firing structure (fused traces).
  SetActor,  // a = actor slot: OpCounts attribution + peek window, and load
             // the actor's register template
  FireLoop,  // a = actor slot, jump = first template instruction, edge =
             // firings in the run (0: the per-call count): reload the
             // template and jump back until the run's last firing, then fall
             // through
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

// Count one op in the field a static tag names (None and ByResult add
// nothing; lowered code carries no ByResult).
inline void tally(OpCounts& c, CountTag tag) {
  switch (tag) {
    case CountTag::IntOp: ++c.int_ops; break;
    case CountTag::Flop: ++c.flops; break;
    case CountTag::Div: ++c.divs; break;
    case CountTag::Trans: ++c.trans; break;
    case CountTag::Mem: ++c.mem; break;
    case CountTag::Channel: ++c.channel; break;
    case CountTag::None: case CountTag::ByResult: break;
  }
}

// The decoded form of a trace instruction: what TypedFusedExec::run
// switches on, set once per instruction when a trace is built (fused.cc).
// A specialized handler fixes its operand planes, its operator and the
// OpCounts field it bumps (II/DD: int-int / double-double operands; I/D: an
// int / double operand, index, offset or payload).  A generic handler -- the
// third column -- reads the mode byte, the sub-operator or the count tag at
// run time: mixed-plane operands, integer Div/Mod with their zero checks,
// Pow, LAnd/LOr, the boundary ring ops and the rare operand forms.  Loop
// bookkeeping and tallies have only their int form (the compiler coerces a
// loop's counter, bound and step to int and tallies only int ops; a trace
// build refuses anything else), and the structural and superinstruction
// opcodes have one handler each.
#define SIT_HANDLERS(X)                                                       \
  X(Halt, "halt", false) X(Jmp, "jmp", false)                                 \
  X(SetActor, "setactor", false) X(FireLoop, "fireloop", false)               \
  X(MacLoop, "macloop", false) X(CopyRun, "copyrun", false)                   \
  X(NativeFire, "nativefire", false) X(LinearKernel, "linkernel", false)      \
  X(Bin, "bin", true) X(Un, "un", true) X(LoadElem, "ld.e", true)             \
  X(StoreElem, "st.e", true) X(Truthy, "truthy", true)                        \
  X(JmpIfFalse, "jf", true) X(JmpIfTrue, "jt", true)                          \
  X(RPeek, "r.peek", true) X(RPop, "r.pop", false) X(RPopN, "r.popn", true)   \
  X(RPush, "r.push", true) X(TPeek, "t.peek", true)                           \
  X(TPopN, "t.popn", true)                                                    \
  X(MoveI, "move.i", false) X(MoveD, "move.d", false)                         \
  X(LoadScalarI, "ld.s.i", false) X(LoadScalarD, "ld.s.d", false)             \
  X(StoreScalarI, "st.s.i", false) X(StoreScalarD, "st.s.d", false)           \
  X(LoadElemI, "ld.e.i", false) X(LoadElemD, "ld.e.d", false)                 \
  X(StoreElemI, "st.e.i", false) X(StoreElemD, "st.e.d", false)               \
  X(TruthyI, "truthy.i", false) X(JmpIfFalseI, "jf.i", false)                 \
  X(JmpIfTrueI, "jt.i", false) X(JmpIfGeII, "jge.ii", false)                  \
  X(CheckStepI, "chkstep.i", false) X(ForIncII, "forinc.ii", false)           \
  X(TallyInt, "tally.int", false)                                             \
  X(TPeekI, "t.peek.i", false) X(TPop, "t.pop", false)                        \
  X(TPopNI, "t.popn.i", false)                                                \
  X(TPushI, "t.push.i", false) X(TPushD, "t.push.d", false)                   \
  X(AddII, "add.ii", false) X(SubII, "sub.ii", false)                         \
  X(MulII, "mul.ii", false) X(MinII, "min.ii", false)                         \
  X(MaxII, "max.ii", false) X(BAndII, "band.ii", false)                       \
  X(BOrII, "bor.ii", false) X(BXorII, "bxor.ii", false)                       \
  X(ShlII, "shl.ii", false) X(ShrII, "shr.ii", false)                         \
  X(LtII, "lt.ii", false) X(LeII, "le.ii", false) X(GtII, "gt.ii", false)     \
  X(GeII, "ge.ii", false) X(EqII, "eq.ii", false) X(NeII, "ne.ii", false)     \
  X(AddDD, "add.dd", false) X(SubDD, "sub.dd", false)                         \
  X(MulDD, "mul.dd", false) X(DivDD, "div.dd", false)                         \
  X(MinDD, "min.dd", false) X(MaxDD, "max.dd", false)                         \
  X(LtDD, "lt.dd", false) X(LeDD, "le.dd", false) X(GtDD, "gt.dd", false)     \
  X(GeDD, "ge.dd", false) X(EqDD, "eq.dd", false) X(NeDD, "ne.dd", false)     \
  X(NegI, "neg.i", false) X(AbsI, "abs.i", false) X(LNotI, "lnot.i", false)   \
  X(BNotI, "bnot.i", false) X(ToIntI, "toint.i", false)                       \
  X(ToFloatI, "tofloat.i", false)                                             \
  X(NegD, "neg.d", false) X(AbsD, "abs.d", false) X(SinD, "sin.d", false)     \
  X(CosD, "cos.d", false) X(TanD, "tan.d", false) X(ExpD, "exp.d", false)     \
  X(LogD, "log.d", false) X(SqrtD, "sqrt.d", false)                           \
  X(FloorD, "floor.d", false) X(CeilD, "ceil.d", false)                       \
  X(RoundD, "round.d", false) X(ToIntD, "toint.d", false)                     \
  X(ToFloatD, "tofloat.d", false)

enum class Handler : std::uint8_t {
#define SIT_HANDLER_ENUM(h, name, generic) h,
  SIT_HANDLERS(SIT_HANDLER_ENUM)
#undef SIT_HANDLER_ENUM
};

// A handler's mnemonic (the dispatch census), and whether it is generic.
const char* handler_name(Handler h);
bool handler_generic(Handler h);

struct FInstr {
  FOp op{FOp::Halt};
  std::uint8_t sub{0};  // BinOp/UnOp ordinal, or Tally amount
  CountTag count{CountTag::None};
  std::uint16_t dst{0}, a{0}, b{0};
  std::uint8_t mode{0};  // typed code only: operand planes (eval_ops.h kMode*)
  Handler handler{Handler::Halt};  // traces only: the decoded dispatch
  std::int32_t jump{-1};
  std::int32_t edge{-1};  // channel ops: flat-graph edge id
};
static_assert(sizeof(FInstr) == 20,
              "mode and handler ride in the padding before jump");

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
