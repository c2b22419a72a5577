#include "runtime/vm.h"

#include "ir/ast.h"

namespace sit::runtime {

using ir::BinOp;
using ir::UnOp;

// ---- disassembly ------------------------------------------------------------

const char* op_name(FOp op) {
  switch (op) {
    case FOp::Move: return "move";
    case FOp::LoadScalar: return "ld.s";
    case FOp::StoreScalar: return "st.s";
    case FOp::LoadElem: return "ld.e";
    case FOp::StoreElem: return "st.e";
    case FOp::Bin: return "bin";
    case FOp::Un: return "un";
    case FOp::Truthy: return "truthy";
    case FOp::Jmp: return "jmp";
    case FOp::JmpIfFalse: return "jf";
    case FOp::JmpIfTrue: return "jt";
    case FOp::JmpIfGe: return "jge";
    case FOp::CheckStep: return "chkstep";
    case FOp::ForInc: return "forinc";
    case FOp::Tally: return "tally";
    case FOp::RPeek: return "r.peek";
    case FOp::RPop: return "r.pop";
    case FOp::RPopN: return "r.popn";
    case FOp::RPush: return "r.push";
    case FOp::TPeek: return "t.peek";
    case FOp::TPop: return "t.pop";
    case FOp::TPopN: return "t.popn";
    case FOp::TPush: return "t.push";
    case FOp::SetActor: return "setactor";
    case FOp::FireLoop: return "fireloop";
    case FOp::MacLoop: return "macloop";
    case FOp::CopyRun: return "copyrun";
    case FOp::NativeFire: return "nativefire";
    case FOp::LinearKernel: return "linkernel";
    case FOp::Halt: return "halt";
  }
  return "?";
}

const char* handler_name(Handler h) {
  switch (h) {
#define SIT_HANDLER_NAME(h, name, generic) \
  case Handler::h:                         \
    return name;
    SIT_HANDLERS(SIT_HANDLER_NAME)
#undef SIT_HANDLER_NAME
  }
  return "?";
}

bool handler_generic(Handler h) {
  switch (h) {
#define SIT_HANDLER_GENERIC(h, name, generic) \
  case Handler::h:                            \
    return generic;
    SIT_HANDLERS(SIT_HANDLER_GENERIC)
#undef SIT_HANDLER_GENERIC
  }
  return true;
}

std::string disassemble(const CompiledProgram& p) {
  std::string out;
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const FInstr& I = p.code[i];
    out += std::to_string(i) + ": " + op_name(I.op);
    switch (I.op) {
      case FOp::Bin:
        out += " " + std::string(ir::to_string(static_cast<BinOp>(I.sub)));
        break;
      case FOp::Un:
        out += " " + std::string(ir::to_string(static_cast<UnOp>(I.sub)));
        break;
      default:
        break;
    }
    out += " dst=r" + std::to_string(I.dst) + " a=" + std::to_string(I.a) +
           " b=" + std::to_string(I.b);
    if (I.jump >= 0) out += " ->" + std::to_string(I.jump);
    out += "\n";
  }
  return out;
}

}  // namespace sit::runtime
