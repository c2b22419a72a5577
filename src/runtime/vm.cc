#include "runtime/vm.h"

#include <stdexcept>

#include "runtime/eval_ops.h"
#include "runtime/typed.h"

namespace sit::runtime {

using ir::BinOp;
using ir::UnOp;
using ir::Value;

void bind_slots(const CompiledFilter& f, FilterState& state,
                std::vector<Value*>& scalars,
                std::vector<std::vector<Value>*>& arrays) {
  scalars.reserve(scalars.size() + f.scalar_slots.size());
  for (const auto& name : f.scalar_slots) {
    auto it = state.scalars.find(name);
    if (it == state.scalars.end()) {
      throw std::logic_error("VM bind: state has no scalar '" + name + "'");
    }
    scalars.push_back(&it->second);
  }
  arrays.reserve(arrays.size() + f.array_slots.size());
  for (const auto& name : f.array_slots) {
    auto it = state.arrays.find(name);
    if (it == state.arrays.end()) {
      throw std::logic_error("VM bind: state has no array '" + name + "'");
    }
    arrays.push_back(&it->second);
  }
}

// ---- typed (dual-plane) dispatch --------------------------------------------
//
// TypedBound mirrors the tree interpreter statement for statement: identical
// op counting, identical debug peek checks, identical error strings.
// Registers live in two raw planes (no variant), CountTag::ByResult is
// pre-resolved, and state loads/stores go through the slot's inferred class
// -- exactly what typeflow proved safe.  A traced firing reports its
// measured channel batches (items popped/pushed) before returning.

TypedBound::TypedBound(TypedFilterP prog, FilterState& state)
    : prog_(std::move(prog)) {
  bind_slots(*prog_->base, state, scalars_, arrays_);
  dregs_.resize(prog_->work.dreg_init.size());
  iregs_.resize(prog_->work.ireg_init.size());
}

template <bool kCount>
void TypedBound::run_program(ir::InTape* in, ir::OutTape* out,
                             OpCounts* counts, const obs::FiringTrace* trace) {
  const TypedCode& p = prog_->work;
  double* const dr = dregs_.data();
  std::int64_t* const ir = iregs_.data();
  std::copy(p.dreg_init.begin(), p.dreg_init.end(), dr);
  std::copy(p.ireg_init.begin(), p.ireg_init.end(), ir);
  const FInstr* const code = p.code.data();
  const CompiledFilter& base = *prog_->base;
  const bool debug = debug_channel_checks();
  std::int64_t pops = 0;
  std::int64_t pushes = 0;
  std::int32_t pc = 0;

  for (;;) {
    const FInstr& I = code[pc];
    const bool ad = (I.mode & kModeAD) != 0;
    const bool bd = (I.mode & kModeBD) != 0;
    const bool dd = (I.mode & kModeDD) != 0;
    switch (I.op) {
      case FOp::Move:
        if (dd) {
          dr[I.dst] = dr[I.a];
        } else {
          ir[I.dst] = ir[I.a];
        }
        ++pc;
        break;
      case FOp::LoadScalar:
        if constexpr (kCount) ++counts->mem;
        if (dd) {
          dr[I.dst] = scalars_[I.a]->as_double();
        } else {
          ir[I.dst] = scalars_[I.a]->as_int();
        }
        ++pc;
        break;
      case FOp::StoreScalar:
        if constexpr (kCount) ++counts->mem;
        *scalars_[I.a] = dd ? Value(dr[I.dst]) : Value(ir[I.dst]);
        ++pc;
        break;
      case FOp::LoadElem: {
        const std::int64_t idx = typed_geti(dr, ir, I.b, bd);
        const auto& arr = *arrays_[I.a];
        if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
          elem_bounds_error("array index out of bounds", base.array_slots[I.a],
                            idx);
        }
        if constexpr (kCount) ++counts->mem;
        const Value& v = arr[static_cast<std::size_t>(idx)];
        if (dd) {
          dr[I.dst] = v.as_double();
        } else {
          ir[I.dst] = v.as_int();
        }
        ++pc;
        break;
      }
      case FOp::StoreElem: {
        const std::int64_t idx = typed_geti(dr, ir, I.b, bd);
        auto& arr = *arrays_[I.a];
        if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
          elem_bounds_error("array store out of bounds", base.array_slots[I.a],
                            idx);
        }
        if constexpr (kCount) ++counts->mem;
        arr[static_cast<std::size_t>(idx)] =
            dd ? Value(dr[I.dst]) : Value(ir[I.dst]);
        ++pc;
        break;
      }
      case FOp::RPeek: {
        const std::int64_t off = typed_geti(dr, ir, I.a, ad);
        if (debug) {
          if (off < 0 || pops + off >= base.peek_window) {
            peek_bounds_error(base.name, off, pops, base.peek_window);
          }
        }
        if constexpr (kCount) ++counts->channel;
        dr[I.dst] = in->peek_item(static_cast<int>(off));
        ++pc;
        break;
      }
      case FOp::RPop:
        if constexpr (kCount) ++counts->channel;
        ++pops;
        dr[I.dst] = in->pop_item();
        ++pc;
        break;
      case FOp::RPopN: {
        const std::int64_t n = typed_geti(dr, ir, I.a, ad);
        if (n > 0) {
          if constexpr (kCount) counts->channel += n;
          pops += n;
          in->pop_many(static_cast<int>(n));
        }
        ++pc;
        break;
      }
      case FOp::RPush:
        if constexpr (kCount) ++counts->channel;
        ++pushes;
        out->push_item(typed_getd(dr, ir, I.dst, dd));
        ++pc;
        break;
      case FOp::Bin:
        if constexpr (kCount) tally(*counts, I.count);
        typed_bin(static_cast<BinOp>(I.sub), dr, ir, I.dst, I.a, I.b, I.mode);
        ++pc;
        break;
      case FOp::Un:
        if constexpr (kCount) tally(*counts, I.count);
        typed_un(static_cast<UnOp>(I.sub), dr, ir, I.dst, I.a, I.mode);
        ++pc;
        break;
      case FOp::Truthy:
        ir[I.dst] = typed_truthy(dr, ir, I.a, ad) ? 1 : 0;
        ++pc;
        break;
      case FOp::Jmp:
        pc = I.jump;
        break;
      case FOp::JmpIfFalse:
        pc = typed_truthy(dr, ir, I.a, ad) ? pc + 1 : I.jump;
        break;
      case FOp::JmpIfTrue:
        pc = typed_truthy(dr, ir, I.a, ad) ? I.jump : pc + 1;
        break;
      case FOp::JmpIfGe:
        pc = typed_geti(dr, ir, I.a, ad) >= typed_geti(dr, ir, I.b, bd)
                 ? I.jump
                 : pc + 1;
        break;
      case FOp::CheckStep:
        if (typed_geti(dr, ir, I.a, ad) <= 0) {
          for_step_error();
        }
        ++pc;
        break;
      case FOp::ForInc:
        ir[I.dst] =
            typed_geti(dr, ir, I.dst, dd) + typed_geti(dr, ir, I.a, ad);
        ++pc;
        break;
      case FOp::Tally:
        if constexpr (kCount) tally(*counts, I.count, I.sub);
        ++pc;
        break;
      case FOp::Halt:
        if (trace != nullptr && trace->tb != nullptr) {
          const std::int64_t ts = trace->rec->now_ns();
          if (pops > 0) {
            trace->tb->emit(ts, obs::EventKind::PopBatch, trace->in_edge, pops);
          }
          if (pushes > 0) {
            trace->tb->emit(ts, obs::EventKind::PushBatch, trace->out_edge,
                            pushes);
          }
        }
        return;
      default:
        // Lowered channel ops, firing structure and superinstructions never
        // appear at the VM layer.
        throw std::logic_error("typed VM dispatch: unexpected opcode");
    }
  }
}

void TypedBound::run_work(ir::InTape& in, ir::OutTape& out, OpCounts* counts,
                          const obs::FiringTrace* trace) {
  if (counts) {
    run_program<true>(&in, &out, counts, trace);
  } else {
    run_program<false>(&in, &out, nullptr, trace);
  }
}

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
