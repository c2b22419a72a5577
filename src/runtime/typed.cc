// Static tag inference + dual-plane lowering (see typed.h).
//
// The analysis is a standard forward dataflow over the bytecode CFG:
// per-instruction IN states of register tags, worklist-propagated to a
// fixpoint, with the state scalar/array classes as global lattice cells that
// are re-seeded and the flow re-run until they stabilize (a store can raise
// a class, which retags every load of that slot).  Lowering then walks the
// final states and copies each FInstr with its operand-plane mode set -- same
// indices, same jump targets -- refusing the moment any *read* observes
// Mixed.

#include "runtime/typed.h"

#include <deque>
#include <stdexcept>

#include "ir/ast.h"
#include "runtime/eval_ops.h"

namespace sit::runtime {

namespace {

using TagVec = std::vector<Tag>;

Tag bin_result(ir::BinOp op, Tag a, Tag b) {
  using ir::BinOp;
  switch (op) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod:
    case BinOp::Min:
    case BinOp::Max:
      if (a == Tag::Mixed || b == Tag::Mixed) return Tag::Mixed;
      return (a == Tag::Int && b == Tag::Int) ? Tag::Int : Tag::Double;
    case BinOp::Pow:
      return Tag::Double;
    default:
      // Comparisons, logic, bit ops, shifts: canonical Int (ir::Value(bool)).
      return Tag::Int;
  }
}

Tag un_result(ir::UnOp op, Tag a) {
  using ir::UnOp;
  switch (op) {
    case UnOp::Neg:
    case UnOp::Abs:
      return a;
    case UnOp::LNot:
    case UnOp::BNot:
    case UnOp::ToInt:
      return Tag::Int;
    default:
      return Tag::Double;
  }
}

// The analysis state threaded through flow + lowering.
struct Flow {
  const std::vector<FInstr>* code{nullptr};
  TagVec entry;
  std::vector<TagVec> states;  // IN state per instruction
  std::vector<char> reach;
  TagVec scls, acls;  // scalar / array classes (monotone across reruns)
  bool cls_changed{false};

  void raise_scalar(std::size_t slot, Tag t) {
    const Tag j = join_tag(scls[slot], t);
    if (j != scls[slot]) {
      scls[slot] = j;
      cls_changed = true;
    }
  }
  void raise_array(std::size_t slot, Tag t) {
    const Tag j = join_tag(acls[slot], t);
    if (j != acls[slot]) {
      acls[slot] = j;
      cls_changed = true;
    }
  }
};

// Mutate `s` from the IN state of `I` to its OUT state.
void transfer(Flow& F, const FInstr& I, TagVec& s) {
  switch (I.op) {
    case FOp::Move:
      s[I.dst] = s[I.a];
      break;
    case FOp::LoadScalar:
      s[I.dst] = F.scls[I.a];
      break;
    case FOp::StoreScalar:
      F.raise_scalar(I.a, s[I.dst]);
      break;
    case FOp::LoadElem:
      s[I.dst] = F.acls[I.a];
      break;
    case FOp::StoreElem:
      F.raise_array(I.a, s[I.dst]);
      break;
    case FOp::Bin:
      s[I.dst] = bin_result(static_cast<ir::BinOp>(I.sub), s[I.a], s[I.b]);
      break;
    case FOp::Un:
      s[I.dst] = un_result(static_cast<ir::UnOp>(I.sub), s[I.a]);
      break;
    case FOp::Truthy:
    case FOp::ForInc:
      s[I.dst] = Tag::Int;
      break;
    case FOp::RPeek:
    case FOp::RPop:
      s[I.dst] = Tag::Double;
      break;
    default:
      // RPopN, RPush, jumps, CheckStep, Tally, Halt: no register writes.
      break;
  }
}

// CFG successors of the instruction at `pc`.
int successors(const FInstr& I, int pc, int out[2]) {
  switch (I.op) {
    case FOp::Jmp:
      out[0] = I.jump;
      return 1;
    case FOp::JmpIfFalse:
    case FOp::JmpIfTrue:
    case FOp::JmpIfGe:
      out[0] = pc + 1;
      out[1] = I.jump;
      return 2;
    case FOp::Halt:
      return 0;
    default:
      out[0] = pc + 1;
      return 1;
  }
}

// Run the flow to fixpoint under the current classes; returns true if some
// class was raised (caller re-runs until stable).
bool run_flow(Flow& F) {
  const auto n = static_cast<int>(F.code->size());
  F.states.assign(static_cast<std::size_t>(n), TagVec());
  F.reach.assign(static_cast<std::size_t>(n), 0);
  F.cls_changed = false;
  std::deque<int> work;
  std::vector<char> queued(static_cast<std::size_t>(n), 0);

  auto join_into = [&](int idx, const TagVec& s) {
    const auto ui = static_cast<std::size_t>(idx);
    bool changed = false;
    if (!F.reach[ui]) {
      F.states[ui] = s;
      F.reach[ui] = 1;
      changed = true;
    } else {
      TagVec& dst = F.states[ui];
      for (std::size_t r = 0; r < dst.size(); ++r) {
        const Tag j = join_tag(dst[r], s[r]);
        if (j != dst[r]) {
          dst[r] = j;
          changed = true;
        }
      }
    }
    if (changed && !queued[ui]) {
      queued[ui] = 1;
      work.push_back(idx);
    }
  };

  if (n > 0) join_into(0, F.entry);
  while (!work.empty()) {
    const int pc = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(pc)] = 0;
    const FInstr& I = (*F.code)[static_cast<std::size_t>(pc)];
    TagVec s = F.states[static_cast<std::size_t>(pc)];
    transfer(F, I, s);
    int succ[2];
    const int ns = successors(I, pc, succ);
    for (int k = 0; k < ns; ++k) join_into(succ[k], s);
  }
  return F.cls_changed;
}

// Lowering context: the translation walk and the registers it wrote.
struct Lower {
  Flow* F{nullptr};
  TypedCode* out{nullptr};
  std::vector<char> written;

  // A register read: false when it observes Mixed (lower_one then refuses
  // with "mixed-register"), otherwise the operand's plane in `dbl`.
  static bool read(const TagVec& s, std::uint16_t r, bool* dbl) {
    *dbl = s[r] == Tag::Double;
    return s[r] != Tag::Mixed;
  }

  void note_write(std::uint16_t r, Tag t) {
    if (!written[r]) {
      written[r] = 1;
      out->reg_tag[r] = t;
    } else {
      out->reg_tag[r] = join_tag(out->reg_tag[r], t);
    }
  }
};

bool lower_one(Lower& L, const FInstr& I, const TagVec& s, FInstr* T) {
  Flow& F = *L.F;
  bool ad = false, bd = false, dd = false;
  switch (I.op) {
    case FOp::Move: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD | kModeDD;
      L.note_write(I.dst, ad ? Tag::Double : Tag::Int);
      break;
    }
    case FOp::LoadScalar: {
      if (F.scls[I.a] == Tag::Double) T->mode = kModeDD;
      L.note_write(I.dst, F.scls[I.a]);
      break;
    }
    case FOp::StoreScalar: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (dd) T->mode = kModeDD;
      break;
    }
    case FOp::LoadElem: {
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((bd ? kModeBD : 0) |
                                          (F.acls[I.a] == Tag::Double
                                               ? kModeDD : 0));
      L.note_write(I.dst, F.acls[I.a]);
      break;
    }
    case FOp::StoreElem: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((dd ? kModeDD : 0) |
                                          (bd ? kModeBD : 0));
      break;
    }
    case FOp::Bin: {
      if (!L.read(s, I.a, &ad)) return false;
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) |
                                          (bd ? kModeBD : 0));
      const Tag rt = bin_result(static_cast<ir::BinOp>(I.sub),
                                ad ? Tag::Double : Tag::Int,
                                bd ? Tag::Double : Tag::Int);
      if (T->count == CountTag::ByResult) {
        T->count = rt == Tag::Int ? CountTag::IntOp : CountTag::Flop;
      }
      L.note_write(I.dst, rt);
      break;
    }
    case FOp::Un: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      const Tag rt = un_result(static_cast<ir::UnOp>(I.sub),
                               ad ? Tag::Double : Tag::Int);
      // The tree interpreter tallies Neg/Abs (the only ByResult unaries) on
      // the *operand* tag, which equals the result tag for both.
      if (T->count == CountTag::ByResult) {
        T->count = ad ? CountTag::Flop : CountTag::IntOp;
      }
      L.note_write(I.dst, rt);
      break;
    }
    case FOp::Truthy: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      L.note_write(I.dst, Tag::Int);
      break;
    }
    case FOp::JmpIfFalse:
    case FOp::JmpIfTrue:
    case FOp::CheckStep: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      break;
    }
    case FOp::JmpIfGe: {
      if (!L.read(s, I.a, &ad)) return false;
      if (!L.read(s, I.b, &bd)) return false;
      T->mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) |
                                          (bd ? kModeBD : 0));
      break;
    }
    case FOp::ForInc: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (!L.read(s, I.a, &ad)) return false;
      T->mode = static_cast<std::uint8_t>((dd ? kModeDD : 0) |
                                          (ad ? kModeAD : 0));
      L.note_write(I.dst, Tag::Int);
      break;
    }
    case FOp::RPeek: {
      if (!L.read(s, I.a, &ad)) return false;
      T->mode = static_cast<std::uint8_t>((ad ? kModeAD : 0) | kModeDD);
      L.note_write(I.dst, Tag::Double);
      break;
    }
    case FOp::RPop: {
      T->mode = kModeDD;
      L.note_write(I.dst, Tag::Double);
      break;
    }
    case FOp::RPopN: {
      if (!L.read(s, I.a, &ad)) return false;
      if (ad) T->mode = kModeAD;
      break;
    }
    case FOp::RPush: {
      if (!L.read(s, I.dst, &dd)) return false;
      if (dd) T->mode = kModeDD;
      break;
    }
    default:
      // Jmp, Tally, Halt: no register operands.  compile_filter emits none
      // of the trace-only opcodes.
      break;
  }
  return true;
}

}  // namespace

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::Int:
      return "int";
    case Tag::Double:
      return "double";
    case Tag::Mixed:
      return "mixed";
  }
  return "?";
}

bool typed_lower(const CompiledFilter& f, std::vector<Tag> scalar_seed,
                 std::vector<Tag> array_seed, TypedCode* out,
                 std::string* refusal) {
  const std::vector<FInstr>& code = f.work.code;
  const std::vector<ir::Value>& init = f.work.reg_init;
  const std::size_t nregs = init.size();
  Flow F;
  F.code = &code;
  F.entry.reserve(nregs);
  for (const ir::Value& v : init) F.entry.push_back(value_tag(v));
  F.scls = std::move(scalar_seed);
  F.acls = std::move(array_seed);

  // Classes are monotone, so this terminates in <= 2 raises per slot.
  while (run_flow(F)) {
  }

  // A Mixed state class cannot live in either raw plane; name the slot in
  // the refusal.
  const auto refuse = [&](const std::string& why) {
    if (refusal) *refusal = why;
    return false;
  };
  for (std::size_t k = 0; k < F.scls.size(); ++k) {
    if (F.scls[k] == Tag::Mixed) {
      return refuse("mixed-state:" + f.scalar_slots[k]);
    }
  }
  for (std::size_t k = 0; k < F.acls.size(); ++k) {
    if (F.acls[k] == Tag::Mixed) {
      return refuse("mixed-state:" + f.array_slots[k]);
    }
  }

  Lower L;
  L.F = &F;
  L.out = out;
  out->code.clear();
  out->code.reserve(code.size());
  out->reg_tag.assign(nregs, Tag::Int);
  out->scalar_class = F.scls;
  out->array_class = F.acls;
  out->push_tag = Tag::Double;
  bool pushed = false;
  L.written.assign(nregs, 0);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const FInstr& I = code[pc];
    FInstr T = I;
    if (F.reach[pc]) {
      if (!lower_one(L, I, F.states[pc], &T)) return refuse("mixed-register");
      if (I.op == FOp::RPush) {
        const Tag pt = (T.mode & kModeDD) != 0 ? Tag::Double : Tag::Int;
        out->push_tag = pushed ? join_tag(out->push_tag, pt) : pt;
        pushed = true;
      }
    } else {
      // Unreachable padding: keep indices/jumps aligned, never executed.
      T = FInstr{};
    }
    out->code.push_back(T);
  }

  // Split the register template across the planes.
  out->dreg_init.assign(nregs, 0.0);
  out->ireg_init.assign(nregs, 0);
  for (std::size_t r = 0; r < nregs; ++r) {
    if (init[r].is_int()) {
      out->ireg_init[r] = init[r].as_int();
    } else {
      out->dreg_init[r] = init[r].as_double();
    }
  }

  // Never-written registers keep their template tag (pooled constants).
  for (std::size_t r = 0; r < nregs; ++r) {
    if (!L.written[r]) out->reg_tag[r] = F.entry[r];
  }
  out->typed_regs = 0;
  for (const Tag t : out->reg_tag) {
    if (t == Tag::Double) ++out->typed_regs;
  }
  return true;
}

}  // namespace sit::runtime
