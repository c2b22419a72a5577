#include "runtime/compile.h"

#include <cstring>

#include "runtime/typed.h"
#include <map>
#include <set>
#include <unordered_map>

namespace sit::runtime {

using ir::BinOp;
using ir::Expr;
using ir::ExprP;
using ir::Stmt;
using ir::StmtP;
using ir::UnOp;
using ir::Value;

namespace {

// Thrown for constructs outside the bytecode subset; compile_filter catches
// it and reports a tree-interpreter fallback.
struct Unsupported {
  std::string reason;
};

[[noreturn]] void bail(std::string reason) { throw Unsupported{std::move(reason)}; }

// Temporaries are allocated 0.. during compilation and rebased above the
// persistent registers (locals/constants/loop bookkeeping) at finalize time;
// the flag bit distinguishes the two spaces until then.
constexpr std::uint16_t kTempFlag = 0x8000;

CountTag bin_tag(BinOp op) {
  switch (op) {
    case BinOp::Div:
    case BinOp::Mod:
      return CountTag::Div;
    case BinOp::Pow:
      return CountTag::Trans;
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Min:
    case BinOp::Max:
      return CountTag::ByResult;
    // Comparisons and bit ops always yield an integer value.
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::LAnd:
    case BinOp::LOr:
    case BinOp::BAnd:
    case BinOp::BOr:
    case BinOp::BXor:
    case BinOp::Shl:
    case BinOp::Shr:
      return CountTag::IntOp;
  }
  return CountTag::None;
}

CountTag un_tag(UnOp op) {
  switch (op) {
    case UnOp::Neg:
    case UnOp::Abs:
      return CountTag::ByResult;
    case UnOp::LNot:
    case UnOp::BNot:
      return CountTag::IntOp;
    case UnOp::Sin:
    case UnOp::Cos:
    case UnOp::Tan:
    case UnOp::Exp:
    case UnOp::Log:
    case UnOp::Sqrt:
      return CountTag::Trans;
    case UnOp::Floor:
    case UnOp::Ceil:
    case UnOp::Round:
      return CountTag::Flop;
    case UnOp::ToInt:
    case UnOp::ToFloat:
      return CountTag::None;
  }
  return CountTag::None;
}

class FnCompiler {
 public:
  FnCompiler(const std::unordered_map<std::string, std::uint16_t>& scalars,
             const std::unordered_map<std::string, std::uint16_t>& arrays)
      : scalar_slot_(scalars), array_slot_(arrays) {}

  CompiledProgram compile(const StmtP& body) {
    stmt(body);
    emit({FOp::Halt});
    finalize();
    return std::move(prog_);
  }

 private:
  // A compiled expression: the register holding its value, plus (for
  // straight-line tails) the index of the instruction that produced it so an
  // enclosing assignment can retarget it and skip a Move.
  struct ExprRes {
    std::uint16_t reg{0};
    std::int32_t tail{-1};
  };

  // ---- emission helpers -----------------------------------------------------

  std::int32_t emit(FInstr instr) {
    prog_.code.push_back(instr);
    return static_cast<std::int32_t>(prog_.code.size()) - 1;
  }

  [[nodiscard]] std::int32_t here() const {
    return static_cast<std::int32_t>(prog_.code.size());
  }

  void patch(std::int32_t at, std::int32_t target) {
    prog_.code[static_cast<std::size_t>(at)].jump = target;
  }

  // ---- registers ------------------------------------------------------------

  std::uint16_t persistent(Value init) {
    const std::size_t i = persist_init_.size();
    if (i >= kTempFlag) bail("register file overflow");
    persist_init_.push_back(init);
    return static_cast<std::uint16_t>(i);
  }

  std::uint16_t temp() {
    const std::uint16_t t = temp_top_++;
    if (t >= kTempFlag) bail("register file overflow");
    max_temps_ = std::max(max_temps_, temp_top_);
    return static_cast<std::uint16_t>(kTempFlag | t);
  }

  std::uint16_t const_reg(const Value& v) {
    std::uint64_t bits;
    if (v.is_int()) {
      bits = static_cast<std::uint64_t>(v.as_int());
    } else {
      const double d = v.as_double();
      std::memcpy(&bits, &d, sizeof(bits));
    }
    const auto key = std::make_pair(v.is_int(), bits);
    auto it = const_pool_.find(key);
    if (it != const_pool_.end()) return it->second;
    const std::uint16_t r = persistent(v);
    const_pool_.emplace(key, r);
    return r;
  }

  std::uint16_t local(const std::string& name) {
    auto it = local_slot_.find(name);
    if (it != local_slot_.end()) return it->second;
    const std::uint16_t r = persistent(Value());
    local_slot_.emplace(name, r);
    return r;
  }

  // Store an expression result into a persistent register, retargeting the
  // producing instruction when that is provably equivalent (the producer is
  // the straight-line tail writing a temp nothing else reads).
  void move_into(std::uint16_t dst, const ExprRes& v) {
    if (v.tail >= 0 && (v.reg & kTempFlag) &&
        prog_.code[static_cast<std::size_t>(v.tail)].dst == v.reg) {
      prog_.code[static_cast<std::size_t>(v.tail)].dst = dst;
      return;
    }
    emit({FOp::Move, 0, CountTag::None, dst, v.reg});
  }

  // ---- expressions ----------------------------------------------------------

  ExprRes expr(const ExprP& e) {
    switch (e->kind) {
      case Expr::Kind::IntConst:
        return {const_reg(Value(e->ival)), -1};
      case Expr::Kind::FloatConst:
        return {const_reg(Value(e->fval)), -1};
      case Expr::Kind::Var: {
        if (assigned_.count(e->name) != 0) return {local_slot_.at(e->name), -1};
        auto s = scalar_slot_.find(e->name);
        if (s != scalar_slot_.end()) {
          const std::uint16_t r = temp();
          const std::int32_t i =
              emit({FOp::LoadScalar, 0, CountTag::Mem, r, s->second});
          return {r, i};
        }
        bail("read of undefined or possibly-unassigned variable '" + e->name +
             "'");
      }
      case Expr::Kind::ArrayRef: {
        auto a = array_slot_.find(e->name);
        if (a == array_slot_.end()) bail("undefined array '" + e->name + "'");
        const ExprRes idx = expr(e->a);
        const std::uint16_t r = temp();
        const std::int32_t i =
            emit({FOp::LoadElem, 0, CountTag::Mem, r, a->second, idx.reg});
        return {r, i};
      }
      case Expr::Kind::Peek: {
        const ExprRes off = expr(e->a);
        const std::uint16_t r = temp();
        const std::int32_t i =
            emit({FOp::RPeek, 0, CountTag::Channel, r, off.reg});
        return {r, i};
      }
      case Expr::Kind::Pop: {
        const std::uint16_t r = temp();
        const std::int32_t i = emit({FOp::RPop, 0, CountTag::Channel, r});
        return {r, i};
      }
      case Expr::Kind::Bin: {
        if (e->bop == BinOp::LAnd || e->bop == BinOp::LOr) {
          return short_circuit(e);
        }
        const ExprRes a = expr(e->a);
        const ExprRes b = expr(e->b);
        const std::uint16_t r = temp();
        const std::int32_t i =
            emit({FOp::Bin, static_cast<std::uint8_t>(e->bop),
                  bin_tag(e->bop), r, a.reg, b.reg});
        return {r, i};
      }
      case Expr::Kind::Un: {
        const ExprRes a = expr(e->a);
        const std::uint16_t r = temp();
        const std::int32_t i = emit({FOp::Un, static_cast<std::uint8_t>(e->uop),
                                     un_tag(e->uop), r, a.reg});
        return {r, i};
      }
      case Expr::Kind::Cond: {
        // The tree interpreter counts one int op for the selection, then
        // evaluates only the taken branch.
        emit({FOp::Tally, 1, CountTag::IntOp});
        const ExprRes c = expr(e->a);
        const std::uint16_t dest = temp();
        const std::int32_t jf = emit({FOp::JmpIfFalse, 0, CountTag::None, 0,
                                      c.reg});
        move_into(dest, expr(e->b));
        const std::int32_t j = emit({FOp::Jmp});
        patch(jf, here());
        move_into(dest, expr(e->c));
        patch(j, here());
        return {dest, -1};
      }
    }
    bail("unhandled expr kind");
  }

  // LAnd / LOr with the tree interpreter's exact semantics: one int op
  // counted up front, right operand evaluated only when needed, result is a
  // bool-valued (integer) Value.
  ExprRes short_circuit(const ExprP& e) {
    const bool is_and = e->bop == BinOp::LAnd;
    emit({FOp::Tally, 1, CountTag::IntOp});
    const ExprRes a = expr(e->a);
    const std::uint16_t dest = temp();
    const std::int32_t jshort =
        emit({is_and ? FOp::JmpIfFalse : FOp::JmpIfTrue, 0, CountTag::None, 0,
              a.reg});
    const ExprRes b = expr(e->b);
    emit({FOp::Truthy, 0, CountTag::None, dest, b.reg});
    const std::int32_t j = emit({FOp::Jmp});
    patch(jshort, here());
    emit({FOp::Move, 0, CountTag::None, dest, const_reg(Value(!is_and))});
    patch(j, here());
    return {dest, -1};
  }

  // ---- statements -----------------------------------------------------------

  void stmt(const StmtP& s) {
    if (!s) return;
    temp_top_ = 0;
    switch (s->kind) {
      case Stmt::Kind::Block:
        for (const auto& c : s->stmts) stmt(c);
        break;
      case Stmt::Kind::Assign: {
        const ExprRes v = expr(s->value);
        auto sc = scalar_slot_.find(s->name);
        if (sc != scalar_slot_.end()) {
          emit({FOp::StoreScalar, 0, CountTag::Mem, v.reg, sc->second});
        } else {
          move_into(local(s->name), v);
          assigned_.insert(s->name);
        }
        break;
      }
      case Stmt::Kind::ArrayAssign: {
        auto a = array_slot_.find(s->name);
        if (a == array_slot_.end()) bail("undefined array '" + s->name + "'");
        const ExprRes idx = expr(s->index);
        const ExprRes val = expr(s->value);
        emit({FOp::StoreElem, 0, CountTag::Mem, val.reg, a->second, idx.reg});
        break;
      }
      case Stmt::Kind::Push: {
        const ExprRes v = expr(s->value);
        emit({FOp::RPush, 0, CountTag::Channel, v.reg});
        break;
      }
      case Stmt::Kind::PopN: {
        const ExprRes n = expr(s->index);
        emit({FOp::RPopN, 0, CountTag::None, 0, n.reg});
        break;
      }
      case Stmt::Kind::For: {
        // The loop variable is an invocation-local rebound from a hidden
        // induction register each iteration (body assignments to it cannot
        // change the trip count, exactly as in the tree interpreter).  A
        // loop variable shadowing a state scalar would make reads after the
        // loop depend on the trip count; out of the subset.
        if (scalar_slot_.count(s->name) != 0) {
          bail("for variable '" + s->name + "' shadows a state scalar");
        }
        const std::uint16_t ri = persistent(Value());
        const std::uint16_t rhi = persistent(Value());
        const std::uint16_t rstep = persistent(Value());
        // Bounds coerce through as_int() exactly as in the tree interpreter
        // (uncounted, like any Value coercion).
        const auto int_into = [&](std::uint16_t dst, const ExprRes& v) {
          emit({FOp::Un, static_cast<std::uint8_t>(UnOp::ToInt),
                CountTag::None, dst, v.reg});
        };
        int_into(ri, expr(s->lo));
        int_into(rhi, expr(s->hi));
        int_into(rstep, s->step ? expr(s->step)
                                : ExprRes{const_reg(Value(std::int64_t{1})), -1});
        emit({FOp::CheckStep, 0, CountTag::None, 0, rstep});
        const std::int32_t ltest = here();
        const std::int32_t jge =
            emit({FOp::JmpIfGe, 0, CountTag::None, 0, ri, rhi});
        emit({FOp::Tally, 2, CountTag::IntOp});  // increment + bound compare
        const std::uint16_t slot = local(s->name);
        emit({FOp::Move, 0, CountTag::None, slot, ri});
        const std::set<std::string> snapshot = assigned_;
        assigned_.insert(s->name);
        stmt(s->body);
        emit({FOp::ForInc, 0, CountTag::None, ri, rstep});
        FInstr back{FOp::Jmp};
        back.jump = ltest;
        emit(back);
        patch(jge, here());
        // Zero-trip loops leave body assignments (and a previously-unset
        // loop variable) undefined.
        assigned_ = snapshot;
        break;
      }
      case Stmt::Kind::If: {
        emit({FOp::Tally, 1, CountTag::IntOp});
        const ExprRes c = expr(s->cond);
        const std::int32_t jf =
            emit({FOp::JmpIfFalse, 0, CountTag::None, 0, c.reg});
        const std::set<std::string> snapshot = assigned_;
        stmt(s->body);
        if (s->elseBody) {
          const std::set<std::string> after_then = assigned_;
          const std::int32_t j = emit({FOp::Jmp});
          patch(jf, here());
          assigned_ = snapshot;
          stmt(s->elseBody);
          // Definitely assigned only if both branches assign.
          std::set<std::string> both;
          for (const auto& n : after_then) {
            if (assigned_.count(n) != 0) both.insert(n);
          }
          assigned_ = std::move(both);
          patch(j, here());
        } else {
          patch(jf, here());
          assigned_ = snapshot;
        }
        break;
      }
      case Stmt::Kind::Send:
        bail("teleport-send");  // compile_filter refuses these up front
    }
  }

  // Rebase flagged temporaries above the persistent registers and build the
  // register template.
  void finalize() {
    const std::size_t n_persist = persist_init_.size();
    if (n_persist + max_temps_ >= kTempFlag) bail("register file overflow");
    const auto rebase = [&](std::uint16_t& r) {
      if (r & kTempFlag) {
        r = static_cast<std::uint16_t>(n_persist + (r & ~kTempFlag));
      }
    };
    for (FInstr& I : prog_.code) for_each_reg(I, rebase);
    prog_.reg_init = std::move(persist_init_);
    prog_.reg_init.resize(n_persist + max_temps_);
  }

  const std::unordered_map<std::string, std::uint16_t>& scalar_slot_;
  const std::unordered_map<std::string, std::uint16_t>& array_slot_;
  std::unordered_map<std::string, std::uint16_t> local_slot_;
  std::map<std::pair<bool, std::uint64_t>, std::uint16_t> const_pool_;
  std::set<std::string> assigned_;  // definitely-assigned locals
  std::vector<Value> persist_init_;
  std::uint16_t temp_top_{0};
  std::uint16_t max_temps_{0};
  CompiledProgram prog_;
};

}  // namespace

CompiledFilterP compile_filter(const ir::FilterSpec& spec, std::string* reason) {
  // Send argument marshaling builds tagged Values; no compiled engine runs
  // it, so a sending filter stays on the tree interpreter.
  if (ir::stmt_sends(spec.work)) {
    if (reason) *reason = "teleport-send";
    return nullptr;
  }
  try {
    auto out = std::make_shared<CompiledFilter>();
    out->name = spec.name;
    out->peek_window = std::max<std::int64_t>(spec.peek, spec.pop);
    std::unordered_map<std::string, std::uint16_t> scalars, arrays;
    for (const auto& d : spec.state) {
      if (d.is_array) {
        if (arrays.emplace(d.name, static_cast<std::uint16_t>(
                                       out->array_slots.size()))
                .second) {
          out->array_slots.push_back(d.name);
        }
      } else if (scalars
                     .emplace(d.name,
                              static_cast<std::uint16_t>(out->scalar_slots.size()))
                     .second) {
        out->scalar_slots.push_back(d.name);
      }
    }
    FnCompiler fc(scalars, arrays);
    out->work = fc.compile(spec.work);
    return out;
  } catch (const Unsupported& u) {
    if (reason) *reason = u.reason;
    return nullptr;
  }
}

TypedFilterP typed_compile(const ir::FilterSpec& spec,
                           const CompiledFilterP& base,
                           const FilterState& state, std::string* reason) {
  if (!base) return nullptr;
  // Teleport handlers may retag any state slot between firings, which would
  // invalidate the inferred classes.
  if (!spec.handlers.empty()) {
    if (reason) *reason = "has-handlers";
    return nullptr;
  }

  // Seed state classes from the *current* (post-init) tags: init has already
  // run by the time specialization happens, so the bound state's tags are
  // the ground truth the classes must be consistent with.
  std::vector<Tag> scalar_seed, array_seed;
  scalar_seed.reserve(base->scalar_slots.size());
  for (const auto& name : base->scalar_slots) {
    scalar_seed.push_back(value_tag(state.scalars.at(name)));
  }
  array_seed.reserve(base->array_slots.size());
  for (const auto& name : base->array_slots) {
    const auto& arr = state.arrays.at(name);
    Tag t = arr.empty() ? Tag::Int : value_tag(arr.front());
    for (const auto& v : arr) t = join_tag(t, value_tag(v));
    array_seed.push_back(t);
  }

  auto out = std::make_shared<TypedFilter>();
  out->base = base;
  if (!typed_lower(*base, std::move(scalar_seed), std::move(array_seed),
                   &out->work, reason)) {
    return nullptr;
  }
  return out;
}

}  // namespace sit::runtime
