#include "analysis/intervals.h"

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "analysis/cfg.h"
#include "analysis/interval.h"

namespace sit::analysis {

using ir::Expr;
using ir::ExprP;
using ir::Stmt;
using ir::StmtP;

namespace {

struct IvState {
  std::map<std::string, Interval> vars;  // integer scalars only
  Interval pops{0, 0};                   // pops so far this invocation
};

bool join_interval(Interval& into, const Interval& from, bool widen) {
  const Interval j = widen ? into.widen(into.join(from)) : into.join(from);
  if (j == into) return false;
  into = j;
  return true;
}

// Variables absent from a map are bottom (never assigned on that path), so
// the join keeps the other side's fact.  At a loop head only the variables
// the loop writes (loop_mods) widen: everything else is invariant around the
// back edge and stabilizes at whatever the enclosing level provides.  `pops`
// always widens -- it is monotone per firing, so widening costs nothing when
// the loop performs no channel ops.
bool join_state(IvState& into, const IvState& from, const CfgNode* widen_at) {
  bool changed = join_interval(into.pops, from.pops, widen_at != nullptr);
  for (const auto& [name, iv] : from.vars) {
    auto it = into.vars.find(name);
    if (it == into.vars.end()) {
      into.vars[name] = iv;
      changed = true;
    } else {
      const bool widen =
          widen_at != nullptr && widen_at->loop_mods.count(name) > 0;
      changed |= join_interval(it->second, iv, widen);
    }
  }
  return changed;
}

Interval eval_iv(const ExprP& e, const IvState& st) {
  if (!e) return Interval::top();
  switch (e->kind) {
    case Expr::Kind::IntConst:
      return Interval::exact(e->ival);
    case Expr::Kind::FloatConst:
      return Interval::top();  // non-integer: not tracked
    case Expr::Kind::Var: {
      auto it = st.vars.find(e->name);
      return it == st.vars.end() ? Interval::top() : it->second;
    }
    case Expr::Kind::Peek:
    case Expr::Kind::Pop:
    case Expr::Kind::ArrayRef:
      return Interval::top();  // channel/array data is unbounded here
    case Expr::Kind::Bin: {
      const Interval a = eval_iv(e->a, st);
      const Interval b = eval_iv(e->b, st);
      using B = ir::BinOp;
      switch (e->bop) {
        case B::Add: return iv_add(a, b);
        case B::Sub: return iv_sub(a, b);
        case B::Mul: return iv_mul(a, b);
        case B::Div:
          return b.is_exact() ? iv_div_pos(a, b.lo) : Interval::top();
        case B::Mod:
          return b.is_exact() ? iv_mod_pos(a, b.lo) : Interval::top();
        case B::Min: return iv_min(a, b);
        case B::Max: return iv_max(a, b);
        case B::BAnd: return iv_band(a, b);
        case B::Shl:
          return b.is_exact() ? iv_shl_const(a, b.lo) : Interval::top();
        case B::Shr:
          return b.is_exact() ? iv_shr_const(a, b.lo) : Interval::top();
        case B::Lt: case B::Le: case B::Gt: case B::Ge:
        case B::Eq: case B::Ne: case B::LAnd: case B::LOr:
          return Interval::range(0, 1);
        default:
          return Interval::top();
      }
    }
    case Expr::Kind::Un: {
      const Interval a = eval_iv(e->a, st);
      using U = ir::UnOp;
      switch (e->uop) {
        case U::Neg: return iv_neg(a);
        case U::ToInt: return a;  // identity on already-integer facts
        case U::LNot: return Interval::range(0, 1);
        case U::Abs: return iv_abs(a);
        default:
          return Interval::top();
      }
    }
    case Expr::Kind::Cond:
      return eval_iv(e->b, st).join(eval_iv(e->c, st));
  }
  return Interval::top();
}

// How many pops evaluating `e` performs: an interval because short-circuit
// operators and ?: may skip operands.
Interval pops_of(const ExprP& e, const IvState& st) {
  if (!e) return Interval::exact(0);
  switch (e->kind) {
    case Expr::Kind::Pop:
      return Interval::exact(1);
    case Expr::Kind::IntConst:
    case Expr::Kind::FloatConst:
    case Expr::Kind::Var:
      return Interval::exact(0);
    case Expr::Kind::Peek:
    case Expr::Kind::ArrayRef:
      return pops_of(e->a, st);
    case Expr::Kind::Un:
      return pops_of(e->a, st);
    case Expr::Kind::Bin: {
      const Interval a = pops_of(e->a, st);
      const Interval b = pops_of(e->b, st);
      if (e->bop == ir::BinOp::LAnd || e->bop == ir::BinOp::LOr) {
        return {a.lo, detail::sat_add(a.hi, b.hi)};  // rhs may be skipped
      }
      return iv_count_add(a, b);
    }
    case Expr::Kind::Cond: {
      const Interval a = pops_of(e->a, st);
      const Interval bc = pops_of(e->b, st).join(pops_of(e->c, st));
      return iv_count_add(a, bc);
    }
  }
  return Interval::exact(0);
}

Interval pops_of_stmt(const Stmt* s, const IvState& st) {
  Interval p = Interval::exact(0);
  switch (s->kind) {
    case Stmt::Kind::Assign:
    case Stmt::Kind::Push:
      return pops_of(s->value, st);
    case Stmt::Kind::ArrayAssign:
      return iv_count_add(pops_of(s->index, st), pops_of(s->value, st));
    case Stmt::Kind::PopN: {
      // pop(n) consumes n items on top of any pops inside `n` itself.
      Interval n = eval_iv(s->index, st);
      if (n.lo < 0) n.lo = 0;  // runtime loop executes max(n, 0) times
      return iv_count_add(pops_of(s->index, st), n);
    }
    case Stmt::Kind::Send:
      for (const auto& a : s->args) p = iv_count_add(p, pops_of(a, st));
      return p;
    default:
      return p;
  }
}

// Clamp the loop variable with the branch outcome at ForBody/ForExit nodes.
void apply_assume(const CfgNode& node, IvState& st) {
  const Stmt* f = node.stmt;
  auto it = st.vars.find(f->name);
  if (it == st.vars.end()) return;
  const Interval hi = eval_iv(f->hi, st);
  Interval& v = it->second;
  if (node.kind == CfgNode::Kind::ForBody) {
    if (hi.hi != Interval::kMax && hi.hi - 1 >= v.lo && hi.hi - 1 < v.hi) {
      v.hi = hi.hi - 1;  // inside the body: var < hi
    }
  } else {  // ForExit: var >= hi on the fallthrough path
    if (hi.lo != Interval::kMin && hi.lo > v.lo && hi.lo <= v.hi) {
      v.lo = hi.lo;
    }
  }
}

void transfer(const CfgNode& node, IvState& st) {
  switch (node.kind) {
    case CfgNode::Kind::Stmt: {
      const Interval p = pops_of_stmt(node.stmt, st);
      if (node.stmt->kind == Stmt::Kind::Assign) {
        st.vars[node.stmt->name] = eval_iv(node.stmt->value, st);
      }
      st.pops = iv_count_add(st.pops, p);
      break;
    }
    case CfgNode::Kind::Branch:
      st.pops = iv_count_add(st.pops, pops_of(node.stmt->cond, st));
      break;
    case CfgNode::Kind::ForInit:
      st.pops = iv_count_add(st.pops, pops_of(node.stmt->lo, st));
      st.vars[node.stmt->name] = eval_iv(node.stmt->lo, st);
      break;
    case CfgNode::Kind::ForTest:
      st.pops = iv_count_add(st.pops, pops_of(node.stmt->hi, st));
      break;
    case CfgNode::Kind::ForBody:
    case CfgNode::Kind::ForExit:
      apply_assume(node, st);
      break;
    case CfgNode::Kind::ForInc: {
      st.pops = iv_count_add(st.pops, pops_of(node.stmt->step, st));
      auto it = st.vars.find(node.stmt->name);
      if (it != st.vars.end()) {
        it->second = iv_add(it->second, eval_iv(node.stmt->step, st));
      }
      break;
    }
    default:
      break;
  }
}

// ---- site checking -----------------------------------------------------------

class Checker {
 public:
  Checker(const ir::FilterSpec& spec, Cfg cfg, const ForwardSolver<IvState>& sol,
          bool in_work, std::vector<Diagnostic>& out)
      : spec_(spec), cfg_(std::move(cfg)), sol_(sol), in_work_(in_work),
        out_(out) {
    for (const auto& d : spec.state) {
      if (d.is_array) array_size_[d.name] = d.size;
    }
    window_ = std::max(spec.peek, spec.pop);
  }

  void walk(const StmtP& s) {
    if (!s) return;
    switch (s->kind) {
      case Stmt::Kind::Block:
        for (const auto& c : s->stmts) walk(c);
        return;
      case Stmt::Kind::If: {
        const auto [st, at] = state_at(s.get());
        IvState cur = st;
        check_expr(s->cond, cur, at);
        walk(s->body);
        walk(s->elseBody);
        return;
      }
      case Stmt::Kind::For: {
        const auto [st, at] = state_at(s.get());
        IvState cur = st;
        check_expr(s->lo, cur, at);
        check_expr(s->hi, cur, at);
        check_expr(s->step, cur, at);
        walk(s->body);
        return;
      }
      default: {
        const auto [st, at] = state_at(s.get());
        IvState cur = st;
        if (s->kind == Stmt::Kind::ArrayAssign) {
          check_expr(s->index, cur, at);
          check_array(s->name, s->index, cur, at);
          check_expr(s->value, cur, at);
        } else if (s->kind == Stmt::Kind::Send) {
          for (const auto& a : s->args) check_expr(a, cur, at);
        } else {
          check_expr(s->index, cur, at);
          check_expr(s->value, cur, at);
        }
        return;
      }
    }
  }

 private:
  std::pair<IvState, std::string> state_at(const Stmt* s) {
    auto& ids = cfg_.stmt_nodes[s];
    const int id = ids.front();
    if (ids.size() > 1) ids.erase(ids.begin());
    if (!sol_.reached(id)) {
      IvState dead;  // unreachable code: check against top, stays silent
      dead.pops = Interval::range(0, 0);
      return {dead, cfg_.nodes[static_cast<std::size_t>(id)].where};
    }
    return {sol_.in(id), cfg_.nodes[static_cast<std::size_t>(id)].where};
  }

  // Walk `e` in evaluation order, advancing `cur.pops` across pops and
  // checking every peek/array site against the running state.
  void check_expr(const ExprP& e, IvState& cur, const std::string& at) {
    if (!e) return;
    switch (e->kind) {
      case Expr::Kind::IntConst:
      case Expr::Kind::FloatConst:
      case Expr::Kind::Var:
        return;
      case Expr::Kind::Pop:
        cur.pops = iv_count_add(cur.pops, Interval::exact(1));
        return;
      case Expr::Kind::Peek: {
        check_expr(e->a, cur, at);
        check_peek(e, cur, at);
        return;
      }
      case Expr::Kind::ArrayRef:
        check_expr(e->a, cur, at);
        check_array(e->name, e->a, cur, at);
        return;
      case Expr::Kind::Un:
        check_expr(e->a, cur, at);
        return;
      case Expr::Kind::Bin: {
        check_expr(e->a, cur, at);
        if (e->bop == ir::BinOp::LAnd || e->bop == ir::BinOp::LOr) {
          // rhs evaluates on only some paths; its pops may or may not land.
          IvState rhs = cur;
          check_expr(e->b, rhs, at);
          cur.pops = Interval{cur.pops.lo, rhs.pops.hi};
          return;
        }
        check_expr(e->b, cur, at);
        return;
      }
      case Expr::Kind::Cond: {
        check_expr(e->a, cur, at);
        IvState t = cur;
        IvState f = cur;
        check_expr(e->b, t, at);
        check_expr(e->c, f, at);
        cur.pops = t.pops.join(f.pops);
        return;
      }
    }
  }

  void check_peek(const ExprP& e, const IvState& cur, const std::string& at) {
    if (!in_work_) {
      out_.push_back(error("bounds", spec_.name,
                           "peek outside the work function", "at " + at));
      return;
    }
    const Interval off = eval_iv(e->a, cur);
    if (off.lo < 0) {
      out_.push_back(error(
          "bounds", spec_.name, "peek offset may be negative",
          ir::to_string(e) + "  offset in " + off.str() + "  (at " + at + ")"));
      return;
    }
    // Valid iff pops_so_far + offset < window.
    const Interval reach = iv_count_add(cur.pops, off);
    if (reach.hi > window_ - 1) {
      out_.push_back(error(
          "bounds", spec_.name,
          "peek may read beyond the declared window of " +
              std::to_string(window_),
          ir::to_string(e) + "  pops+offset in " + reach.str() + ", need <= " +
              std::to_string(window_ - 1) + "  (at " + at + ")"));
    }
  }

  void check_array(const std::string& name, const ExprP& idx,
                   const IvState& cur, const std::string& at) {
    auto it = array_size_.find(name);
    if (it == array_size_.end()) return;  // not a declared state array
    const std::int64_t size = it->second;
    const Interval iv = eval_iv(idx, cur);
    if (iv.lo >= 0 && iv.hi <= size - 1) return;
    out_.push_back(error(
        "bounds", spec_.name,
        "array index may be out of bounds for " + name + "[" +
            std::to_string(size) + "]",
        name + "[" + ir::to_string(idx) + "]  index in " + iv.str() +
            ", need [0, " + std::to_string(size - 1) + "]  (at " + at + ")"));
  }

  const ir::FilterSpec& spec_;
  Cfg cfg_;
  const ForwardSolver<IvState>& sol_;
  bool in_work_;
  std::vector<Diagnostic>& out_;
  std::map<std::string, std::int64_t> array_size_;
  int window_{0};
};

// State-variable facts carried between firings.
using StateEnv = std::map<std::string, Interval>;

// The inter-firing fixpoint widens a state fact in two steps: an endpoint
// that moved jumps first to +/-kStateWiden, then to infinity.  The finite
// step stops short of the int64 wrap, so a counter `count = (count + 1) % n`
// widened to [0, kStateWiden] still maps into [0, n-1] and narrowing
// recovers that; from [0, +inf], count + 1 may wrap negative.
constexpr std::int64_t kStateWiden = std::int64_t{1} << 62;

bool widen_state(Interval& into, const Interval& from) {
  const Interval j = into.join(from);
  Interval w = j;
  if (j.hi > into.hi) w.hi = j.hi <= kStateWiden ? kStateWiden : Interval::kMax;
  if (j.lo < into.lo) {
    w.lo = j.lo >= -kStateWiden ? -kStateWiden : Interval::kMin;
  }
  if (w == into) return false;
  into = w;
  return true;
}

StateEnv initial_state_env(const ir::FilterSpec& spec) {
  StateEnv env;
  for (const auto& d : spec.state) {
    if (d.is_array || !d.is_int) continue;
    // The runtime zero-fills integer scalars lacking an initializer.
    std::int64_t v = 0;
    if (!d.init.empty() && d.init[0].is_int()) v = d.init[0].as_int();
    env[d.name] = Interval::exact(v);
  }
  return env;
}

struct BodyRef {
  const StmtP* body;
  std::string where;
  bool is_work;
};

std::vector<BodyRef> bodies_of(const ir::FilterSpec& spec) {
  std::vector<BodyRef> bs;
  if (spec.work) bs.push_back({&spec.work, spec.name + "/work", true});
  for (const auto& [name, h] : spec.handlers) {
    if (h.body) bs.push_back({&h.body, spec.name + "/handler(" + name + ")", false});
  }
  return bs;
}

IvState entry_from(const StateEnv& env) {
  IvState st;
  st.vars = env;
  st.pops = Interval::exact(0);
  return st;
}

}  // namespace

void check_bounds(const ir::FilterSpec& spec, std::vector<Diagnostic>& out) {
  StateEnv env = initial_state_env(spec);

  // Flow declared initializers through the init function.
  if (spec.init) {
    Cfg cfg = build_cfg(spec.init, spec.name + "/init");
    ForwardSolver<IvState> sol(cfg, transfer, join_state);
    sol.run(entry_from(env));
    if (sol.exit_reached()) {
      for (auto& [name, iv] : env) {
        auto it = sol.exit_state().vars.find(name);
        if (it != sol.exit_state().vars.end()) iv = it->second;
      }
    }
  }

  const std::vector<BodyRef> bodies = bodies_of(spec);
  const StateEnv base = env;  // post-init facts: every firing sequence starts here

  // Outer fixpoint: state facts must be invariant across firings (work and
  // handler invocations interleave arbitrarily).
  for (int round = 0; round < 64; ++round) {
    bool changed = false;
    for (const BodyRef& b : bodies) {
      Cfg cfg = build_cfg(*b.body, b.where);
      ForwardSolver<IvState> sol(cfg, transfer, join_state);
      sol.run(entry_from(env));
      if (!sol.exit_reached()) continue;
      for (auto& [name, iv] : env) {
        auto it = sol.exit_state().vars.find(name);
        if (it != sol.exit_state().vars.end()) {
          changed |= round >= 3 ? widen_state(iv, it->second)
                                : join_interval(iv, it->second, false);
        }
      }
    }
    if (!changed) break;
  }

  // Narrowing: a widened fact can shrink back to  base ⊔ (what the bodies
  // actually produce from it) -- e.g. count widened to [0,2^62] recovers
  // [0,7] once the body's `(count+1)%8` is re-evaluated.  Accepting only
  // candidates inside the current fact keeps every step a sound invariant.
  for (int round = 0; round < 2; ++round) {
    StateEnv cand = base;
    for (const BodyRef& b : bodies) {
      Cfg cfg = build_cfg(*b.body, b.where);
      ForwardSolver<IvState> sol(cfg, transfer, join_state);
      sol.run(entry_from(env));
      if (!sol.exit_reached()) continue;
      for (auto& [name, iv] : cand) {
        auto it = sol.exit_state().vars.find(name);
        if (it != sol.exit_state().vars.end()) iv = iv.join(it->second);
      }
    }
    bool changed = false;
    for (auto& [name, iv] : env) {
      const Interval c = cand[name];
      if (!(c == iv) && c.within(iv.lo, iv.hi)) {
        iv = c;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Final pass with the invariant entry facts: solve once more per body and
  // check every site.
  if (spec.init) {
    StateEnv decl = initial_state_env(spec);
    Cfg cfg = build_cfg(spec.init, spec.name + "/init");
    ForwardSolver<IvState> sol(cfg, transfer, join_state);
    sol.run(entry_from(decl));
    Checker chk(spec, std::move(cfg), sol, /*in_work=*/false, out);
    chk.walk(spec.init);
  }
  for (const BodyRef& b : bodies) {
    Cfg cfg = build_cfg(*b.body, b.where);
    ForwardSolver<IvState> sol(cfg, transfer, join_state);
    sol.run(entry_from(env));
    Checker chk(spec, std::move(cfg), sol, b.is_work, out);
    chk.walk(*b.body);
  }
}

}  // namespace sit::analysis
