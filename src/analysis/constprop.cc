#include "analysis/constprop.h"

#include <map>

#include "analysis/cfg.h"
#include "runtime/eval_ops.h"

namespace sit::analysis {

using ir::BinOp;
using ir::Expr;
using ir::ExprP;
using ir::Stmt;
using ir::StmtP;
using ir::UnOp;
using ir::Value;

namespace {

// Per-variable lattice cell: absent from the map = unassigned (bottom),
// {nac=false, v} = known exact value, {nac=true} = not-a-constant (top).
struct Cell {
  bool nac{false};
  Value v;
};

using Env = std::map<std::string, Cell>;

bool value_eq(const Value& a, const Value& b) {
  if (a.is_int() != b.is_int()) return false;
  return a.is_int() ? a.as_int() == b.as_int() : a.as_double() == b.as_double();
}

// Join `from` into `into`; returns true if `into` changed.  A variable
// assigned on one path but not the other joins to NAC: folding its use would
// bake in a value the other path never produced.
bool join_env(Env& into, const Env& from, const CfgNode* /*widen_at*/) {
  bool changed = false;
  for (auto& [name, cell] : into) {
    if (cell.nac) continue;
    auto it = from.find(name);
    if (it == from.end() || it->second.nac || !value_eq(cell.v, it->second.v)) {
      cell.nac = true;
      changed = true;
    }
  }
  for (const auto& [name, cell] : from) {
    auto it = into.find(name);
    if (it == into.end()) {
      into[name] = Cell{true, Value{}};
      changed = true;
    }
    (void)cell;
  }
  return changed;
}

std::optional<Value> eval_const(const ExprP& e, const Env& env) {
  if (!e) return std::nullopt;
  switch (e->kind) {
    case Expr::Kind::IntConst:
      return Value(e->ival);
    case Expr::Kind::FloatConst:
      return Value(e->fval);
    case Expr::Kind::Var: {
      auto it = env.find(e->name);
      if (it == env.end() || it->second.nac) return std::nullopt;
      return it->second.v;
    }
    case Expr::Kind::Bin: {
      const auto a = eval_const(e->a, env);
      // Short-circuit identities; sound because the interpreter never
      // evaluates the dead operand.
      if (a) {
        if (e->bop == BinOp::LOr && a->truthy()) return Value(true);
        if (e->bop == BinOp::LAnd && !a->truthy()) return Value(false);
      }
      const auto b = eval_const(e->b, env);
      if (!a || !b) return std::nullopt;
      return runtime::fold(e->bop, *a, *b);
    }
    case Expr::Kind::Un: {
      const auto a = eval_const(e->a, env);
      if (!a) return std::nullopt;
      return runtime::apply_un(e->uop, *a);
    }
    case Expr::Kind::Cond: {
      const auto c = eval_const(e->a, env);
      if (!c) return std::nullopt;
      return eval_const(c->truthy() ? e->b : e->c, env);
    }
    default:  // Peek, Pop, ArrayRef: never compile-time constants
      return std::nullopt;
  }
}

void transfer(const CfgNode& node, Env& env) {
  switch (node.kind) {
    case CfgNode::Kind::Stmt:
      if (node.stmt->kind == Stmt::Kind::Assign) {
        const auto v = eval_const(node.stmt->value, env);
        env[node.stmt->name] = v ? Cell{false, *v} : Cell{true, Value{}};
      }
      break;
    case CfgNode::Kind::ForInit:
    case CfgNode::Kind::ForInc:
      // The loop variable takes many values across iterations; the per-node
      // environments inside the body must not fold it.  (The linear
      // extractor unrolls constant-bound loops itself, so nothing is lost.)
      env[node.stmt->name] = Cell{true, Value{}};
      break;
    default:
      break;
  }
}

ExprP literal(const Value& v) {
  return v.is_int() ? ir::iconst(v.as_int()) : ir::fconst(v.as_double());
}

bool is_literal(const ExprP& e) {
  return e && (e->kind == Expr::Kind::IntConst || e->kind == Expr::Kind::FloatConst);
}

// Rewrites the AST using the solved per-node environments.
class Folder {
 public:
  Folder(Cfg cfg, const ForwardSolver<Env>& solver, std::string where)
      : cfg_(std::move(cfg)), solver_(solver), where_(std::move(where)) {}

  StmtP fold_stmt(const StmtP& s) {
    if (!s) return nullptr;
    switch (s->kind) {
      case Stmt::Kind::Block: {
        std::vector<StmtP> out;
        out.reserve(s->stmts.size());
        for (const auto& c : s->stmts) {
          StmtP f = fold_stmt(c);
          if (f) out.push_back(std::move(f));
        }
        return ir::block(std::move(out));
      }
      case Stmt::Kind::If: {
        const int id = take_node(s.get());
        const Env& env = solver_.in(id);
        const std::string& at = cfg_.nodes[static_cast<std::size_t>(id)].where;
        ExprP cond = fold_expr(s->cond, env, at);
        // The recursive folds below must run even for a constant condition:
        // they consume this statement's inner CFG occurrences in order.
        StmtP body = fold_stmt(s->body);
        StmtP els = fold_stmt(s->elseBody);
        if (is_literal(cond)) {
          const bool taken = cond->kind == Expr::Kind::IntConst
                                 ? cond->ival != 0
                                 : cond->fval != 0.0;
          StmtP pick = taken ? body : els;
          return pick ? pick : ir::block({});
        }
        return els ? ir::if_else(cond, body ? body : ir::block({}), els)
                   : ir::if_then(cond, body ? body : ir::block({}));
      }
      case Stmt::Kind::For: {
        const int id = take_node(s.get());
        const Env& env = solver_.in(id);
        const std::string& at = cfg_.nodes[static_cast<std::size_t>(id)].where;
        ExprP lo = fold_expr(s->lo, env, at);
        ExprP hi = fold_expr(s->hi, env, at);
        ExprP step = fold_expr(s->step, env, at);
        StmtP body = fold_stmt(s->body);
        if (lo && hi && lo->kind == Expr::Kind::IntConst &&
            hi->kind == Expr::Kind::IntConst && lo->ival >= hi->ival) {
          return nullptr;  // provably zero-trip: delete the loop
        }
        return ir::for_loop_step(s->name, lo, hi, step,
                                 body ? body : ir::block({}));
      }
      default: {
        const int id = take_node(s.get());
        const Env& env = solver_.in(id);
        const std::string& at = cfg_.nodes[static_cast<std::size_t>(id)].where;
        Stmt copy = *s;
        copy.index = fold_expr(s->index, env, at);
        copy.value = fold_expr(s->value, env, at);
        for (auto& a : copy.args) a = fold_expr(a, env, at);
        return std::make_shared<const Stmt>(std::move(copy));
      }
    }
  }

  std::vector<Diagnostic> diagnostics;

 private:
  int take_node(const Stmt* s) {
    auto& ids = cfg_.stmt_nodes[s];
    const int id = ids.front();
    if (ids.size() > 1) ids.erase(ids.begin());
    return id;
  }

  ExprP fold_expr(const ExprP& e, const Env& env, const std::string& at) {
    if (!e) return nullptr;
    switch (e->kind) {
      case Expr::Kind::IntConst:
      case Expr::Kind::FloatConst:
      case Expr::Kind::Pop:
        return e;
      case Expr::Kind::Var: {
        auto it = env.find(e->name);
        if (it != env.end() && !it->second.nac) return literal(it->second.v);
        return e;
      }
      case Expr::Kind::ArrayRef:
        return ir::aref(e->name, fold_expr(e->a, env, at));
      case Expr::Kind::Peek:
        return ir::peek(fold_expr(e->a, env, at));
      case Expr::Kind::Bin: {
        ExprP a = fold_expr(e->a, env, at);
        if (is_literal(a)) {
          const Value av = a->kind == Expr::Kind::IntConst ? Value(a->ival)
                                                           : Value(a->fval);
          // Short-circuit folds kill the never-evaluated right operand.
          if (e->bop == BinOp::LOr && av.truthy()) return ir::iconst(1);
          if (e->bop == BinOp::LAnd && !av.truthy()) return ir::iconst(0);
        }
        ExprP b = fold_expr(e->b, env, at);
        if (is_literal(a) && is_literal(b)) {
          const Value av = a->kind == Expr::Kind::IntConst ? Value(a->ival)
                                                           : Value(a->fval);
          const Value bv = b->kind == Expr::Kind::IntConst ? Value(b->ival)
                                                           : Value(b->fval);
          if (auto r = runtime::fold(e->bop, av, bv)) return literal(*r);
          if (e->bop == BinOp::Div || e->bop == BinOp::Mod) {
            diagnostics.push_back(error(
                "constprop", where_,
                std::string(e->bop == BinOp::Div ? "division" : "modulo") +
                    " by constant zero",
                ir::to_string(e) + "  (at " + at + ")"));
          }
        }
        return ir::bin(e->bop, a, b);
      }
      case Expr::Kind::Un: {
        ExprP a = fold_expr(e->a, env, at);
        if (is_literal(a)) {
          const Value av = a->kind == Expr::Kind::IntConst ? Value(a->ival)
                                                           : Value(a->fval);
          return literal(runtime::apply_un(e->uop, av));
        }
        return ir::un(e->uop, a);
      }
      case Expr::Kind::Cond: {
        ExprP c = fold_expr(e->a, env, at);
        if (is_literal(c)) {
          const bool taken =
              c->kind == Expr::Kind::IntConst ? c->ival != 0 : c->fval != 0.0;
          // Lazy arms: the dropped one never evaluates at runtime.
          return fold_expr(taken ? e->b : e->c, env, at);
        }
        return ir::cond(c, fold_expr(e->b, env, at), fold_expr(e->c, env, at));
      }
    }
    return e;
  }

  Cfg cfg_;
  const ForwardSolver<Env>& solver_;
  std::string where_;
};

}  // namespace

FoldResult fold_body(const StmtP& body, const std::string& where) {
  FoldResult r;
  if (!body) {
    return r;
  }
  Cfg cfg = build_cfg(body, where);
  ForwardSolver<Env> solver(cfg, transfer, join_env);
  solver.run(Env{});
  Folder folder(std::move(cfg), solver, where);
  r.body = folder.fold_stmt(body);
  r.diagnostics = std::move(folder.diagnostics);
  return r;
}

ir::StmtP fold_work(const ir::FilterSpec& spec) {
  return fold_body(spec.work, spec.name + "/work").body;
}

}  // namespace sit::analysis
