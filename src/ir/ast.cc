#include "ir/ast.h"

#include <set>
#include <sstream>

#include "ir/filter.h"

namespace sit::ir {

const char* to_string(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Min: return "min";
    case BinOp::Max: return "max";
    case BinOp::Pow: return "pow";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::LAnd: return "&&";
    case BinOp::LOr: return "||";
    case BinOp::BAnd: return "&";
    case BinOp::BOr: return "|";
    case BinOp::BXor: return "^";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
  }
  return "?";
}

const char* to_string(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::LNot: return "!";
    case UnOp::BNot: return "~";
    case UnOp::Sin: return "sin";
    case UnOp::Cos: return "cos";
    case UnOp::Tan: return "tan";
    case UnOp::Exp: return "exp";
    case UnOp::Log: return "log";
    case UnOp::Sqrt: return "sqrt";
    case UnOp::Abs: return "abs";
    case UnOp::Floor: return "floor";
    case UnOp::Ceil: return "ceil";
    case UnOp::Round: return "round";
    case UnOp::ToInt: return "(int)";
    case UnOp::ToFloat: return "(float)";
  }
  return "?";
}

namespace {
std::shared_ptr<Expr> make_expr(Expr::Kind k) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  return e;
}
std::shared_ptr<Stmt> make_stmt(Stmt::Kind k) {
  auto s = std::make_shared<Stmt>();
  s->kind = k;
  return s;
}
}  // namespace

ExprP iconst(std::int64_t v) {
  auto e = make_expr(Expr::Kind::IntConst);
  e->ival = v;
  return e;
}

ExprP fconst(double v) {
  auto e = make_expr(Expr::Kind::FloatConst);
  e->fval = v;
  return e;
}

ExprP var(std::string name) {
  auto e = make_expr(Expr::Kind::Var);
  e->name = std::move(name);
  return e;
}

ExprP aref(std::string name, ExprP index) {
  auto e = make_expr(Expr::Kind::ArrayRef);
  e->name = std::move(name);
  e->a = std::move(index);
  return e;
}

ExprP peek(ExprP index) {
  auto e = make_expr(Expr::Kind::Peek);
  e->a = std::move(index);
  return e;
}

ExprP pop() { return make_expr(Expr::Kind::Pop); }

ExprP bin(BinOp op, ExprP a, ExprP b) {
  auto e = make_expr(Expr::Kind::Bin);
  e->bop = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

ExprP un(UnOp op, ExprP a) {
  auto e = make_expr(Expr::Kind::Un);
  e->uop = op;
  e->a = std::move(a);
  return e;
}

ExprP cond(ExprP c, ExprP t, ExprP f) {
  auto e = make_expr(Expr::Kind::Cond);
  e->a = std::move(c);
  e->b = std::move(t);
  e->c = std::move(f);
  return e;
}

StmtP block(std::vector<StmtP> stmts) {
  auto s = make_stmt(Stmt::Kind::Block);
  s->stmts = std::move(stmts);
  return s;
}

StmtP assign(std::string name, ExprP value) {
  auto s = make_stmt(Stmt::Kind::Assign);
  s->name = std::move(name);
  s->value = std::move(value);
  return s;
}

StmtP array_assign(std::string name, ExprP index, ExprP value) {
  auto s = make_stmt(Stmt::Kind::ArrayAssign);
  s->name = std::move(name);
  s->index = std::move(index);
  s->value = std::move(value);
  return s;
}

StmtP push(ExprP value) {
  auto s = make_stmt(Stmt::Kind::Push);
  s->value = std::move(value);
  return s;
}

StmtP pop_n(ExprP count) {
  auto s = make_stmt(Stmt::Kind::PopN);
  s->index = std::move(count);
  return s;
}

StmtP for_loop(std::string v, ExprP lo, ExprP hi, StmtP body) {
  return for_loop_step(std::move(v), std::move(lo), std::move(hi), iconst(1),
                       std::move(body));
}

StmtP for_loop_step(std::string v, ExprP lo, ExprP hi, ExprP step, StmtP body) {
  auto s = make_stmt(Stmt::Kind::For);
  s->name = std::move(v);
  s->lo = std::move(lo);
  s->hi = std::move(hi);
  s->step = std::move(step);
  s->body = std::move(body);
  return s;
}

StmtP if_then(ExprP cond, StmtP body) {
  auto s = make_stmt(Stmt::Kind::If);
  s->cond = std::move(cond);
  s->body = std::move(body);
  return s;
}

StmtP if_else(ExprP cond, StmtP body, StmtP elseBody) {
  auto s = make_stmt(Stmt::Kind::If);
  s->cond = std::move(cond);
  s->body = std::move(body);
  s->elseBody = std::move(elseBody);
  return s;
}

StmtP send(std::string portal, std::string method, std::vector<ExprP> args,
           int latMin, int latMax) {
  auto s = make_stmt(Stmt::Kind::Send);
  s->name = std::move(portal);
  s->method = std::move(method);
  s->args = std::move(args);
  s->latMin = latMin;
  s->latMax = latMax;
  return s;
}

bool stmt_sends(const StmtP& s) {
  if (!s) return false;
  if (s->kind == Stmt::Kind::Send) return true;
  for (const auto& c : s->stmts) {
    if (stmt_sends(c)) return true;
  }
  return stmt_sends(s->body) || stmt_sends(s->elseBody);
}

namespace {

bool stmt_writes_state(const StmtP& s, const std::set<std::string>& names) {
  if (!s) return false;
  switch (s->kind) {
    case Stmt::Kind::Assign:
    case Stmt::Kind::ArrayAssign:
      return names.count(s->name) > 0;
    case Stmt::Kind::Block:
      for (const auto& c : s->stmts) {
        if (stmt_writes_state(c, names)) return true;
      }
      return false;
    case Stmt::Kind::For:  // the loop variable is a local
      return stmt_writes_state(s->body, names);
    case Stmt::Kind::If:
      return stmt_writes_state(s->body, names) ||
             stmt_writes_state(s->elseBody, names);
    default:
      return false;
  }
}

}  // namespace

bool writes_state(const FilterSpec& spec) {
  std::set<std::string> names;
  for (const auto& d : spec.state) names.insert(d.name);
  if (names.empty()) return false;
  return stmt_writes_state(spec.work, names);
}

std::string to_string(const ExprP& e) {
  if (!e) return "<null>";
  std::ostringstream os;
  switch (e->kind) {
    case Expr::Kind::IntConst:
      os << e->ival;
      break;
    case Expr::Kind::FloatConst:
      os << e->fval;
      break;
    case Expr::Kind::Var:
      os << e->name;
      break;
    case Expr::Kind::ArrayRef:
      os << e->name << "[" << to_string(e->a) << "]";
      break;
    case Expr::Kind::Peek:
      os << "peek(" << to_string(e->a) << ")";
      break;
    case Expr::Kind::Pop:
      os << "pop()";
      break;
    case Expr::Kind::Bin:
      os << "(" << to_string(e->a) << " " << to_string(e->bop) << " "
         << to_string(e->b) << ")";
      break;
    case Expr::Kind::Un:
      os << to_string(e->uop) << "(" << to_string(e->a) << ")";
      break;
    case Expr::Kind::Cond:
      os << "(" << to_string(e->a) << " ? " << to_string(e->b) << " : "
         << to_string(e->c) << ")";
      break;
  }
  return os.str();
}

std::string to_string(const StmtP& s, int indent) {
  if (!s) return "";
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::ostringstream os;
  switch (s->kind) {
    case Stmt::Kind::Block:
      for (const auto& c : s->stmts) os << to_string(c, indent);
      break;
    case Stmt::Kind::Assign:
      os << pad << s->name << " = " << to_string(s->value) << ";\n";
      break;
    case Stmt::Kind::ArrayAssign:
      os << pad << s->name << "[" << to_string(s->index)
         << "] = " << to_string(s->value) << ";\n";
      break;
    case Stmt::Kind::Push:
      os << pad << "push(" << to_string(s->value) << ");\n";
      break;
    case Stmt::Kind::PopN:
      os << pad << "pop(" << to_string(s->index) << ");\n";
      break;
    case Stmt::Kind::For:
      os << pad << "for (" << s->name << " = " << to_string(s->lo) << "; "
         << s->name << " < " << to_string(s->hi) << "; " << s->name
         << " += " << to_string(s->step) << ") {\n"
         << to_string(s->body, indent + 1) << pad << "}\n";
      break;
    case Stmt::Kind::If:
      os << pad << "if (" << to_string(s->cond) << ") {\n"
         << to_string(s->body, indent + 1) << pad << "}";
      if (s->elseBody) {
        os << " else {\n" << to_string(s->elseBody, indent + 1) << pad << "}";
      }
      os << "\n";
      break;
    case Stmt::Kind::Send: {
      os << pad << s->name << "." << s->method << "(";
      for (std::size_t i = 0; i < s->args.size(); ++i) {
        if (i) os << ", ";
        os << to_string(s->args[i]);
      }
      os << ") @ [" << s->latMin << ", " << s->latMax << "];\n";
      break;
    }
  }
  return os.str();
}

}  // namespace sit::ir
