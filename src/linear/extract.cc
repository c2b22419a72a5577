#include "linear/extract.h"

#include <map>
#include <set>
#include <unordered_map>

#include "analysis/constprop.h"
#include "runtime/eval_ops.h"
#include "runtime/interp.h"

namespace sit::linear {

using ir::BinOp;
using ir::Expr;
using ir::ExprP;
using ir::Stmt;
using ir::StmtP;
using ir::UnOp;
using ir::Value;

namespace {

struct AbsVal {
  enum class K { Exact, Affine, Top };
  K k{K::Top};
  Value exact;                   // K::Exact
  std::map<int, double> coeff;   // K::Affine: window index -> coefficient
  double cnst{0.0};              // K::Affine constant term

  static AbsVal top() { return AbsVal{}; }
  static AbsVal of(Value v) {
    AbsVal a;
    a.k = K::Exact;
    a.exact = v;
    return a;
  }
  static AbsVal unit(int idx) {
    AbsVal a;
    a.k = K::Affine;
    a.coeff[idx] = 1.0;
    return a;
  }

  [[nodiscard]] bool is_exact() const { return k == K::Exact; }
  [[nodiscard]] bool is_top() const { return k == K::Top; }

  // View as affine (exact constants are affine with empty coefficients).
  [[nodiscard]] AbsVal as_affine() const {
    if (k == K::Affine) return *this;
    AbsVal a;
    a.k = K::Affine;
    a.cnst = exact.as_double();
    return a;
  }
};

// Thrown to abort extraction with a reason.
struct NotLinear {
  std::string reason;
};

class Extractor {
 public:
  Extractor(const ir::FilterSpec& spec, StmtP work)
      : spec_(spec), work_(std::move(work)) {
    // Concrete initial state gives the coefficient constants.
    state_ = runtime::Interp::init_state(spec);
    for (const auto& d : spec.state) state_names_.insert(d.name);
  }

  LinearRep run() {
    exec(work_);
    if (pops_ != spec_.pop) {
      throw NotLinear{"work pops " + std::to_string(pops_) + " != declared " +
                      std::to_string(spec_.pop)};
    }
    if (static_cast<int>(rows_.size()) != spec_.push) {
      throw NotLinear{"work pushes " + std::to_string(rows_.size()) +
                      " != declared " + std::to_string(spec_.push)};
    }
    LinearRep rep;
    rep.peek = spec_.peek;
    rep.pop = spec_.pop;
    rep.push = spec_.push;
    rep.A = Matrix(static_cast<std::size_t>(spec_.push),
                   static_cast<std::size_t>(spec_.peek));
    rep.b.assign(static_cast<std::size_t>(spec_.push), 0.0);
    for (std::size_t o = 0; o < rows_.size(); ++o) {
      const AbsVal& row = rows_[o];
      for (const auto& [idx, c] : row.coeff) {
        if (idx < 0 || idx >= spec_.peek) {
          throw NotLinear{"push references window index " + std::to_string(idx) +
                          " outside [0, peek)"};
        }
        rep.A.at(o, static_cast<std::size_t>(idx)) = c;
      }
      rep.b[o] = row.cnst;
    }
    return rep;
  }

 private:
  AbsVal eval(const ExprP& e) {
    switch (e->kind) {
      case Expr::Kind::IntConst:
        return AbsVal::of(Value(e->ival));
      case Expr::Kind::FloatConst:
        return AbsVal::of(Value(e->fval));
      case Expr::Kind::Var: {
        auto lit = locals_.find(e->name);
        if (lit != locals_.end()) return lit->second;
        auto sit_ = state_.scalars.find(e->name);
        if (sit_ != state_.scalars.end()) return AbsVal::of(sit_->second);
        throw NotLinear{"undefined variable '" + e->name + "'"};
      }
      case Expr::Kind::ArrayRef: {
        const AbsVal idx = eval(e->a);
        if (!idx.is_exact()) throw NotLinear{"non-constant array index"};
        auto it = state_.arrays.find(e->name);
        if (it == state_.arrays.end()) throw NotLinear{"undefined array"};
        const auto i = idx.exact.as_int();
        if (i < 0 || static_cast<std::size_t>(i) >= it->second.size()) {
          throw NotLinear{"array index out of bounds"};
        }
        return AbsVal::of(it->second[static_cast<std::size_t>(i)]);
      }
      case Expr::Kind::Peek: {
        const AbsVal off = eval(e->a);
        if (!off.is_exact()) throw NotLinear{"non-constant peek offset"};
        return AbsVal::unit(pops_ + static_cast<int>(off.exact.as_int()));
      }
      case Expr::Kind::Pop: {
        const AbsVal v = AbsVal::unit(pops_);
        ++pops_;
        return v;
      }
      case Expr::Kind::Bin:
        return eval_bin(e);
      case Expr::Kind::Un:
        return eval_un(e);
      case Expr::Kind::Cond: {
        const AbsVal c = eval(e->a);
        if (!c.is_exact()) throw NotLinear{"data-dependent conditional expression"};
        return c.exact.truthy() ? eval(e->b) : eval(e->c);
      }
    }
    throw NotLinear{"unhandled expression"};
  }

  AbsVal eval_bin(const ExprP& e) {
    const AbsVal a = eval(e->a);
    const AbsVal b = eval(e->b);
    if (a.is_top() || b.is_top()) throw NotLinear{"non-affine operand"};

    if (a.is_exact() && b.is_exact()) {
      return AbsVal::of(exact_bin(e->bop, a.exact, b.exact));
    }

    switch (e->bop) {
      case BinOp::Add:
        return affine_add(a.as_affine(), b.as_affine(), 1.0);
      case BinOp::Sub:
        return affine_add(a.as_affine(), b.as_affine(), -1.0);
      case BinOp::Mul: {
        if (a.is_exact()) return affine_scale(b.as_affine(), a.exact.as_double());
        if (b.is_exact()) return affine_scale(a.as_affine(), b.exact.as_double());
        throw NotLinear{"product of two input-dependent values"};
      }
      case BinOp::Div: {
        if (b.is_exact()) {
          const double d = b.exact.as_double();
          if (d == 0.0) throw NotLinear{"division by zero coefficient"};
          return affine_scale(a.as_affine(), 1.0 / d);
        }
        throw NotLinear{"division by input-dependent value"};
      }
      default:
        throw NotLinear{std::string("non-linear operator '") +
                        ir::to_string(e->bop) + "' on input-dependent value"};
    }
  }

  AbsVal eval_un(const ExprP& e) {
    const AbsVal a = eval(e->a);
    if (a.is_top()) throw NotLinear{"non-affine operand"};
    if (a.is_exact()) return AbsVal::of(runtime::apply_un(e->uop, a.exact));
    switch (e->uop) {
      case UnOp::Neg:
        return affine_scale(a, -1.0);
      case UnOp::ToFloat:
        return a;
      default:
        throw NotLinear{std::string("non-linear function '") +
                        ir::to_string(e->uop) + "' of input-dependent value"};
    }
  }

  void exec(const StmtP& s) {
    if (!s) return;
    switch (s->kind) {
      case Stmt::Kind::Block:
        for (const auto& c : s->stmts) exec(c);
        break;
      case Stmt::Kind::Assign: {
        if (state_names_.count(s->name)) {
          throw NotLinear{"work writes state variable '" + s->name + "'"};
        }
        locals_[s->name] = eval(s->value);
        break;
      }
      case Stmt::Kind::ArrayAssign:
        throw NotLinear{"work writes array state '" + s->name + "'"};
      case Stmt::Kind::Push: {
        const AbsVal v = eval(s->value);
        if (v.is_top()) throw NotLinear{"push of non-affine value"};
        rows_.push_back(v.as_affine());
        break;
      }
      case Stmt::Kind::PopN: {
        const AbsVal n = eval(s->index);
        if (!n.is_exact()) throw NotLinear{"non-constant pop count"};
        pops_ += static_cast<int>(n.exact.as_int());
        break;
      }
      case Stmt::Kind::For: {
        const AbsVal lo = eval(s->lo);
        const AbsVal hi = eval(s->hi);
        const AbsVal st = eval(s->step);
        if (!lo.is_exact() || !hi.is_exact() || !st.is_exact()) {
          throw NotLinear{"non-constant loop bounds"};
        }
        const auto step = st.exact.as_int();
        if (step <= 0) throw NotLinear{"non-positive loop step"};
        for (std::int64_t i = lo.exact.as_int(); i < hi.exact.as_int(); i += step) {
          locals_[s->name] = AbsVal::of(Value(i));
          exec(s->body);
        }
        break;
      }
      case Stmt::Kind::If: {
        const AbsVal c = eval(s->cond);
        if (!c.is_exact()) throw NotLinear{"data-dependent branch"};
        exec(c.exact.truthy() ? s->body : s->elseBody);
        break;
      }
      case Stmt::Kind::Send:
        // Messages do not affect the data transformation of this firing.
        break;
    }
  }

  static AbsVal affine_add(AbsVal a, const AbsVal& b, double sign) {
    for (const auto& [idx, c] : b.coeff) {
      a.coeff[idx] += sign * c;
      if (a.coeff[idx] == 0.0) a.coeff.erase(idx);
    }
    a.cnst += sign * b.cnst;
    return a;
  }

  static AbsVal affine_scale(AbsVal a, double f) {
    if (f == 0.0) return AbsVal::of(Value(0.0));
    for (auto& [idx, c] : a.coeff) c *= f;
    a.cnst *= f;
    return a;
  }

  // Exact arithmetic is the runtime's own kernel (runtime/eval_ops.h);
  // nullopt means the runtime would fault (integer division/modulo by zero).
  static Value exact_bin(BinOp op, const Value& a, const Value& b) {
    if (auto r = runtime::fold(op, a, b)) return *r;
    throw NotLinear{std::string("constant '") + ir::to_string(op) +
                    "' has no defined value"};
  }

  const ir::FilterSpec& spec_;
  StmtP work_;
  runtime::FilterState state_;
  std::set<std::string> state_names_;
  std::unordered_map<std::string, AbsVal> locals_;
  std::vector<AbsVal> rows_;
  int pops_{0};
};

// What extracting R.work returns, replayed from the rows.  to_filter pushes
// `b + c0*peek(i0) + c1*peek(i1) + ...` per row; the extractor scales
// unit(i) (coefficient 1.0, constant 0.0) by c, then folds each term into
// the row with affine_add.  So a -0.0 coefficient comes back as 0.0, and a
// zero constant takes the sign those sums give it.
LinearRep from_rows(const ir::LinearRows& R) {
  LinearRep r;
  r.peek = R.peek;
  r.pop = R.pop;
  r.push = R.push;
  r.A = Matrix(static_cast<std::size_t>(R.push), static_cast<std::size_t>(R.peek));
  r.b.assign(static_cast<std::size_t>(R.push), 0.0);
  for (std::size_t o = 0; o < r.b.size(); ++o) {
    bool started = R.has_b[o] != 0;
    double k = R.b[o];
    for (auto t = static_cast<std::size_t>(R.row_ptr[o]);
         t < static_cast<std::size_t>(R.row_ptr[o + 1]); ++t) {
      const double c = R.val[t];
      double& a = r.A.at(o, static_cast<std::size_t>(R.col[t]));
      if (started) {
        a = 0.0 + 1.0 * (1.0 * c);
        k += 1.0 * (0.0 * c);
      } else {
        a = 1.0 * c;
        k = 0.0 * c;
        started = true;
      }
    }
    r.b[o] = k;
  }
  return r;
}

}  // namespace

ExtractResult extract(const ir::FilterSpec& spec, const ExtractOptions& opts) {
  ExtractResult r;
  if (!spec.work) {
    r.reason = "no work function";
    return r;
  }
  if (spec.push == 0) {
    // A sink is trivially affine but combining into it would let the
    // optimizer delete its producers as dead code; the paper's compiler
    // never collapses into I/O endpoints either.
    r.reason = "sink filters are not linear-combination candidates";
    return r;
  }
  if (const ir::LinearRows* rows = spec.linear_rows()) {
    r.rep = from_rows(*rows);
    return r;
  }
  StmtP work = spec.work;
  if (opts.fold_constants) {
    work = analysis::fold_body(spec.work, spec.name + "/work").body;
  }
  try {
    Extractor ex(spec, std::move(work));
    r.rep = ex.run();
  } catch (const NotLinear& nl) {
    r.reason = nl.reason;
  } catch (const std::exception& e) {
    r.reason = e.what();
  }
  return r;
}

ExtractResult extract(const ir::FilterSpec& spec) {
  return extract(spec, ExtractOptions{});
}

}  // namespace sit::linear
