#include "runtime/linear_kernel.h"

#include <utility>

namespace sit::runtime {

using ir::BinOp;

namespace {

// The literal c of a term `c * peek(i)`, with 0 <= i < peek; false otherwise.
bool match_term(const ir::Expr& e, int peek, double* c, std::int32_t* i) {
  using ir::Expr;
  if (e.kind != Expr::Kind::Bin || e.bop != BinOp::Mul || !e.a || !e.b) {
    return false;
  }
  if (e.a->kind != Expr::Kind::FloatConst || e.b->kind != Expr::Kind::Peek ||
      !e.b->a || e.b->a->kind != Expr::Kind::IntConst) {
    return false;
  }
  const std::int64_t off = e.b->a->ival;
  if (off < 0 || off >= peek) return false;
  *c = e.a->fval;
  *i = static_cast<std::int32_t>(off);
  return true;
}

}  // namespace

bool linear_kernel_rows(const ir::FilterSpec& f, LinearRows* out) {
  using ir::Expr;
  using ir::Stmt;
  if (!f.state.empty() || f.init || !f.handlers.empty() || !f.work ||
      f.work->kind != Stmt::Kind::Block || f.push < 1 || f.pop < 0 ||
      f.peek < 0) {
    return false;
  }
  const std::vector<ir::StmtP>& body = f.work->stmts;
  if (body.size() != static_cast<std::size_t>(f.push + (f.pop > 0 ? 1 : 0))) {
    return false;
  }
  LinearRows R;
  R.peek = f.peek;
  R.pop = f.pop;
  R.push = f.push;
  R.row_ptr.push_back(0);
  std::vector<const Expr*> spine;
  for (int o = 0; o < f.push; ++o) {
    const ir::StmtP& s = body[static_cast<std::size_t>(o)];
    if (!s || s->kind != Stmt::Kind::Push || !s->value) return false;
    // Walk the left-deep sum from its last term down to its head.
    spine.clear();
    const Expr* e = s->value.get();
    while (e->kind == Expr::Kind::Bin && e->bop == BinOp::Add && e->a && e->b) {
      spine.push_back(e->b.get());
      e = e->a.get();
    }
    const bool has_b = e->kind == Expr::Kind::FloatConst;
    R.has_b.push_back(has_b ? 1 : 0);
    R.b.push_back(has_b ? e->fval : 0.0);
    if (!has_b) spine.push_back(e);
    for (auto t = spine.rbegin(); t != spine.rend(); ++t) {
      double c = 0.0;
      std::int32_t i = 0;
      if (!match_term(**t, f.peek, &c, &i)) return false;
      R.col.push_back(i);
      R.val.push_back(c);
      R.span = std::max(R.span, i + 1);
    }
    R.row_ptr.push_back(static_cast<std::int32_t>(R.col.size()));
    const auto terms = static_cast<std::int64_t>(spine.size());
    R.flops += terms + (terms + (has_b ? 1 : 0) - 1);  // muls, then adds
    R.channel += terms + 1;                             // peeks, the push
  }
  if (f.pop > 0) {
    const ir::StmtP& s = body.back();
    if (!s || s->kind != Stmt::Kind::PopN || !s->index ||
        s->index->kind != Expr::Kind::IntConst || s->index->ival != f.pop) {
      return false;
    }
    R.channel += f.pop;
  }
  *out = std::move(R);
  return true;
}

void linear_firings_checked(const LinearRows& R, std::int64_t n,
                            ir::InTape& in, ir::OutTape& out,
                            OpCounts* counts) {
  OpCounts none;
  OpCounts& c = counts != nullptr ? *counts : none;
  for (std::int64_t f = 0; f < n; ++f) {
    for (int r = 0; r < R.push; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      double acc = R.b[ur];
      bool first = R.has_b[ur] == 0;
      for (std::int32_t k = R.row_ptr[ur]; k < R.row_ptr[ur + 1]; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        ++c.channel;
        const double term = R.val[uk] * in.peek_item(R.col[uk]);
        acc = first ? term : acc + term;
        c.flops += first ? 1 : 2;  // the multiply, then the add
        first = false;
      }
      ++c.channel;
      out.push_item(acc);
    }
    if (R.pop > 0) {
      c.channel += R.pop;
      in.pop_many(R.pop);
    }
  }
}

}  // namespace sit::runtime
