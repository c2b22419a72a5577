#include "linear/linear_rep.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ir/ast.h"

namespace sit::linear {

std::vector<double> apply(const LinearRep& rep, const std::vector<double>& window) {
  if (static_cast<int>(window.size()) != rep.peek) {
    throw std::invalid_argument("window size != peek");
  }
  std::vector<double> out(static_cast<std::size_t>(rep.push));
  for (int o = 0; o < rep.push; ++o) {
    double acc = rep.b[static_cast<std::size_t>(o)];
    for (int i = 0; i < rep.peek; ++i) {
      acc += rep.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) *
             window[static_cast<std::size_t>(i)];
    }
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

ir::FilterSpec to_filter(const LinearRep& rep, const std::string& name) {
  using namespace ir;
  // The work AST and its coefficient rows, term by term: a row starts from
  // its constant only when that is nonzero, skips zero coefficients, and
  // pushes 0.0 when nothing is left.
  auto rows = std::make_shared<LinearRows>();
  rows->peek = rep.peek;
  rows->pop = rep.pop;
  rows->push = rep.push;
  rows->row_ptr.push_back(0);
  std::vector<StmtP> body;
  for (int o = 0; o < rep.push; ++o) {
    const double cst = rep.b[static_cast<std::size_t>(o)];
    const bool has_b = cst != 0.0;
    ExprP acc = has_b ? fconst(cst) : nullptr;
    for (int i = 0; i < rep.peek; ++i) {
      const double c = rep.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
      if (c == 0.0) continue;
      ExprP term = bin(BinOp::Mul, fconst(c), peek(iconst(i)));
      acc = acc ? bin(BinOp::Add, acc, term) : term;
      rows->col.push_back(i);
      rows->val.push_back(c);
      rows->span = std::max(rows->span, i + 1);
    }
    rows->has_b.push_back(has_b || !acc ? 1 : 0);
    rows->b.push_back(has_b ? cst : 0.0);
    rows->row_ptr.push_back(static_cast<std::int32_t>(rows->col.size()));
    body.push_back(push(acc ? acc : fconst(0.0)));
  }
  if (rep.pop > 0) body.push_back(pop_n(iconst(rep.pop)));
  const runtime::OpCounts counts = rep.op_counts();
  rows->flops = counts.flops;
  rows->channel = counts.channel;

  FilterSpec f;
  f.name = name;
  f.peek = rep.peek;
  f.pop = rep.pop;
  f.push = rep.push;
  f.work = block(std::move(body));
  rows->work = f.work;
  f.linear = std::move(rows);
  return f;
}

runtime::OpCounts LinearRep::op_counts() const {
  runtime::OpCounts c;
  for (int o = 0; o < push; ++o) {
    std::int64_t nnz = 0;
    for (int i = 0; i < peek; ++i) {
      if (A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i)) != 0.0) {
        ++nnz;
      }
    }
    const std::int64_t terms = nnz + (b[static_cast<std::size_t>(o)] != 0.0 ? 1 : 0);
    c.flops += nnz + (terms > 0 ? terms - 1 : 0);
    c.channel += nnz + 1;
  }
  if (pop > 0) c.channel += pop;
  return c;
}

bool operator==(const LinearRep& a, const LinearRep& b) {
  return a.peek == b.peek && a.pop == b.pop && a.push == b.push && a.A == b.A &&
         a.b == b.b;
}

std::string LinearRep::describe() const {
  std::ostringstream os;
  os << "linear(peek=" << peek << " pop=" << pop << " push=" << push << ")\n";
  for (int o = 0; o < push; ++o) {
    os << "  y" << o << " =";
    bool any = false;
    for (int i = 0; i < peek; ++i) {
      const double c = A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
      if (c == 0.0) continue;
      os << (any ? " + " : " ") << c << "*w" << i;
      any = true;
    }
    if (b[static_cast<std::size_t>(o)] != 0.0 || !any) {
      os << (any ? " + " : " ") << b[static_cast<std::size_t>(o)];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sit::linear
