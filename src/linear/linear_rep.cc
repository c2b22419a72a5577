#include "linear/linear_rep.h"

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
  std::vector<StmtP> body;
  for (int o = 0; o < rep.push; ++o) {
    ExprP acc;
    const double cst = rep.b[static_cast<std::size_t>(o)];
    if (cst != 0.0) acc = fconst(cst);
    for (int i = 0; i < rep.peek; ++i) {
      const double c = rep.A.at(static_cast<std::size_t>(o), static_cast<std::size_t>(i));
      if (c == 0.0) continue;
      ExprP term = bin(BinOp::Mul, fconst(c), peek(iconst(i)));
      acc = acc ? bin(BinOp::Add, acc, term) : term;
    }
    if (!acc) acc = fconst(0.0);
    body.push_back(push(acc));
  }
  if (rep.pop > 0) body.push_back(pop_n(iconst(rep.pop)));

  FilterSpec f;
  f.name = name;
  f.peek = rep.peek;
  f.pop = rep.pop;
  f.push = rep.push;
  f.work = block(std::move(body));
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
