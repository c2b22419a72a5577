#include "ir/validate.h"

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "runtime/eval_ops.h"

namespace sit::ir {

namespace {

using Env = std::unordered_map<std::string, std::int64_t>;

// Best-effort constant evaluation (loop bounds, branch conditions and
// channel counts) with the runtime's semantics: Values through the operator
// table (runtime/eval_ops.h), as the tree evaluates them, so a float stays a
// float until the caller applies as_int() or truthy() where the tree does.
// Loop induction variables are bound in `env`.
std::optional<Value> const_eval(const ExprP& e, const Env& env) {
  if (!e) return std::nullopt;
  switch (e->kind) {
    case Expr::Kind::IntConst:
      return Value(e->ival);
    case Expr::Kind::FloatConst:
      return Value(e->fval);
    case Expr::Kind::Var: {
      auto it = env.find(e->name);
      if (it == env.end()) return std::nullopt;
      return Value(it->second);
    }
    case Expr::Kind::Bin: {
      auto a = const_eval(e->a, env);
      auto b = const_eval(e->b, env);
      if (!a || !b) return std::nullopt;
      return runtime::fold(e->bop, *a, *b);
    }
    case Expr::Kind::Un: {
      auto a = const_eval(e->a, env);
      if (!a) return std::nullopt;
      return runtime::apply_un(e->uop, *a);
    }
    default:
      return std::nullopt;
  }
}

bool touches_channels(const StmtP& s);

// Stateful walker tracking pops/pushes performed so far in one work
// invocation, plus the farthest input-window index touched.
class ChannelCounter {
 public:
  void stmt(const StmtP& s) {
    if (!s) return;
    switch (s->kind) {
      case Stmt::Kind::Block:
        for (const auto& c : s->stmts) stmt(c);
        break;
      case Stmt::Kind::Assign:
      case Stmt::Kind::ArrayAssign:
        expr(s->index);
        expr(s->value);
        break;
      case Stmt::Kind::Push:
        expr(s->value);
        ++pushes_;
        break;
      case Stmt::Kind::PopN: {
        auto n = const_eval(s->index, env_);
        if (!n) {
          static_ = false;
          return;
        }
        pops_ += static_cast<int>(n->as_int());
        window_ = std::max(window_, pops_);
        break;
      }
      case Stmt::Kind::For: {
        auto lo = const_eval(s->lo, env_);
        auto hi = const_eval(s->hi, env_);
        auto st = const_eval(s->step, env_);
        if (!lo || !hi || !st || st->as_int() <= 0) {
          static_ = false;
          return;
        }
        const std::int64_t first = lo->as_int(), end = hi->as_int(),
                           step = st->as_int();
        if (first < end) {
          // The last induction value, in unsigned arithmetic (it lies in
          // [first, end), so the wrapped result is exact).  Stepping past
          // it must not overflow int64.
          const auto ustep = static_cast<std::uint64_t>(step);
          const std::uint64_t span = static_cast<std::uint64_t>(end) -
                                     static_cast<std::uint64_t>(first);
          const auto last = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(first) + (span - 1) / ustep * ustep);
          std::int64_t past = 0;
          if (__builtin_add_overflow(last, step, &past)) {
            static_ = false;
            return;
          }
          if (!touches_channels(s->body) && static_body(s->body, s->name)) {
            env_.erase(s->name);
            break;
          }
        }
        for (std::int64_t i = first; i < end; i += step) {
          env_[s->name] = i;
          stmt(s->body);
          if (!static_) break;
        }
        env_.erase(s->name);
        break;
      }
      case Stmt::Kind::If: {
        expr(s->cond);
        auto cv = const_eval(s->cond, env_);
        if (cv) {
          stmt(cv->truthy() ? s->body : s->elseBody);
          break;
        }
        // Data-dependent branch: both sides must agree on channel effects.
        ChannelCounter then_c = *this;
        then_c.stmt(s->body);
        ChannelCounter else_c = *this;
        else_c.stmt(s->elseBody);
        if (then_c.pops_ != else_c.pops_ || then_c.pushes_ != else_c.pushes_ ||
            !then_c.static_ || !else_c.static_) {
          static_ = false;
          return;
        }
        pops_ = then_c.pops_;
        pushes_ = then_c.pushes_;
        window_ = std::max(then_c.window_, else_c.window_);
        break;
      }
      case Stmt::Kind::Send:
        for (const auto& a : s->args) expr(a);
        break;
    }
  }

  void expr(const ExprP& e) {
    if (!e) return;
    switch (e->kind) {
      case Expr::Kind::Peek: {
        expr(e->a);
        auto off = const_eval(e->a, env_);
        if (off) {
          window_ =
              std::max(window_, pops_ + static_cast<int>(off->as_int()) + 1);
        } else {
          dynamic_peek_ = true;
        }
        break;
      }
      case Expr::Kind::Pop:
        ++pops_;
        window_ = std::max(window_, pops_);
        break;
      default:
        expr(e->a);
        expr(e->b);
        expr(e->c);
        break;
    }
  }

  // Whether walking a body that touches no channel stays static with the
  // induction variable `var` unbound.  Binding it only lets more bounds and
  // conditions evaluate, so then every iteration's walk stays static too,
  // and adds no counts: the loop need not be unrolled.
  [[nodiscard]] bool static_body(const StmtP& body,
                                 const std::string& var) const {
    ChannelCounter probe;
    probe.env_ = env_;
    probe.env_.erase(var);
    probe.stmt(body);
    return probe.static_;
  }

  [[nodiscard]] ChannelCounts result() const {
    ChannelCounts r;
    r.pops = pops_;
    r.pushes = pushes_;
    r.max_peek = dynamic_peek_ ? 0 : window_;
    r.static_counts = static_;
    r.dynamic_peek = dynamic_peek_;
    return r;
  }

 private:
  Env env_;
  int pops_{0};
  int pushes_{0};
  int window_{0};
  bool static_{true};
  bool dynamic_peek_{false};
};

bool expr_touches_channels(const ExprP& e) {
  if (!e) return false;
  if (e->kind == Expr::Kind::Peek || e->kind == Expr::Kind::Pop) return true;
  return expr_touches_channels(e->a) || expr_touches_channels(e->b) ||
         expr_touches_channels(e->c);
}

bool touches_channels(const StmtP& s) {
  if (!s) return false;
  switch (s->kind) {
    case Stmt::Kind::Push:
    case Stmt::Kind::PopN:
      return true;
    case Stmt::Kind::Block:
      for (const auto& c : s->stmts)
        if (touches_channels(c)) return true;
      return false;
    default:
      if (expr_touches_channels(s->index) || expr_touches_channels(s->value) ||
          expr_touches_channels(s->cond) || expr_touches_channels(s->lo) ||
          expr_touches_channels(s->hi) || expr_touches_channels(s->step))
        return true;
      for (const auto& a : s->args)
        if (expr_touches_channels(a)) return true;
      return touches_channels(s->body) || touches_channels(s->elseBody);
  }
}

class Checker {
 public:
  void run(const NodeP& n) {
    if (!n) {
      add("<root>", "null node");
      return;
    }
    if (!seen_.insert(n.get()).second) {
      add(n->name, "stream instance appears more than once in the graph");
      return;
    }
    switch (n->kind) {
      case Node::Kind::Filter:
        check_filter(n);
        break;
      case Node::Kind::Native:
        check_native(n);
        break;
      case Node::Kind::Pipeline:
        if (n->children.empty()) add(n->name, "empty pipeline");
        for (const auto& c : n->children) run(c);
        break;
      case Node::Kind::SplitJoin:
        check_splitjoin(n);
        break;
      case Node::Kind::FeedbackLoop:
        check_feedback(n);
        break;
    }
  }

  std::vector<Violation> violations;

 private:
  void add(const std::string& where, std::string msg) {
    Violation v;
    v.where = where;
    v.message = std::move(msg);
    v.severity = analysis::Severity::Error;
    v.pass = "structure";
    violations.push_back(std::move(v));
  }

  void check_filter(const NodeP& n) {
    const FilterSpec& f = n->filter;
    if (f.pop < 0 || f.push < 0 || f.peek < 0) add(n->name, "negative rate");
    if (f.peek < f.pop) add(n->name, "declared peek < declared pop");
    if (!f.work) {
      add(n->name, "filter without work function");
      return;
    }
    const ChannelCounts cc = count_channel_ops(f.work);
    if (!cc.static_counts) {
      add(n->name, "work function has non-static channel-operation counts");
      return;
    }
    if (cc.pops != f.pop) {
      add(n->name, "work pops " + std::to_string(cc.pops) + " but declares pop=" +
                       std::to_string(f.pop));
    }
    if (cc.pushes != f.push) {
      add(n->name, "work pushes " + std::to_string(cc.pushes) +
                       " but declares push=" + std::to_string(f.push));
    }
    if (cc.dynamic_peek) {
      // max_peek is 0 here; without this check a dynamic offset would slip
      // past the window comparison below unnoticed.
      add(n->name,
          "work peeks at a non-static offset; the peek window cannot be "
          "verified against declared peek=" + std::to_string(f.peek));
    }
    if (cc.max_peek > f.peek) {
      add(n->name, "work peeks to index " + std::to_string(cc.max_peek - 1) +
                       " but declares peek=" + std::to_string(f.peek));
    }
    if (f.init && touches_channels(f.init)) {
      add(n->name, "init function may not touch channels");
    }
    for (const auto& [method, h] : f.handlers) {
      if (touches_channels(h.body)) {
        add(n->name, "message handler '" + method + "' may not touch channels");
      }
    }
  }

  void check_native(const NodeP& n) {
    const NativeFilter& f = n->native;
    if (f.pop < 0 || f.push < 0 || f.peek < f.pop) add(n->name, "bad native rates");
    if (!f.work) add(n->name, "native filter without work functor");
  }

  void check_splitjoin(const NodeP& n) {
    const std::size_t k = n->children.size();
    if (k == 0) {
      add(n->name, "empty splitjoin");
      return;
    }
    if (n->split.kind == SJKind::RoundRobin && n->split.weights.size() != k) {
      add(n->name, "splitter weight count != branch count");
    }
    if (n->join.kind == SJKind::Duplicate) {
      add(n->name, "duplicate joiner is not legal");
    }
    if (n->join.kind == SJKind::RoundRobin && n->join.weights.size() != k) {
      add(n->name, "joiner weight count != branch count");
    }
    for (const auto& c : n->children) run(c);
  }

  void check_feedback(const NodeP& n) {
    if (n->children.size() != 2) {
      add(n->name, "feedback loop must have body and loop children");
      return;
    }
    if (n->split.kind == SJKind::Null || n->join.kind == SJKind::Null) {
      add(n->name, "feedback splitter/joiner must be non-null");
    }
    if (n->split.kind == SJKind::RoundRobin && n->split.weights.size() != 2) {
      add(n->name, "feedback splitter must be binary");
    }
    if (n->join.kind == SJKind::RoundRobin && n->join.weights.size() != 2) {
      add(n->name, "feedback joiner must be binary");
    }
    if (n->delay < 0) add(n->name, "negative delay");
    if (static_cast<int>(n->init_path.size()) != n->delay) {
      add(n->name, "initPath length must equal delay");
    }
    run(n->children[0]);
    run(n->children[1]);
  }

  std::set<const Node*> seen_;
};

}  // namespace

ChannelCounts count_channel_ops(const StmtP& work) {
  ChannelCounter counter;
  counter.stmt(work);
  return counter.result();
}

std::vector<Violation> check(const NodeP& root) {
  Checker c;
  c.run(root);
  return c.violations;
}

void check_or_throw(const NodeP& root) {
  const auto vs = check(root);
  if (vs.empty()) return;
  std::ostringstream os;
  os << "stream program is not well-formed:";
  for (const auto& v : vs) os << "\n  [" << v.where << "] " << v.message;
  throw std::runtime_error(os.str());
}

}  // namespace sit::ir
