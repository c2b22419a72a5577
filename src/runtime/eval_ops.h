#pragma once
// Scalar operator kernels and runtime fault messages shared by every engine.
//
// The engines must agree bit-for-bit on StreamIt's Java-like promotion
// rules (int op int stays integral, any float operand promotes), so the
// arithmetic lives here exactly once: the tree interpreter applies these
// kernels to its Values, and a trace's generic Bin and Un handlers
// (fused.cc) apply them to Values read from the typed planes.  A trace's
// specialized handlers are the same-plane forms, where nothing promotes.
// These are pure value functions; operation *counting* stays engine-side
// because the tree walker and the traces attach costs at different points.
// A fault's what() string is part of the same cross-engine contract, so each
// one is built here once too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "ir/ast.h"
#include "ir/value.h"

namespace sit::runtime {

// ---- runtime faults ---------------------------------------------------------

// Debug channel checks: a peek past the filter's declared max(peek, pop).
[[noreturn]] inline void peek_bounds_error(const std::string& name,
                                           std::int64_t off, std::int64_t pops,
                                           std::int64_t window) {
  throw std::runtime_error(
      "peek out of bounds in '" + name + "': peek(" + std::to_string(off) +
      ") after " + std::to_string(pops) +
      " pop(s) exceeds the declared window of " + std::to_string(window));
}

// `what` is "array index out of bounds" (load) or "array store out of
// bounds" (store).
[[noreturn]] inline void elem_bounds_error(const char* what,
                                           const std::string& name,
                                           std::int64_t idx) {
  throw std::runtime_error(std::string(what) + ": " + name + "[" +
                           std::to_string(idx) + "]");
}

// A peek beyond the items a channel (ring or lowered trace buffer) holds.
[[noreturn]] inline void buffer_peek_error(std::int64_t off, std::size_t live) {
  throw std::runtime_error("peek(" + std::to_string(off) +
                           ") beyond channel contents (" +
                           std::to_string(live) + ")");
}

[[noreturn]] inline void for_step_error() {
  throw std::runtime_error("for loop step must be positive");
}

// Integer division/modulo with the runtime's zero checks, for the Value
// kernels below.
inline std::int64_t int_div(std::int64_t a, std::int64_t b) {
  if (b == 0) throw std::runtime_error("integer division by zero");
  return a / b;
}
inline std::int64_t int_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) throw std::runtime_error("integer modulo by zero");
  return a % b;
}

inline ir::Value apply_bin(ir::BinOp op, const ir::Value& a, const ir::Value& b) {
  using ir::BinOp;
  using ir::Value;
  const bool ints = a.is_int() && b.is_int();
  switch (op) {
    case BinOp::Add:
      return ints ? Value(a.as_int() + b.as_int()) : Value(a.as_double() + b.as_double());
    case BinOp::Sub:
      return ints ? Value(a.as_int() - b.as_int()) : Value(a.as_double() - b.as_double());
    case BinOp::Mul:
      return ints ? Value(a.as_int() * b.as_int()) : Value(a.as_double() * b.as_double());
    case BinOp::Div:
      if (ints) return Value(int_div(a.as_int(), b.as_int()));
      return Value(a.as_double() / b.as_double());
    case BinOp::Mod:
      if (ints) return Value(int_mod(a.as_int(), b.as_int()));
      return Value(std::fmod(a.as_double(), b.as_double()));
    case BinOp::Min:
      return ints ? Value(std::min(a.as_int(), b.as_int()))
                  : Value(std::min(a.as_double(), b.as_double()));
    case BinOp::Max:
      return ints ? Value(std::max(a.as_int(), b.as_int()))
                  : Value(std::max(a.as_double(), b.as_double()));
    case BinOp::Pow:
      return Value(std::pow(a.as_double(), b.as_double()));
    case BinOp::Lt:
      return Value(ints ? a.as_int() < b.as_int() : a.as_double() < b.as_double());
    case BinOp::Le:
      return Value(ints ? a.as_int() <= b.as_int() : a.as_double() <= b.as_double());
    case BinOp::Gt:
      return Value(ints ? a.as_int() > b.as_int() : a.as_double() > b.as_double());
    case BinOp::Ge:
      return Value(ints ? a.as_int() >= b.as_int() : a.as_double() >= b.as_double());
    case BinOp::Eq:
      return Value(ints ? a.as_int() == b.as_int() : a.as_double() == b.as_double());
    case BinOp::Ne:
      return Value(ints ? a.as_int() != b.as_int() : a.as_double() != b.as_double());
    case BinOp::LAnd:
      return Value(a.truthy() && b.truthy());
    case BinOp::LOr:
      return Value(a.truthy() || b.truthy());
    case BinOp::BAnd:
      return Value(a.as_int() & b.as_int());
    case BinOp::BOr:
      return Value(a.as_int() | b.as_int());
    case BinOp::BXor:
      return Value(a.as_int() ^ b.as_int());
    case BinOp::Shl:
      return Value(a.as_int() << b.as_int());
    case BinOp::Shr:
      return Value(a.as_int() >> b.as_int());
  }
  throw std::runtime_error("unhandled binop");
}

inline ir::Value apply_un(ir::UnOp op, const ir::Value& a) {
  using ir::UnOp;
  using ir::Value;
  switch (op) {
    case UnOp::Neg:
      return a.is_int() ? Value(-a.as_int()) : Value(-a.as_double());
    case UnOp::LNot:
      return Value(!a.truthy());
    case UnOp::BNot:
      return Value(~a.as_int());
    case UnOp::Sin:
      return Value(std::sin(a.as_double()));
    case UnOp::Cos:
      return Value(std::cos(a.as_double()));
    case UnOp::Tan:
      return Value(std::tan(a.as_double()));
    case UnOp::Exp:
      return Value(std::exp(a.as_double()));
    case UnOp::Log:
      return Value(std::log(a.as_double()));
    case UnOp::Sqrt:
      return Value(std::sqrt(a.as_double()));
    case UnOp::Abs:
      return a.is_int() ? Value(std::abs(a.as_int())) : Value(std::fabs(a.as_double()));
    case UnOp::Floor:
      return Value(std::floor(a.as_double()));
    case UnOp::Ceil:
      return Value(std::ceil(a.as_double()));
    case UnOp::Round:
      return Value(std::round(a.as_double()));
    case UnOp::ToInt:
      return Value(a.as_int());
    case UnOp::ToFloat:
      return Value(a.as_double());
  }
  throw std::runtime_error("unhandled unop");
}

}  // namespace sit::runtime
