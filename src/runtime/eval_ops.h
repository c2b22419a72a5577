#pragma once
// The operator table and runtime fault messages shared by every engine.
//
// The engines must agree bit-for-bit on StreamIt's Java-like rules (int op
// int stays integral, any float operand promotes), so each BinOp and UnOp is
// defined here exactly once, in three parts:
//   * its value kernel (apply_bin/apply_un), which the tree interpreter
//     applies to its Values, a trace's generic Bin and Un handlers (fused.cc)
//     apply to Values read from the typed planes, and the constant folder and
//     the linear extractor reach through fold();
//   * its result tag given its operands' tags (result_tag), from which the
//     typed lowering (typed.cc) assigns each register its plane;
//   * its cost class (op_rule's CountTag), the OpCounts field one evaluation
//     bumps: the tree tallies it, the bytecode compiler stamps it on each
//     instruction, and a trace build derives the field each specialized
//     handler checks from it.
// A trace's specialized handlers are the same-plane forms, where nothing
// promotes; the integer arithmetic they share with the kernels (int_add,
// int_shl, ...) wraps as Java's long does.
// A fault's what() string is part of the same cross-engine contract, so each
// one is built here once too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "ir/ast.h"
#include "ir/value.h"
#include "runtime/opcounts.h"

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

// ---- value kernels ----------------------------------------------------------

// int64 arithmetic wraps mod 2^64, as Java's long does: each operation runs
// on the unsigned bit pattern (signed overflow is undefined in C++).  The
// instructions are the same as the signed ones.
inline std::int64_t int_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t int_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t int_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t int_neg(std::int64_t a) {
  return static_cast<std::int64_t>(std::uint64_t{0} - static_cast<std::uint64_t>(a));
}
inline std::int64_t int_abs(std::int64_t a) { return a < 0 ? int_neg(a) : a; }

// Integer division/modulo with the runtime's zero checks, for the Value
// kernels below.  INT64_MIN / -1 overflows (the hardware traps); Java's
// answer is INT64_MIN, remainder 0.
inline std::int64_t int_div(std::int64_t a, std::int64_t b) {
  if (b == 0) throw std::runtime_error("integer division by zero");
  return b == -1 ? int_neg(a) : a / b;
}
inline std::int64_t int_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) throw std::runtime_error("integer modulo by zero");
  return b == -1 ? 0 : a % b;
}

// Shifts take their count mod 64, as Java does for a long, so every count
// is defined (a bare `<<` or `>>` by a count outside [0, 64) is undefined).
// On x86-64 the mask is the one the shift instruction applies anyway.
inline std::int64_t int_shl(std::int64_t a, std::int64_t b) {
  return a << (b & 63);
}
inline std::int64_t int_shr(std::int64_t a, std::int64_t b) {
  return a >> (b & 63);
}

inline ir::Value apply_bin(ir::BinOp op, const ir::Value& a, const ir::Value& b) {
  using ir::BinOp;
  using ir::Value;
  const bool ints = a.is_int() && b.is_int();
  switch (op) {
    case BinOp::Add:
      return ints ? Value(int_add(a.as_int(), b.as_int())) : Value(a.as_double() + b.as_double());
    case BinOp::Sub:
      return ints ? Value(int_sub(a.as_int(), b.as_int())) : Value(a.as_double() - b.as_double());
    case BinOp::Mul:
      return ints ? Value(int_mul(a.as_int(), b.as_int())) : Value(a.as_double() * b.as_double());
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
      return Value(int_shl(a.as_int(), b.as_int()));
    case BinOp::Shr:
      return Value(int_shr(a.as_int(), b.as_int()));
  }
  throw std::runtime_error("unhandled binop");
}

inline ir::Value apply_un(ir::UnOp op, const ir::Value& a) {
  using ir::UnOp;
  using ir::Value;
  switch (op) {
    case UnOp::Neg:
      return a.is_int() ? Value(int_neg(a.as_int())) : Value(-a.as_double());
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
      return a.is_int() ? Value(int_abs(a.as_int())) : Value(std::fabs(a.as_double()));
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

// The constant folder's entry point (analysis/constprop, linear/extract):
// apply_bin's value, or nullopt exactly where apply_bin throws -- integer
// division or modulo by zero.  apply_un never throws, so folders call it
// directly.
inline std::optional<ir::Value> fold(ir::BinOp op, const ir::Value& a,
                                     const ir::Value& b) {
  if ((op == ir::BinOp::Div || op == ir::BinOp::Mod) && a.is_int() &&
      b.is_int() && b.as_int() == 0) {
    return std::nullopt;
  }
  return apply_bin(op, a, b);
}

// ---- result tags and cost classes -------------------------------------------

// The typed lowering's three-point tag lattice (typed.h): Int and Double are
// incomparable; Mixed tops.
enum class Tag : std::uint8_t { Int = 0, Double = 1, Mixed = 2 };

inline Tag join_tag(Tag a, Tag b) { return a == b ? a : Tag::Mixed; }
inline Tag value_tag(const ir::Value& v) {
  return v.is_int() ? Tag::Int : Tag::Double;
}

// An operator's rule.  `yields` says how the kernel tags its result:
// Promote is Int when every operand is Int and Double otherwise (a unary one
// keeps its operand's tag), Int and Double are fixed -- every comparison,
// logic and bit op yields an Int (ir::Value(bool) is canonical Int).  `cost`
// is the OpCounts field one evaluation bumps; ByResult picks int_ops or
// flops by the result's tag.
enum class Yields : std::uint8_t { Promote, Int, Double };
struct OpRule {
  Yields yields;
  CountTag cost;
};

constexpr OpRule op_rule(ir::BinOp op) {
  using ir::BinOp;
  switch (op) {
    case BinOp::Add: case BinOp::Sub: case BinOp::Mul:
    case BinOp::Min: case BinOp::Max:
      return {Yields::Promote, CountTag::ByResult};
    case BinOp::Div: case BinOp::Mod:
      return {Yields::Promote, CountTag::Div};
    case BinOp::Pow:
      return {Yields::Double, CountTag::Trans};
    case BinOp::Lt: case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
    case BinOp::Eq: case BinOp::Ne: case BinOp::LAnd: case BinOp::LOr:
    case BinOp::BAnd: case BinOp::BOr: case BinOp::BXor:
    case BinOp::Shl: case BinOp::Shr:
      break;
  }
  return {Yields::Int, CountTag::IntOp};
}

constexpr OpRule op_rule(ir::UnOp op) {
  using ir::UnOp;
  switch (op) {
    case UnOp::Neg: case UnOp::Abs:
      return {Yields::Promote, CountTag::ByResult};
    case UnOp::LNot: case UnOp::BNot:
      return {Yields::Int, CountTag::IntOp};
    case UnOp::ToInt:
      return {Yields::Int, CountTag::None};
    case UnOp::ToFloat:
      return {Yields::Double, CountTag::None};
    case UnOp::Floor: case UnOp::Ceil: case UnOp::Round:
      return {Yields::Double, CountTag::Flop};
    case UnOp::Sin: case UnOp::Cos: case UnOp::Tan: case UnOp::Exp:
    case UnOp::Log: case UnOp::Sqrt:
      break;
  }
  return {Yields::Double, CountTag::Trans};
}

// The tag of `op`'s result on operands tagged `a` and `b` (a unary op's `b`
// is Int); Mixed when a promoting op reads a Mixed operand.
template <typename Op>
constexpr Tag result_tag(Op op, Tag a, Tag b = Tag::Int) {
  switch (op_rule(op).yields) {
    case Yields::Int: return Tag::Int;
    case Yields::Double: return Tag::Double;
    case Yields::Promote: break;
  }
  if (a == Tag::Mixed || b == Tag::Mixed) return Tag::Mixed;
  return a == Tag::Int && b == Tag::Int ? Tag::Int : Tag::Double;
}

// `cost` for a result tagged `t`: ByResult resolves to IntOp or Flop (and
// stays ByResult on Mixed); every other class is fixed.
constexpr CountTag resolve_cost(CountTag cost, Tag t) {
  if (cost != CountTag::ByResult || t == Tag::Mixed) return cost;
  return t == Tag::Int ? CountTag::IntOp : CountTag::Flop;
}

}  // namespace sit::runtime
