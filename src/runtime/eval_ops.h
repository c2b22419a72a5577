#pragma once
// Scalar operator kernels and runtime fault messages shared by every engine.
//
// The engines must agree bit-for-bit on StreamIt's Java-like promotion
// rules (int op int stays integral, any float operand promotes), so the
// arithmetic lives here exactly once.  These are pure value functions;
// operation *counting* stays engine-side because the tree walker and the
// typed engines attach costs at different points.  A fault's what() string is part of the
// same cross-engine contract, so each one is built here once too.

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

// Integer division/modulo with the runtime's zero checks.  Shared by the
// tree interpreter's Value kernels below and the typed (unboxed) dispatch
// loops so the error
// strings exist exactly once.
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

// ---- typed (unboxed) kernels ------------------------------------------------
//
// The typed register plane (runtime/typed.h) splits what the tree
// interpreter holds as Values into a raw double file and a raw int64 file.  The static typeflow analysis
// proves which plane every operand lives in at every program point; these
// kernels execute one binary/unary op against the two planes given that
// operand-plane mode byte.  They mirror apply_bin/apply_un exactly -- same
// promotion rules, same truncating casts, same error strings -- because any
// divergence breaks the typed == tree bit-equality contract.

constexpr std::uint8_t kModeAD = 1;  // operand `a` lives in the double plane
constexpr std::uint8_t kModeBD = 2;  // operand `b` lives in the double plane
constexpr std::uint8_t kModeDD = 4;  // the `dst` operand (move source, store
                                     // or push payload) is in the double plane

// Cross-plane fetches, matching Value::as_int / Value::as_double.
inline std::int64_t typed_geti(const double* dr, const std::int64_t* ir,
                               std::uint16_t r, bool dbl) {
  return dbl ? static_cast<std::int64_t>(dr[r]) : ir[r];
}
inline double typed_getd(const double* dr, const std::int64_t* ir,
                         std::uint16_t r, bool dbl) {
  return dbl ? dr[r] : static_cast<double>(ir[r]);
}
inline bool typed_truthy(const double* dr, const std::int64_t* ir,
                         std::uint16_t r, bool dbl) {
  return dbl ? dr[r] != 0.0 : ir[r] != 0;
}

// One binary op over the dual plane.  `mode` carries the operand planes; the
// result plane is a function of the op and the operand planes (int kernel iff
// both operands are int), exactly as apply_bin resolves it from runtime tags.
inline void typed_bin(ir::BinOp op, double* dr, std::int64_t* ir,
                      std::uint16_t dst, std::uint16_t a, std::uint16_t b,
                      std::uint8_t mode) {
  using ir::BinOp;
  const bool ad = (mode & kModeAD) != 0;
  const bool bd = (mode & kModeBD) != 0;
  const bool ints = !ad && !bd;
  switch (op) {
    case BinOp::Add:
      if (ints) ir[dst] = ir[a] + ir[b];
      else dr[dst] = typed_getd(dr, ir, a, ad) + typed_getd(dr, ir, b, bd);
      break;
    case BinOp::Sub:
      if (ints) ir[dst] = ir[a] - ir[b];
      else dr[dst] = typed_getd(dr, ir, a, ad) - typed_getd(dr, ir, b, bd);
      break;
    case BinOp::Mul:
      if (ints) ir[dst] = ir[a] * ir[b];
      else dr[dst] = typed_getd(dr, ir, a, ad) * typed_getd(dr, ir, b, bd);
      break;
    case BinOp::Div:
      if (ints) ir[dst] = int_div(ir[a], ir[b]);
      else dr[dst] = typed_getd(dr, ir, a, ad) / typed_getd(dr, ir, b, bd);
      break;
    case BinOp::Mod:
      if (ints) ir[dst] = int_mod(ir[a], ir[b]);
      else dr[dst] = std::fmod(typed_getd(dr, ir, a, ad),
                               typed_getd(dr, ir, b, bd));
      break;
    case BinOp::Min:
      if (ints) ir[dst] = std::min(ir[a], ir[b]);
      else dr[dst] = std::min(typed_getd(dr, ir, a, ad),
                              typed_getd(dr, ir, b, bd));
      break;
    case BinOp::Max:
      if (ints) ir[dst] = std::max(ir[a], ir[b]);
      else dr[dst] = std::max(typed_getd(dr, ir, a, ad),
                              typed_getd(dr, ir, b, bd));
      break;
    case BinOp::Pow:
      dr[dst] = std::pow(typed_getd(dr, ir, a, ad), typed_getd(dr, ir, b, bd));
      break;
    case BinOp::Lt:
      ir[dst] = (ints ? ir[a] < ir[b]
                      : typed_getd(dr, ir, a, ad) < typed_getd(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::Le:
      ir[dst] = (ints ? ir[a] <= ir[b]
                      : typed_getd(dr, ir, a, ad) <= typed_getd(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::Gt:
      ir[dst] = (ints ? ir[a] > ir[b]
                      : typed_getd(dr, ir, a, ad) > typed_getd(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::Ge:
      ir[dst] = (ints ? ir[a] >= ir[b]
                      : typed_getd(dr, ir, a, ad) >= typed_getd(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::Eq:
      ir[dst] = (ints ? ir[a] == ir[b]
                      : typed_getd(dr, ir, a, ad) == typed_getd(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::Ne:
      ir[dst] = (ints ? ir[a] != ir[b]
                      : typed_getd(dr, ir, a, ad) != typed_getd(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::LAnd:
      ir[dst] = (typed_truthy(dr, ir, a, ad) && typed_truthy(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::LOr:
      ir[dst] = (typed_truthy(dr, ir, a, ad) || typed_truthy(dr, ir, b, bd))
                    ? 1 : 0;
      break;
    case BinOp::BAnd:
      ir[dst] = typed_geti(dr, ir, a, ad) & typed_geti(dr, ir, b, bd);
      break;
    case BinOp::BOr:
      ir[dst] = typed_geti(dr, ir, a, ad) | typed_geti(dr, ir, b, bd);
      break;
    case BinOp::BXor:
      ir[dst] = typed_geti(dr, ir, a, ad) ^ typed_geti(dr, ir, b, bd);
      break;
    case BinOp::Shl:
      ir[dst] = typed_geti(dr, ir, a, ad) << typed_geti(dr, ir, b, bd);
      break;
    case BinOp::Shr:
      ir[dst] = typed_geti(dr, ir, a, ad) >> typed_geti(dr, ir, b, bd);
      break;
  }
}

// One unary op over the dual plane; kModeAD carries the operand plane.
inline void typed_un(ir::UnOp op, double* dr, std::int64_t* ir,
                     std::uint16_t dst, std::uint16_t a, std::uint8_t mode) {
  using ir::UnOp;
  const bool ad = (mode & kModeAD) != 0;
  switch (op) {
    case UnOp::Neg:
      if (ad) dr[dst] = -dr[a];
      else ir[dst] = -ir[a];
      break;
    case UnOp::Abs:
      if (ad) dr[dst] = std::fabs(dr[a]);
      else ir[dst] = std::abs(ir[a]);
      break;
    case UnOp::LNot:
      ir[dst] = typed_truthy(dr, ir, a, ad) ? 0 : 1;
      break;
    case UnOp::BNot:
      ir[dst] = ~typed_geti(dr, ir, a, ad);
      break;
    case UnOp::Sin: dr[dst] = std::sin(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Cos: dr[dst] = std::cos(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Tan: dr[dst] = std::tan(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Exp: dr[dst] = std::exp(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Log: dr[dst] = std::log(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Sqrt: dr[dst] = std::sqrt(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Floor: dr[dst] = std::floor(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Ceil: dr[dst] = std::ceil(typed_getd(dr, ir, a, ad)); break;
    case UnOp::Round: dr[dst] = std::round(typed_getd(dr, ir, a, ad)); break;
    case UnOp::ToInt: ir[dst] = typed_geti(dr, ir, a, ad); break;
    case UnOp::ToFloat: dr[dst] = typed_getd(dr, ir, a, ad); break;
  }
}

}  // namespace sit::runtime
