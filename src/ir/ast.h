#pragma once
// The C-like work-function AST ("the IR").
//
// A StreamIt filter's behaviour is given by imperative code over its input
// and output channels.  Every compiler analysis in this repository -- the
// interpreter, the static work estimator, and in particular the *linear
// extraction analysis* of the paper -- consumes this AST.  It deliberately
// mirrors the subset of Java that StreamIt 1.0 admits: scalar and array
// variables, arithmetic, bounded loops, conditionals, and the channel
// intrinsics peek/pop/push, plus teleport-message sends through portals.
//
// Nodes are immutable and shared via shared_ptr<const T>; programs are
// constructed once (by the builder eDSL in dsl.h) and then only read.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.h"

namespace sit::ir {

enum class BinOp {
  Add, Sub, Mul, Div, Mod, Min, Max, Pow,
  Lt, Le, Gt, Ge, Eq, Ne, LAnd, LOr,
  BAnd, BOr, BXor, Shl, Shr,
};

enum class UnOp {
  Neg, LNot, BNot,
  Sin, Cos, Tan, Exp, Log, Sqrt, Abs, Floor, Ceil, Round,
  ToInt, ToFloat,
};

const char* to_string(BinOp op);
const char* to_string(UnOp op);

struct Expr;
using ExprP = std::shared_ptr<const Expr>;

// A single tagged node type keeps the AST compact and makes exhaustive
// switch-based visitors (interpreter, extractor, printer) straightforward.
struct Expr {
  enum class Kind {
    IntConst,   // ival
    FloatConst, // fval
    Var,        // name
    ArrayRef,   // name[a]
    Peek,       // peek(a)          -- a must evaluate to an int >= 0
    Pop,        // pop()            -- reads and consumes one input item
    Bin,        // a <bop> b
    Un,         // <uop> a
    Cond,       // a ? b : c
  };

  Kind kind{};
  std::int64_t ival{};
  double fval{};
  std::string name;
  ExprP a, b, c;
  BinOp bop{};
  UnOp uop{};
};

// ---- expression factories -------------------------------------------------

ExprP iconst(std::int64_t v);
ExprP fconst(double v);
ExprP var(std::string name);
ExprP aref(std::string name, ExprP index);
ExprP peek(ExprP index);
ExprP pop();
ExprP bin(BinOp op, ExprP a, ExprP b);
ExprP un(UnOp op, ExprP a);
ExprP cond(ExprP c, ExprP t, ExprP f);

struct Stmt;
using StmtP = std::shared_ptr<const Stmt>;

struct Stmt {
  enum class Kind {
    Block,       // stmts
    Assign,      // name = value
    ArrayAssign, // name[index] = value
    Push,        // push(value)
    PopN,        // pop value(s) and discard; count in index expr
    For,         // for (name = lo; name < hi; name += step) body
    If,          // if (cond) body else elseBody
    Send,        // portal.method(args) with latency [latMin, latMax]
  };

  Kind kind{};
  std::vector<StmtP> stmts;
  std::string name;            // Assign/ArrayAssign target, For var, Send portal
  ExprP index;                 // ArrayAssign index; PopN count
  ExprP value;                 // Assign/ArrayAssign rhs, Push value
  ExprP cond;                  // If condition
  ExprP lo, hi, step;          // For bounds (hi exclusive)
  StmtP body, elseBody;
  std::string method;          // Send method name
  std::vector<ExprP> args;     // Send arguments
  int latMin{0}, latMax{0};    // Send latency interval (information wavefronts)
};

// ---- statement factories ---------------------------------------------------

StmtP block(std::vector<StmtP> stmts);
StmtP assign(std::string name, ExprP value);
StmtP array_assign(std::string name, ExprP index, ExprP value);
StmtP push(ExprP value);
StmtP pop_n(ExprP count);
StmtP for_loop(std::string v, ExprP lo, ExprP hi, StmtP body);
StmtP for_loop_step(std::string v, ExprP lo, ExprP hi, ExprP step, StmtP body);
StmtP if_then(ExprP cond, StmtP body);
StmtP if_else(ExprP cond, StmtP body, StmtP elseBody);
StmtP send(std::string portal, std::string method, std::vector<ExprP> args,
           int latMin, int latMax);

// True if `s` (null allowed) contains a Send statement anywhere.
bool stmt_sends(const StmtP& s);

// ---- pretty printing -------------------------------------------------------

std::string to_string(const ExprP& e);
std::string to_string(const StmtP& s, int indent = 0);

}  // namespace sit::ir
