#pragma once
// Operation accounting.
//
// The paper's evaluation reports statically-estimated work, compute
// utilization, and MFLOPS.  The interpreter tallies abstract machine
// operations into this struct; `weighted()` converts them into cycles of the
// modeled single-issue core (machine/machine.h documents the cost table) and
// `flops` counts just the floating-point arithmetic for MFLOPS.

#include <cstdint>

namespace sit::runtime {

struct OpCounts {
  std::int64_t int_ops{0};     // integer add/sub/mul/logic/compare
  std::int64_t flops{0};       // floating add/sub/mul
  std::int64_t divs{0};        // divisions (int or float)
  std::int64_t trans{0};       // sin/cos/exp/log/sqrt/pow
  std::int64_t mem{0};         // state variable / array accesses
  std::int64_t channel{0};     // push/pop/peek operations

  // Cycle cost on the modeled single-issue, in-order core.
  [[nodiscard]] double weighted() const {
    return static_cast<double>(int_ops) + static_cast<double>(flops) +
           4.0 * static_cast<double>(divs) + 25.0 * static_cast<double>(trans) +
           1.0 * static_cast<double>(mem) + 2.0 * static_cast<double>(channel);
  }

  // Floating point operations including the expensive ones (a transcendental
  // is libm work, counted as one flop for MFLOPS purposes, as Raw's numbers
  // count issued FP instructions; divisions count as one).
  [[nodiscard]] double total_flops() const {
    return static_cast<double>(flops) + static_cast<double>(divs) +
           static_cast<double>(trans);
  }

  OpCounts& operator+=(const OpCounts& o) {
    int_ops += o.int_ops;
    flops += o.flops;
    divs += o.divs;
    trans += o.trans;
    mem += o.mem;
    channel += o.channel;
    return *this;
  }
};

// Which OpCounts field one operation bumps.  Every bytecode instruction
// carries one (vm.h FInstr::count); an operator's comes from its cost class
// in the operator table (eval_ops.h op_rule), where ByResult -- int_ops or
// flops by the result's tag -- is resolved statically by the typed lowering
// and dynamically by the tree interpreter.
enum class CountTag : std::uint8_t {
  None, IntOp, Flop, Div, Trans, Mem, Channel, ByResult,
};

// Count one op in the field a static tag names (None and ByResult add
// nothing; lowered code carries no ByResult).
inline void tally(OpCounts& c, CountTag tag) {
  switch (tag) {
    case CountTag::IntOp: ++c.int_ops; break;
    case CountTag::Flop: ++c.flops; break;
    case CountTag::Div: ++c.divs; break;
    case CountTag::Trans: ++c.trans; break;
    case CountTag::Mem: ++c.mem; break;
    case CountTag::Channel: ++c.channel; break;
    case CountTag::None: case CountTag::ByResult: break;
  }
}

}  // namespace sit::runtime
