#pragma once
// Linear nodes as coefficient kernels.
//
// linear::to_filter lowers a linear node to a work function -- no state,
// init or handlers; one `push` per output of a left-deep sum
// `[b +] c*peek(i) + c*peek(i) + ...`, then `pop_n(pop)` -- and builds its
// coefficient rows (ir::LinearRows, CSR) in the same loop, attached to the
// filter spec.  typed_compile (compile.cc) reads them through
// FilterSpec::linear_rows, which drops them once the work is replaced, and
// attaches them to the filter's TypedFilter; everything that runs or
// reports a kernel reads them from there:
//   * the fused traces (fused.h) run a kernel actor's whole firing run as
//     one linear-kernel instruction -- in the whole-graph trace, and as the
//     actor's one-actor trace, which the per-actor executor (sched/exec.h)
//     fires one firing per fire_into and a whole run per fire_run (the
//     threaded runtime's workers);
//   * streamc --report (sched/describe.h) reports the kernel's shape.
// linear_firings (below) is the one kernel routine all of them use.
//
// Its contract with the expression form, which stays the semantics (the
// tree interpreter is the only engine that still evaluates it, and every
// engine-differential test compares the kernel against it):
//   * evaluation order: a row starts from b only when the expression has a
//     leading constant, otherwise from its first term (never from +0.0,
//     which would turn a -0.0 first term into +0.0); each further term is
//     `acc = acc + c*w` in the expression's order, so results are bit-equal
//     to it (the build is strict ISO C++, so nothing is contracted into an
//     FMA);
//   * counting: each firing adds the expression's exact OpCounts -- per row
//     one flop per multiply and per add and one channel op per peek and the
//     push, then `pop` channel ops;
//   * faults: when the input holds every item the n firings peek and pop,
//     they run unchecked over the tape's raw storage (ir::RingView, read as
//     buf[(head + i) & mask], so a ring that wraps mid-run needs no slow
//     path); otherwise every firing runs with the expression's checks in its
//     order, so a short input throws the same message at the same firing.

#include <algorithm>
#include <cstdint>

#include "ir/filter.h"
#include "runtime/opcounts.h"

namespace sit::runtime {

// `n` firings through the tapes' checked accessors, with the expression's
// checks and counts in its order (linear_firings' slow path).
void linear_firings_checked(const ir::LinearRows& R, std::int64_t n,
                            ir::InTape& in, ir::OutTape& out,
                            OpCounts* counts);

namespace detail {

// The kernel loop's view of its input window: flat memory, or a
// power-of-two ring read as buf[(head + i) & mask].
struct FlatWindow {
  const double* p;
  [[nodiscard]] double at(std::int32_t i) const { return p[i]; }
  void pop(std::int32_t n) { p += n; }
};
struct MaskedWindow {
  const double* buf;
  std::size_t head, mask;
  [[nodiscard]] double at(std::int32_t i) const {
    return buf[(head + static_cast<std::size_t>(i)) & mask];
  }
  void pop(std::int32_t n) { head += static_cast<std::size_t>(n); }
};

// `n` firings with no checks of their own: the caller has shown that the
// window holds every item they peek and pop.
template <class Window, class Out>
void kernel_loop(const ir::LinearRows& R, std::int64_t n, Window w, Out& out) {
  const std::int32_t* const rp = R.row_ptr.data();
  const std::int32_t* const col = R.col.data();
  const double* const val = R.val.data();
  const std::uint8_t* const has_b = R.has_b.data();
  const double* const b = R.b.data();
  // A row's first term, or its constant.
  const auto start = [&](int r, std::int32_t* k) {
    if (has_b[r] != 0) return b[r];
    const double acc = val[*k] * w.at(col[*k]);
    ++*k;
    return acc;
  };
  for (std::int64_t f = 0; f < n; ++f) {
    // Rows go in pairs: two independent sums hide each other's add latency,
    // while each keeps its own terms in order.
    int r = 0;
    for (; r + 1 < R.push; r += 2) {
      std::int32_t k0 = rp[r], k1 = rp[r + 1];
      const std::int32_t e0 = rp[r + 1], e1 = rp[r + 2];
      double a0 = start(r, &k0);
      double a1 = start(r + 1, &k1);
      for (; k0 < e0 && k1 < e1; ++k0, ++k1) {
        a0 = a0 + val[k0] * w.at(col[k0]);
        a1 = a1 + val[k1] * w.at(col[k1]);
      }
      for (; k0 < e0; ++k0) a0 = a0 + val[k0] * w.at(col[k0]);
      for (; k1 < e1; ++k1) a1 = a1 + val[k1] * w.at(col[k1]);
      out.push_item(a0);
      out.push_item(a1);
    }
    if (r < R.push) {
      std::int32_t k = rp[r];
      double acc = start(r, &k);
      for (; k < rp[r + 1]; ++k) acc = acc + val[k] * w.at(col[k]);
      out.push_item(acc);
    }
    if (R.pop > 0) w.pop(R.pop);
  }
}

}  // namespace detail

// Run `n` firings of R: read `in`, push to `out` (an ir::OutTape; a final
// class keeps the push a direct call), and add the expression's OpCounts to
// *counts (null: no counting).  A window that lies in one lap of the tape's
// storage is read with flat addressing, one that wraps with the mask (its
// two extra operations per term cost the loop 15-23% more time, so they
// are paid only where needed); both run unchecked.
template <class Out>
void linear_firings(const ir::LinearRows& R, std::int64_t n, ir::InTape& in,
                    Out& out, OpCounts* counts) {
  if (n <= 0) return;
  const std::int64_t need = std::max(R.span, R.pop);
  const auto items =
      static_cast<std::size_t>(need > 0 ? (n - 1) * R.pop + need : 0);
  ir::RingView w;
  if (items > 0 && !in.ring_view(items, &w)) {
    linear_firings_checked(R, n, in, out, counts);
    return;
  }
  const std::size_t first = w.head & w.mask;
  if (items == 0 || items - 1 <= w.mask - first) {
    detail::kernel_loop(R, n, detail::FlatWindow{w.buf + first}, out);
  } else {
    detail::kernel_loop(R, n, detail::MaskedWindow{w.buf, first, w.mask},
                        out);
  }
  if (R.pop > 0) in.pop_many(static_cast<int>(n * R.pop));
  if (counts != nullptr) {
    counts->flops += n * R.flops;
    counts->channel += n * R.channel;
  }
}

}  // namespace sit::runtime
