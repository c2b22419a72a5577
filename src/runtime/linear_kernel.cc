#include "runtime/linear_kernel.h"

namespace sit::runtime {

void linear_firings_checked(const ir::LinearRows& R, std::int64_t n,
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
