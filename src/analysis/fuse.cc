#include "analysis/fuse.h"

#include <exception>

#include "analysis/bounds_chan.h"

namespace sit::analysis {

FusePlan fuse_plan(const runtime::FlatGraph& g, const sched::Schedule& s) {
  FusePlan plan;

  ChannelBounds bounds;
  try {
    bounds = channel_bounds(g, s);
  } catch (const std::exception& e) {
    plan.refusal = std::string("bounds-unavailable (") + e.what() + ")";
    return plan;
  }

  plan.carry = bounds.post_init;
  plan.traffic = bounds.traffic;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto& ed = g.edges[e];
    if (ed.src >= 0 && ed.dst >= 0) ++plan.internal_edges;
  }
  plan.admissible = true;
  return plan;
}

}  // namespace sit::analysis
