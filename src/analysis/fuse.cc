#include "analysis/fuse.h"

#include <exception>

#include "analysis/bounds_chan.h"
#include "runtime/compile.h"

namespace sit::analysis {

FusePlan fuse_plan(const runtime::FlatGraph& g, const sched::Schedule& s) {
  FusePlan plan;

  // Every AST filter must compile to bytecode (the trace inlines the
  // compiled template) and must not send teleport messages.  Native filters
  // are fine: the trace invokes their work function through tape adapters.
  for (const auto& a : g.actors) {
    if (a.kind != runtime::FlatActor::Kind::Filter) continue;
    std::string why;
    const auto prog = runtime::compile_filter(a.node->filter, &why);
    if (!prog) {
      plan.refusal = "vm-fallback:" + a.name + " (" + why + ")";
      return plan;
    }
    if (!prog->work.sends.empty() || !prog->init.sends.empty()) {
      plan.refusal = "teleport-send:" + a.name;
      return plan;
    }
  }

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
