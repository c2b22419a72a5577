#include "analysis/bounds_chan.h"

namespace sit::analysis {

using runtime::FlatActor;
using runtime::FlatEdge;
using runtime::FlatGraph;
using sched::Schedule;

namespace {

std::int64_t rate_into(const FlatActor& a, int edge) {
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    if (a.in_edges[p] == edge) return a.in_rate[p];
  }
  return 0;
}

std::int64_t rate_outof(const FlatActor& a, int edge) {
  for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
    if (a.out_edges[p] == edge) return a.out_rate[p];
  }
  return 0;
}

}  // namespace

ChannelBounds channel_bounds(const FlatGraph& g, const Schedule& s) {
  ChannelBounds b;
  const std::size_t m = g.edges.size();
  b.post_init.assign(m, -1);
  b.traffic.assign(m, -1);
  b.in_order.assign(m, -1);
  b.steady_single.assign(m, -1);

  // Topo position of each actor in the firing order.
  std::vector<std::size_t> pos(g.actors.size(), 0);
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    pos[static_cast<std::size_t>(s.order[i])] = i;
  }

  // L0: closed form from the init firing counts.
  for (std::size_t e = 0; e < m; ++e) {
    const FlatEdge& ed = g.edges[e];
    if (ed.src < 0 || ed.dst < 0) continue;  // boundary: no bound
    std::int64_t l0 = static_cast<std::int64_t>(ed.initial_items.size());
    l0 += s.init_fires[static_cast<std::size_t>(ed.src)] *
          rate_outof(g.actors[static_cast<std::size_t>(ed.src)],
                     static_cast<int>(e));
    l0 -= s.init_fires[static_cast<std::size_t>(ed.dst)] *
          rate_into(g.actors[static_cast<std::size_t>(ed.dst)],
                    static_cast<int>(e));
    b.post_init[e] = l0;
    b.traffic[e] = s.edge_traffic[e];
    b.in_order[e] = s.buffer_bound[e];
    b.steady_single[e] =
        l0 + (pos[static_cast<std::size_t>(ed.src)] <
                      pos[static_cast<std::size_t>(ed.dst)]
                  ? s.edge_traffic[e]
                  : 0);
  }

  // Single-appearance admissibility, generalized over the batch factor B:
  // a chunk of B steady iterations fires each actor reps * B times at once,
  // in topo order, starting from L0.  Every edge level is affine in B
  // (cnt = c0 + B * c1: c0 collects the init-epoch contributions, c1 the
  // per-iteration steady ones), and each consumer's starvation constraint
  //
  //     c0 + B * c1 >= B * reps * in_rate + peek_extra
  //
  // either holds for every B >= 1 (when reps * in_rate <= c1, e.g. any
  // forward edge already refilled by its producer) or caps B at
  // floor((c0 - peek_extra) / (reps * in_rate - c1)).  max_batch is the
  // minimum cap; B = 1 infeasible reproduces the classic single-appearance
  // failure and names the first starved actor.
  {
    std::vector<std::int64_t> c0(m, 0);
    std::vector<std::int64_t> c1(m, 0);
    for (std::size_t e = 0; e < m; ++e) {
      const FlatEdge& ed = g.edges[e];
      std::int64_t c = static_cast<std::int64_t>(ed.initial_items.size());
      if (ed.src >= 0) {
        c += s.init_fires[static_cast<std::size_t>(ed.src)] *
             rate_outof(g.actors[static_cast<std::size_t>(ed.src)],
                        static_cast<int>(e));
      } else {
        c += s.input_for_init;
      }
      if (ed.dst >= 0) {
        c -= s.init_fires[static_cast<std::size_t>(ed.dst)] *
             rate_into(g.actors[static_cast<std::size_t>(ed.dst)],
                       static_cast<int>(e));
      }
      c0[e] = c;
    }
    if (g.input_edge >= 0) {
      c1[static_cast<std::size_t>(g.input_edge)] += s.input_per_steady;
    }
    for (int actor : s.order) {
      const auto ai = static_cast<std::size_t>(actor);
      const FlatActor& a = g.actors[ai];
      for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
        const int e = a.in_edges[p];
        if (e < 0) continue;
        const auto ei = static_cast<std::size_t>(e);
        const std::int64_t need1 = s.reps[ai] * a.in_rate[p];
        std::int64_t extra = 0;
        if (a.is_filter()) extra = a.peek_extra;
        const std::int64_t coeff = need1 - c1[ei];
        if (coeff <= 0) {
          // Supply per batch outpaces demand, so larger batches only help --
          // but B = 1 (and remainder chunks) must still clear peek_extra.
          if (c0[ei] + c1[ei] < need1 + extra && b.single_appearance) {
            b.single_appearance = false;
            b.blocker = a.name;
          }
          continue;
        }
        // Largest B with c0 + B*c1 >= B*need1 + extra (floor division; the
        // numerator can be negative, in which case no batch is feasible).
        const std::int64_t num = c0[ei] - extra;
        const std::int64_t cap = num < 0 ? 0 : num / coeff;
        if (cap < b.max_batch) b.max_batch = cap;
        if (cap < 1 && b.single_appearance) {
          b.single_appearance = false;
          b.blocker = a.name;
        }
      }
      if (!b.single_appearance) {
        b.max_batch = 0;
        return b;
      }
      for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
        const int e = a.in_edges[p];
        if (e >= 0) c1[static_cast<std::size_t>(e)] -= s.reps[ai] * a.in_rate[p];
      }
      for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
        const int e = a.out_edges[p];
        if (e >= 0) c1[static_cast<std::size_t>(e)] += s.reps[ai] * a.out_rate[p];
      }
    }
  }
  return b;
}

}  // namespace sit::analysis
