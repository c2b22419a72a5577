#include "sched/schedule.h"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "sched/rational.h"

namespace sit::sched {

using runtime::FlatActor;
using runtime::FlatEdge;
using runtime::FlatGraph;

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

std::int64_t x_times(const Rat& x, std::int64_t l) {
  return x.num() * (l / x.den());
}

// Solve the balance equations reps[src]*out == reps[dst]*in exactly.
std::vector<std::int64_t> solve_balance(const FlatGraph& g) {
  const std::size_t n = g.actors.size();
  std::vector<Rat> r(n, Rat(0));
  std::vector<bool> seen(n, false);

  // Adjacency over internal edges (undirected for propagation).
  for (std::size_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    seen[start] = true;
    r[start] = Rat(1);
    std::vector<std::size_t> stack{start};
    while (!stack.empty()) {
      const std::size_t a = stack.back();
      stack.pop_back();
      auto relax = [&](const FlatEdge& e) {
        if (e.src < 0 || e.dst < 0) return;
        const auto su = static_cast<std::size_t>(e.src);
        const auto sv = static_cast<std::size_t>(e.dst);
        const std::int64_t out =
            g.actors[su].out_rate[static_cast<std::size_t>(e.src_port)];
        const std::int64_t in =
            g.actors[sv].in_rate[static_cast<std::size_t>(e.dst_port)];
        if (out == 0 && in == 0) return;
        if (out == 0 || in == 0) {
          throw std::runtime_error("rate mismatch: zero-rate producer feeding "
                                   "consuming actor (" + g.actors[su].name +
                                   " -> " + g.actors[sv].name + ")");
        }
        if (su == a || sv == a) {
          const std::size_t other = (su == a) ? sv : su;
          Rat want = (su == a) ? r[a] * Rat(out, in) : r[a] * Rat(in, out);
          if (!seen[other]) {
            seen[other] = true;
            r[other] = want;
            stack.push_back(other);
          } else if (r[other] != want) {
            throw std::runtime_error(
                "inconsistent rates around actor '" + g.actors[other].name +
                "': no steady-state schedule exists");
          }
        }
      };
      for (const auto& e : g.edges) relax(e);
    }
  }

  // Scale to the least positive integer vector.
  std::int64_t l = 1;
  for (const auto& x : r) l = std::lcm(l, x.den());
  std::vector<std::int64_t> reps(n, 0);
  std::int64_t gall = 0;
  for (std::size_t i = 0; i < n; ++i) {
    reps[i] = x_times(r[i], l);
    gall = std::gcd(gall, reps[i]);
  }
  if (gall > 1) {
    for (auto& x : reps) x /= gall;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (reps[i] <= 0) {
      throw std::runtime_error("actor '" + g.actors[i].name +
                               "' has non-positive repetition count");
    }
  }
  return reps;
}

}  // namespace

Schedule make_schedule(const FlatGraph& g) {
  Schedule s;
  const std::size_t n = g.actors.size();
  s.order = g.topo_order();
  s.reps = solve_balance(g);

  // Peek-extra requirement of an edge's consumer (filters have one in-port).
  auto peek_extra = [&](const FlatEdge& e) -> std::int64_t {
    if (e.dst < 0) return 0;
    const FlatActor& a = g.actors[static_cast<std::size_t>(e.dst)];
    return a.is_filter() ? a.peek_extra : 0;
  };
  auto in_rate = [&](const FlatEdge& e) -> std::int64_t {
    if (e.dst < 0) return 0;
    return g.actors[static_cast<std::size_t>(e.dst)]
        .in_rate[static_cast<std::size_t>(e.dst_port)];
  };
  auto out_rate = [&](const FlatEdge& e) -> std::int64_t {
    if (e.src < 0) return 0;
    return g.actors[static_cast<std::size_t>(e.src)]
        .out_rate[static_cast<std::size_t>(e.src_port)];
  };

  // --- init epoch: worklist relaxation of firing requirements -------------
  s.init_fires.assign(n, 0);
  bool changed = true;
  std::int64_t rounds = 0;
  while (changed) {
    changed = false;
    if (++rounds > static_cast<std::int64_t>(n) * 64 + 1024) {
      throw std::runtime_error(
          "initialization schedule does not converge (feedback deadlock?)");
    }
    for (const auto& e : g.edges) {
      if (e.dst < 0) continue;
      const std::int64_t need =
          s.init_fires[static_cast<std::size_t>(e.dst)] * in_rate(e) +
          peek_extra(e) - static_cast<std::int64_t>(e.initial_items.size());
      if (need <= 0 || e.src < 0) continue;
      const std::int64_t orate = out_rate(e);
      if (orate == 0) {
        throw std::runtime_error("actor '" + g.actors[static_cast<std::size_t>(e.src)].name +
                                 "' must provide init items but produces none");
      }
      const std::int64_t want = ceil_div(need, orate);
      auto& f = s.init_fires[static_cast<std::size_t>(e.src)];
      if (want > f) {
        f = want;
        changed = true;
      }
    }
  }

  // --- edge traffic and boundary rates ------------------------------------
  s.edge_traffic.assign(g.edges.size(), 0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    if (e.src >= 0) {
      s.edge_traffic[i] =
          s.reps[static_cast<std::size_t>(e.src)] * out_rate(e);
    } else if (e.dst >= 0) {
      s.edge_traffic[i] = s.reps[static_cast<std::size_t>(e.dst)] * in_rate(e);
    }
  }
  if (g.input_edge >= 0) {
    const auto& e = g.edges[static_cast<std::size_t>(g.input_edge)];
    s.input_per_steady = s.reps[static_cast<std::size_t>(e.dst)] * in_rate(e);
    s.input_for_init =
        s.init_fires[static_cast<std::size_t>(e.dst)] * in_rate(e) + peek_extra(e);
  }
  if (g.output_edge >= 0) {
    const auto& e = g.edges[static_cast<std::size_t>(g.output_edge)];
    s.output_per_steady = s.reps[static_cast<std::size_t>(e.src)] * out_rate(e);
  }

  // --- static sweep simulation: feasibility + buffer bounds ----------------
  // Mirrors the executor's data-driven sweep: fire actors in topological
  // order whenever their inputs allow, until every quota is exhausted.
  std::vector<std::int64_t> level(g.edges.size(), 0);
  std::vector<std::int64_t> high(g.edges.size(), 0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    level[i] = static_cast<std::int64_t>(g.edges[i].initial_items.size());
    high[i] = level[i];
  }
  // External input is modeled as always available.  `runs`, when given,
  // records the firing sequence.
  auto run_epoch = [&](const std::vector<std::int64_t>& quota_in,
                       const char* epoch,
                       std::vector<runtime::FiringRun>* runs) {
    std::vector<std::int64_t> quota = quota_in;
    bool progress = true;
    while (progress) {
      progress = false;
      for (int a : s.order) {
        const auto ai = static_cast<std::size_t>(a);
        while (quota[ai] > 0) {
          bool can = true;
          const FlatActor& act = g.actors[ai];
          for (std::size_t p = 0; p < act.in_edges.size(); ++p) {
            const int eid = act.in_edges[p];
            if (eid < 0) continue;
            const auto& e = g.edges[static_cast<std::size_t>(eid)];
            if (e.src < 0) continue;  // external input: unbounded
            std::int64_t want = act.in_rate[p];
            if (act.is_filter()) want += act.peek_extra;
            if (level[static_cast<std::size_t>(eid)] < want) {
              can = false;
              break;
            }
          }
          if (!can) break;
          for (std::size_t p = 0; p < act.in_edges.size(); ++p) {
            const int eid = act.in_edges[p];
            if (eid < 0) continue;
            if (g.edges[static_cast<std::size_t>(eid)].src < 0) continue;
            level[static_cast<std::size_t>(eid)] -= act.in_rate[p];
          }
          for (std::size_t p = 0; p < act.out_edges.size(); ++p) {
            const int eid = act.out_edges[p];
            if (eid < 0) continue;
            if (g.edges[static_cast<std::size_t>(eid)].dst < 0) continue;
            auto& lv = level[static_cast<std::size_t>(eid)];
            lv += act.out_rate[p];
            high[static_cast<std::size_t>(eid)] =
                std::max(high[static_cast<std::size_t>(eid)], lv);
          }
          --quota[ai];
          progress = true;
          if (runs != nullptr) {
            if (!runs->empty() && runs->back().actor == a) {
              ++runs->back().count;
            } else {
              runs->push_back({a, 1});
            }
          }
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (quota[i] > 0) {
        throw std::runtime_error(std::string("deadlock during ") + epoch +
                                 " epoch at actor '" + g.actors[i].name + "'");
      }
    }
  };
  run_epoch(s.init_fires, "init", nullptr);
  run_epoch(s.reps, "steady-1", &s.steady_runs);
  run_epoch(s.reps, "steady-2", nullptr);
  s.buffer_bound = high;

  return s;
}

std::string Schedule::describe(const FlatGraph& g) const {
  std::ostringstream os;
  os << "steady-state repetitions:\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    os << "  " << g.actors[i].name << ": " << reps[i];
    if (init_fires[i] > 0) os << " (+" << init_fires[i] << " init)";
    os << "\n";
  }
  os << "input/steady=" << input_per_steady
     << " output/steady=" << output_per_steady << "\n";
  return os.str();
}

}  // namespace sit::sched
