#include "sched/schedule.h"

#include <algorithm>
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

std::int64_t out_rate(const FlatGraph& g, const FlatEdge& e) {
  if (e.src < 0) return 0;
  return g.actors[static_cast<std::size_t>(e.src)]
      .out_rate[static_cast<std::size_t>(e.src_port)];
}

std::int64_t in_rate(const FlatGraph& g, const FlatEdge& e) {
  if (e.dst < 0) return 0;
  return g.actors[static_cast<std::size_t>(e.dst)]
      .in_rate[static_cast<std::size_t>(e.dst_port)];
}

// Peek-extra requirement of an edge's consumer (filters have one in-port).
std::int64_t peek_extra(const FlatGraph& g, const FlatEdge& e) {
  if (e.dst < 0) return 0;
  const FlatActor& a = g.actors[static_cast<std::size_t>(e.dst)];
  return a.is_filter() ? a.peek_extra : 0;
}

std::vector<int> back_edges(const FlatGraph& g) {
  std::vector<int> out;
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (g.edges[i].back_edge) out.push_back(static_cast<int>(i));
  }
  return out;
}

// "a -> b (2 initial items), ..." over the given back edges.
std::string describe_back_edges(const FlatGraph& g,
                                const std::vector<int>& edges) {
  std::string out;
  for (const int ei : edges) {
    const FlatEdge& e = g.edges[static_cast<std::size_t>(ei)];
    if (!out.empty()) out += ", ";
    out += g.actors[static_cast<std::size_t>(e.src)].name + " -> " +
           g.actors[static_cast<std::size_t>(e.dst)].name + " (" +
           std::to_string(e.initial_items.size()) + " initial items)";
  }
  return out;
}

// Solve the balance equations reps[src]*out == reps[dst]*in exactly,
// propagating relative rates from each unvisited actor over the channels
// incident to it.
std::vector<std::int64_t> solve_balance(const FlatGraph& g) {
  using Kind = ScheduleError::Kind;
  const std::size_t n = g.actors.size();
  std::vector<Rat> r(n, Rat(0));
  std::vector<bool> seen(n, false);

  for (std::size_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    seen[start] = true;
    r[start] = Rat(1);
    std::vector<std::size_t> stack{start};
    while (!stack.empty()) {
      const std::size_t a = stack.back();
      stack.pop_back();
      for (const auto& e : g.edges) {
        if (e.src < 0 || e.dst < 0) continue;
        const auto su = static_cast<std::size_t>(e.src);
        const auto sv = static_cast<std::size_t>(e.dst);
        if (su != a && sv != a) continue;
        const std::int64_t out = out_rate(g, e);
        const std::int64_t in = in_rate(g, e);
        if (out == 0 && in == 0) continue;
        if (out == 0 || in == 0) {
          throw ScheduleError(
              Kind::Rates, g.actors[su].name + " -> " + g.actors[sv].name,
              "zero-rate endpoint on a channel that carries data",
              "producer rate " + std::to_string(out) + ", consumer rate " +
                  std::to_string(in));
        }
        const std::size_t other = (su == a) ? sv : su;
        const Rat want = (su == a) ? r[a] * Rat(out, in) : r[a] * Rat(in, out);
        if (!seen[other]) {
          seen[other] = true;
          r[other] = want;
          stack.push_back(other);
        } else if (r[other] != want) {
          throw ScheduleError(
              Kind::Rates, g.actors[other].name,
              "inconsistent rates: no steady-state schedule exists",
              "balance equations require " + g.actors[other].name +
                  " to fire at two different relative rates");
        }
      }
    }
  }

  // Scale to the least positive integer vector.
  std::int64_t l = 1;
  for (const auto& x : r) l = std::lcm(l, x.den());
  std::vector<std::int64_t> reps(n, 0);
  std::int64_t gall = 0;
  for (std::size_t i = 0; i < n; ++i) {
    reps[i] = x_times(r[i], l);
    if (reps[i] <= 0) {
      throw ScheduleError(Kind::Rates, g.actors[i].name,
                          "non-positive repetition count",
                          "actor is disconnected from all data flow");
    }
    gall = std::gcd(gall, reps[i]);
  }
  if (gall > 1) {
    for (auto& x : reps) x /= gall;
  }
  return reps;
}

}  // namespace

ScheduleError::ScheduleError(Kind kind, std::string where, std::string message,
                             std::string detail, std::vector<int> stuck,
                             std::vector<int> back_edges)
    : std::runtime_error(where + ": " + message +
                         (detail.empty() ? "" : " (" + detail + ")")),
      kind(kind),
      where(std::move(where)),
      message(std::move(message)),
      detail(std::move(detail)),
      stuck(std::move(stuck)),
      back_edges(std::move(back_edges)) {}

Schedule make_schedule(const FlatGraph& g) {
  using Kind = ScheduleError::Kind;
  Schedule s;
  const std::size_t n = g.actors.size();
  s.reps = solve_balance(g);
  s.order = g.topo_order();

  // --- init epoch: worklist relaxation of firing requirements -------------
  // Non-convergence means a feedback loop's initial items cannot cover the
  // init demand: each trip around the cycle asks the producer for more
  // firings, forever.
  s.init_fires.assign(n, 0);
  bool changed = true;
  std::int64_t rounds = 0;
  while (changed) {
    changed = false;
    if (++rounds > static_cast<std::int64_t>(n) * 64 + 1024) {
      std::vector<int> back = back_edges(g);
      const std::string edges = describe_back_edges(g, back);
      throw ScheduleError(
          Kind::Init, "<init schedule>",
          "initialization does not converge: feedback delay is too small "
          "for the loop's init demand",
          edges.empty() ? "no back edges found (pathological graph)"
                        : "back edges: " + edges,
          {}, std::move(back));
    }
    for (const auto& e : g.edges) {
      if (e.dst < 0) continue;
      const std::int64_t need =
          s.init_fires[static_cast<std::size_t>(e.dst)] * in_rate(g, e) +
          peek_extra(g, e) - static_cast<std::int64_t>(e.initial_items.size());
      if (need <= 0 || e.src < 0) continue;
      const std::int64_t orate = out_rate(g, e);
      if (orate == 0) {
        throw ScheduleError(
            Kind::Init, g.actors[static_cast<std::size_t>(e.src)].name,
            "must provide initialization items but produces none",
            "downstream actor '" +
                g.actors[static_cast<std::size_t>(e.dst)].name + "' needs " +
                std::to_string(need) + " item(s) before its first firing");
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
          s.reps[static_cast<std::size_t>(e.src)] * out_rate(g, e);
    } else if (e.dst >= 0) {
      s.edge_traffic[i] =
          s.reps[static_cast<std::size_t>(e.dst)] * in_rate(g, e);
    }
  }
  if (g.input_edge >= 0) {
    const auto& e = g.edges[static_cast<std::size_t>(g.input_edge)];
    s.input_per_steady =
        s.reps[static_cast<std::size_t>(e.dst)] * in_rate(g, e);
    s.input_for_init =
        s.init_fires[static_cast<std::size_t>(e.dst)] * in_rate(g, e) +
        peek_extra(g, e);
  }
  if (g.output_edge >= 0) {
    const auto& e = g.edges[static_cast<std::size_t>(g.output_edge)];
    s.output_per_steady =
        s.reps[static_cast<std::size_t>(e.src)] * out_rate(g, e);
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
  // records the firing sequence.  An epoch that stops short deadlocks.
  auto run_epoch = [&](const std::vector<std::int64_t>& quota_in, Kind kind,
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
    std::vector<int> stuck;
    std::string names;
    for (std::size_t i = 0; i < n; ++i) {
      if (quota[i] <= 0) continue;
      stuck.push_back(static_cast<int>(i));
      if (!names.empty()) names += ", ";
      names += g.actors[i].name;
    }
    if (stuck.empty()) return;
    std::vector<int> back = back_edges(g);
    const std::string edges = describe_back_edges(g, back);
    const bool init = kind == Kind::Init;
    throw ScheduleError(
        kind, init ? "<init schedule>" : "<steady schedule>",
        init ? "initialization deadlocks: the init firings cannot complete "
               "in data-driven order"
             : "steady state deadlocks: feedback delay enqueues fewer items "
               "than the loop consumes per epoch",
        "stuck actors: " + names +
            (edges.empty() ? "" : "; back edges: " + edges),
        std::move(stuck), std::move(back));
  };
  run_epoch(s.init_fires, Kind::Init, nullptr);
  run_epoch(s.reps, Kind::Steady, &s.steady_runs);
  run_epoch(s.reps, Kind::Steady, nullptr);
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
