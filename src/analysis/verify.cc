#include "analysis/verify.h"

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "sched/schedule.h"

namespace sit::analysis {

using runtime::FlatActor;
using runtime::FlatEdge;
using runtime::FlatGraph;

namespace {

Diagnostic verr(const char* code, std::string where, std::string message,
                std::string detail = {}) {
  Diagnostic d = error("verify", std::move(where), std::move(message),
                       std::move(detail));
  d.code = code;
  return d;
}

// ---- V-STRUCT: flat-graph well-formedness -----------------------------------

bool check_structure(const FlatGraph& g, std::vector<Diagnostic>& out) {
  const std::size_t before = out.size();
  const int n = static_cast<int>(g.actors.size());
  const int m = static_cast<int>(g.edges.size());

  int input = -1;
  int output = -1;
  for (int ei = 0; ei < m; ++ei) {
    const FlatEdge& e = g.edges[static_cast<std::size_t>(ei)];
    const std::string name = "edge " + std::to_string(ei);
    if (e.src < -1 || e.src >= n || e.dst < -1 || e.dst >= n) {
      out.push_back(verr("V-STRUCT", name, "endpoint actor index out of range",
                         "src " + std::to_string(e.src) + ", dst " +
                             std::to_string(e.dst) + ", " +
                             std::to_string(n) + " actors"));
      continue;
    }
    if (e.src == -1 && e.dst == -1) {
      out.push_back(verr("V-STRUCT", name,
                         "edge has neither a producer nor a consumer"));
      continue;
    }
    if (e.src == -1) {
      if (input >= 0) {
        out.push_back(verr("V-STRUCT", name,
                           "more than one external input edge",
                           "also edge " + std::to_string(input)));
      }
      input = ei;
    } else {
      const FlatActor& a = g.actors[static_cast<std::size_t>(e.src)];
      if (e.src_port < 0 ||
          e.src_port >= static_cast<int>(a.out_edges.size()) ||
          a.out_edges[static_cast<std::size_t>(e.src_port)] != ei) {
        out.push_back(verr(
            "V-STRUCT", name,
            "producer port table disagrees with the edge",
            "actor '" + a.name + "' port " + std::to_string(e.src_port)));
      }
    }
    if (e.dst == -1) {
      if (output >= 0) {
        out.push_back(verr("V-STRUCT", name,
                           "more than one external output edge",
                           "also edge " + std::to_string(output)));
      }
      output = ei;
    } else {
      const FlatActor& a = g.actors[static_cast<std::size_t>(e.dst)];
      if (e.dst_port < 0 || e.dst_port >= static_cast<int>(a.in_edges.size()) ||
          a.in_edges[static_cast<std::size_t>(e.dst_port)] != ei) {
        out.push_back(verr(
            "V-STRUCT", name,
            "consumer port table disagrees with the edge",
            "actor '" + a.name + "' port " + std::to_string(e.dst_port)));
      }
    }
  }
  if (g.input_edge != input) {
    out.push_back(verr("V-STRUCT", "<graph>",
                       "input_edge field does not match the edge list",
                       "field says " + std::to_string(g.input_edge) +
                           ", edges say " + std::to_string(input)));
  }
  if (g.output_edge != output) {
    out.push_back(verr("V-STRUCT", "<graph>",
                       "output_edge field does not match the edge list",
                       "field says " + std::to_string(g.output_edge) +
                           ", edges say " + std::to_string(output)));
  }

  for (int ai = 0; ai < n; ++ai) {
    const FlatActor& a = g.actors[static_cast<std::size_t>(ai)];
    if (a.in_rate.size() != a.in_edges.size() ||
        a.out_rate.size() != a.out_edges.size()) {
      out.push_back(verr("V-STRUCT", a.name,
                         "rate arrays do not match the port counts"));
      continue;
    }
    bool ports_ok = true;
    for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
      const int e = a.in_edges[p];
      if (e < -1 || e >= m ||
          (e >= 0 && (g.edges[static_cast<std::size_t>(e)].dst != ai ||
                      g.edges[static_cast<std::size_t>(e)].dst_port !=
                          static_cast<int>(p)))) {
        out.push_back(verr("V-STRUCT", a.name,
                           "input port " + std::to_string(p) +
                               " does not point back at this actor"));
        ports_ok = false;
      }
      if (a.in_rate[p] < 0) {
        out.push_back(verr("V-STRUCT", a.name, "negative input rate"));
      }
      if (e == -1 && a.in_rate[p] > 0) {
        out.push_back(verr("V-STRUCT", a.name,
                           "input port " + std::to_string(p) +
                               " consumes items but has no edge"));
        ports_ok = false;
      }
    }
    for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
      const int e = a.out_edges[p];
      if (e < -1 || e >= m ||
          (e >= 0 && (g.edges[static_cast<std::size_t>(e)].src != ai ||
                      g.edges[static_cast<std::size_t>(e)].src_port !=
                          static_cast<int>(p)))) {
        out.push_back(verr("V-STRUCT", a.name,
                           "output port " + std::to_string(p) +
                               " does not point back at this actor"));
        ports_ok = false;
      }
      if (a.out_rate[p] < 0) {
        out.push_back(verr("V-STRUCT", a.name, "negative output rate"));
      }
      if (e == -1 && a.out_rate[p] > 0) {
        out.push_back(verr("V-STRUCT", a.name,
                           "output port " + std::to_string(p) +
                               " produces items but has no edge"));
        ports_ok = false;
      }
    }
    if (!ports_ok) continue;
    switch (a.kind) {
      case FlatActor::Kind::Filter:
      case FlatActor::Kind::Native:
        if (a.in_edges.size() > 1 || a.out_edges.size() > 1) {
          out.push_back(verr("V-STRUCT", a.name,
                             "filter with more than one input or output"));
        }
        if (a.node == nullptr) {
          out.push_back(verr("V-STRUCT", a.name,
                             "filter actor lost its defining graph node"));
        }
        if (a.peek_extra < 0) {
          out.push_back(verr("V-STRUCT", a.name, "negative peek window"));
        }
        break;
      case FlatActor::Kind::Splitter:
        if (a.in_edges.size() != 1) {
          out.push_back(
              verr("V-STRUCT", a.name, "splitter must have exactly one input"));
        }
        break;
      case FlatActor::Kind::Joiner:
        if (a.out_edges.size() != 1) {
          out.push_back(
              verr("V-STRUCT", a.name, "joiner must have exactly one output"));
        }
        break;
    }
  }
  return out.size() == before;
}

// ---- V-SJ: splitjoin weight sums --------------------------------------------

void check_splitjoins(const FlatGraph& g, std::vector<Diagnostic>& out) {
  for (const FlatActor& a : g.actors) {
    if (a.kind == FlatActor::Kind::Splitter) {
      if (a.sj == ir::SJKind::Duplicate) {
        bool ok = a.in_rate[0] == 1;
        for (int r : a.out_rate) ok = ok && r == 1;
        if (!ok) {
          out.push_back(verr("V-SJ", a.name,
                             "duplicate splitter must be 1 -> 1 per branch"));
        }
      } else {
        const int sum = std::accumulate(a.out_rate.begin(), a.out_rate.end(), 0);
        if (a.in_rate[0] != sum) {
          out.push_back(verr(
              "V-SJ", a.name,
              "splitter consumption does not equal the sum of branch weights",
              "consumes " + std::to_string(a.in_rate[0]) +
                  ", branch weights sum to " + std::to_string(sum)));
        }
      }
    } else if (a.kind == FlatActor::Kind::Joiner) {
      const int sum = std::accumulate(a.in_rate.begin(), a.in_rate.end(), 0);
      if (a.out_rate[0] != sum) {
        out.push_back(verr(
            "V-SJ", a.name,
            "joiner production does not equal the sum of branch weights",
            "produces " + std::to_string(a.out_rate[0]) +
                ", branch weights sum to " + std::to_string(sum)));
      }
    }
  }
}

// ---- V-ORDER: dag-ness of the partition order -------------------------------

bool check_order(const FlatGraph& g, std::vector<Diagnostic>& out) {
  const std::size_t n = g.actors.size();
  std::vector<int> indeg(n, 0);
  for (const FlatEdge& e : g.edges) {
    if (e.src >= 0 && e.dst >= 0 && !e.back_edge) {
      ++indeg[static_cast<std::size_t>(e.dst)];
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t a = 0; a < n; ++a) {
    if (indeg[a] == 0) ready.push_back(a);
  }
  std::size_t done = 0;
  while (!ready.empty()) {
    const std::size_t a = ready.back();
    ready.pop_back();
    ++done;
    for (const FlatEdge& e : g.edges) {
      if (e.src != static_cast<int>(a) || e.dst < 0 || e.back_edge) continue;
      if (--indeg[static_cast<std::size_t>(e.dst)] == 0) {
        ready.push_back(static_cast<std::size_t>(e.dst));
      }
    }
  }
  if (done == n) return true;
  std::string cycle;
  for (std::size_t a = 0; a < n; ++a) {
    if (indeg[a] == 0) continue;
    if (!cycle.empty()) cycle += ", ";
    cycle += g.actors[a].name;
  }
  out.push_back(verr("V-ORDER", "<graph>",
                     "forward edges form a cycle: no topological partition "
                     "order exists",
                     "cycle members: " + cycle));
  return false;
}

// ---- V-STATE: state ownership -----------------------------------------------

void check_state_ownership(const FlatGraph& g, std::vector<Diagnostic>& out) {
  std::map<const ir::Node*, std::size_t> owner;
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    const FlatActor& fa = g.actors[a];
    if (!fa.is_filter() || fa.node == nullptr) continue;
    const auto [it, inserted] = owner.emplace(fa.node, a);
    if (!inserted) {
      out.push_back(verr(
          "V-STATE", fa.name,
          "filter state referenced by two actors (rewrite failed to clone)",
          "also owned by actor '" + g.actors[it->second].name + "'"));
    }
  }
}

}  // namespace

std::vector<Diagnostic> verify_flat(const FlatGraph& g) {
  std::vector<Diagnostic> out;
  if (!check_structure(g, out)) return out;  // indices unsafe beyond here
  check_splitjoins(g, out);
  check_state_ownership(g, out);
  if (!check_order(g, out)) return out;  // the scheduler needs a topo order
  // V-RATES / V-SCHED: the scheduler is not one of the passes under check,
  // so its own verdict is the invariant.
  try {
    (void)sched::make_schedule(g);
  } catch (const sched::ScheduleError& e) {
    out.push_back(verr(e.kind == sched::ScheduleError::Kind::Rates
                           ? "V-RATES"
                           : "V-SCHED",
                       e.where, e.message, e.detail));
  }
  return out;
}

std::vector<Diagnostic> verify_graph(const ir::NodeP& root) {
  runtime::FlatGraph g;
  try {
    g = runtime::flatten(root);
  } catch (const std::exception& ex) {
    std::vector<Diagnostic> out;
    out.push_back(verr("V-STRUCT", root ? root->name : "<root>",
                       "graph does not flatten", ex.what()));
    return out;
  }
  return verify_flat(g);
}

}  // namespace sit::analysis
