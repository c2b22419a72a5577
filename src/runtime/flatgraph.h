#pragma once
// Flat actor graph.
//
// The hierarchical stream graph is lowered to a flat graph of *actors*
// (filters plus explicit splitter/joiner actors) connected by *edges*
// (channels).  All scheduling, mapping, simulation, and sdep analyses run on
// this form.  Edges may carry initial items: feedback-loop back edges start
// with `delay` items from initPath.
//
// The graph has at most one external input edge and one external output edge
// (a program whose top-level stream consumes/produces data); fully closed
// source-to-sink programs have neither.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "runtime/opcounts.h"

namespace sit::runtime {

// `count` consecutive firings of actor `actor`: one entry of a steady-state
// firing sequence (sched::Schedule::steady_runs).
struct FiringRun {
  int actor{-1};
  std::int64_t count{0};
};

struct FlatActor {
  enum class Kind { Filter, Native, Splitter, Joiner };

  Kind kind{};
  std::string name;

  // Filter/Native: the graph node this actor was lowered from (non-owning;
  // the Executor keeps the root graph alive).
  const ir::Node* node{nullptr};

  // Splitter/Joiner configuration.
  ir::SJKind sj{ir::SJKind::RoundRobin};
  std::vector<int> weights;

  // Edge ids, in port order, one per entry of in_rate / out_rate.  Every
  // port with a positive rate has an edge; only a zero-rate port (a
  // splitjoin's zero-weight branch) may hold -1.  Filters have exactly one
  // of each (or zero for pure sources/sinks).  flatten() makes this hold
  // and V-STRUCT (analysis/verify.h) checks it.
  std::vector<int> in_edges;
  std::vector<int> out_edges;

  // Items consumed per firing on each input port / produced on each output
  // port.  A duplicate splitter consumes one and produces one per branch; a
  // weighted round-robin splitter consumes total weight and produces w_i.
  std::vector<int> in_rate;
  std::vector<int> out_rate;

  // Filters only: peek - pop (extra items that must be buffered beyond what a
  // firing consumes).
  int peek_extra{0};

  [[nodiscard]] bool is_filter() const {
    return kind == Kind::Filter || kind == Kind::Native;
  }
  [[nodiscard]] int pop_rate() const { return in_rate.empty() ? 0 : in_rate[0]; }
  [[nodiscard]] int push_rate() const { return out_rate.empty() ? 0 : out_rate[0]; }
};

// The counts one firing of native actor `a` adds on every engine: its
// declared cost (cost_flops flops, the rest of cost_ops integer ops) and
// its declared channel traffic.
inline OpCounts native_firing_counts(const FlatActor& a) {
  OpCounts c;
  c.flops = static_cast<std::int64_t>(a.node->native.cost_flops);
  c.int_ops = static_cast<std::int64_t>(a.node->native.cost_ops -
                                        a.node->native.cost_flops);
  c.channel = a.pop_rate() + a.push_rate();
  return c;
}

struct FlatEdge {
  int src{-1};       // actor id, -1 = external program input
  int src_port{0};
  int dst{-1};       // actor id, -1 = external program output
  int dst_port{0};
  bool back_edge{false};  // feedback-loop back edge (carries initial items)
  std::vector<double> initial_items;
};

struct FlatGraph {
  std::vector<FlatActor> actors;
  std::vector<FlatEdge> edges;
  int input_edge{-1};   // edge whose src == -1, or -1 if none
  int output_edge{-1};  // edge whose dst == -1, or -1 if none

  // Topological order of actor ids ignoring back edges.
  [[nodiscard]] std::vector<int> topo_order() const;

  // Edges entering / leaving an actor (port order).
  [[nodiscard]] const FlatEdge& edge(int id) const { return edges[static_cast<std::size_t>(id)]; }

  [[nodiscard]] std::string describe() const;
};

// Lower a hierarchical graph.  Throws on malformed programs (use
// ir::check_or_throw first for friendlier errors).
FlatGraph flatten(const ir::NodeP& root);

}  // namespace sit::runtime
