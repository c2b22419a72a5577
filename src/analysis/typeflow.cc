#include "analysis/typeflow.h"

#include <deque>

namespace sit::analysis {

using runtime::FlatActor;
using runtime::FlatGraph;
using runtime::Tag;

namespace {

// Content lattice: Int < Double (an edge is Int only while every producer
// certifies integral items).
Tag content_join(Tag a, Tag b) {
  return (a == Tag::Int && b == Tag::Int) ? Tag::Int : Tag::Double;
}

}  // namespace

std::vector<Tag> propagate_edge_tags(const FlatGraph& g,
                                     const std::vector<Tag>& push_tag) {
  // Forward fixpoint, worklist over actors.  Edges start at Int (bottom) and
  // only rise, so feedback loops converge.
  std::vector<Tag> edge(g.edges.size(), Tag::Int);
  std::deque<int> work;
  std::vector<char> queued(g.actors.size(), 0);

  auto raise_edge = [&](int e, Tag t) {
    const auto ue = static_cast<std::size_t>(e);
    const Tag j = content_join(edge[ue], t);
    if (j == edge[ue]) return;
    edge[ue] = j;
    const int dst = g.edges[ue].dst;
    if (dst >= 0 && !queued[static_cast<std::size_t>(dst)]) {
      queued[static_cast<std::size_t>(dst)] = 1;
      work.push_back(dst);
    }
  };

  // Boundary and prelude seeds: external input items and feedback prelude
  // items carry no certificate.
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (g.edges[e].src < 0 || !g.edges[e].initial_items.empty()) {
      raise_edge(static_cast<int>(e), Tag::Double);
    }
  }
  // Producer seeds: every actor contributes once up front (sources have no
  // inputs and would otherwise never enter the worklist).
  for (std::size_t a = 0; a < g.actors.size(); ++a) {
    if (!queued[a]) {
      queued[a] = 1;
      work.push_back(static_cast<int>(a));
    }
  }

  while (!work.empty()) {
    const int ai = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(ai)] = 0;
    const FlatActor& a = g.actors[static_cast<std::size_t>(ai)];
    switch (a.kind) {
      case FlatActor::Kind::Filter:
      case FlatActor::Kind::Native: {
        const Tag t = push_tag[static_cast<std::size_t>(ai)];
        for (int e : a.out_edges) {
          if (e >= 0) raise_edge(e, t);
        }
        break;
      }
      case FlatActor::Kind::Splitter: {
        Tag t = Tag::Int;
        for (int e : a.in_edges) {
          if (e >= 0) t = content_join(t, edge[static_cast<std::size_t>(e)]);
        }
        for (int e : a.out_edges) {
          if (e >= 0) raise_edge(e, t);
        }
        break;
      }
      case FlatActor::Kind::Joiner: {
        Tag t = Tag::Int;
        for (int e : a.in_edges) {
          if (e >= 0) t = content_join(t, edge[static_cast<std::size_t>(e)]);
        }
        for (int e : a.out_edges) {
          if (e >= 0) raise_edge(e, t);
        }
        break;
      }
    }
  }
  return edge;
}

}  // namespace sit::analysis
