#pragma once
// Channel content tags: the graph layer of the typed-dataflow inference
// (runtime/typed.h).
//
// An edge is `Int` when every item it will ever carry is provably
// integer-valued (pushed from the int plane), `Double` otherwise.  Channels
// physically store double either way -- the tag is a certificate, the hook
// for narrower storage or integer kernels in a code generator.  Propagation
// is a forward fixpoint on the 2-point lattice Int < Double: filters
// contribute their inferred push tag, native filters and the external input
// contribute Double, splitters copy, joiners join, feedback prelude items
// join Double.
//
// Consumer: Executor::metrics_snapshot, which seeds it with its own
// specialization results (and through the snapshot, streamc --report).

#include <vector>

#include "runtime/flatgraph.h"
#include "runtime/typed.h"

namespace sit::analysis {

// `push_tag[a]` is the content of actor a's pushes; splitters/joiners are
// ignored (computed), and edges from the external input or with prelude
// items are Double.
std::vector<runtime::Tag> propagate_edge_tags(
    const runtime::FlatGraph& g, const std::vector<runtime::Tag>& push_tag);

}  // namespace sit::analysis
