#pragma once
// Whole-graph typed-dataflow analysis (the graph layer of runtime/typed.h).
//
// Per actor, runs the same static tag inference the executors use to decide
// dual-plane specialization -- compile to bytecode, initialize a fresh state,
// infer register/state tags to fixpoint -- and records the result: the
// inferred class of every state scalar/array, the number of registers proven
// Double, and the stable reason (the executors' typed_refusal) where the
// filter runs on the tree interpreter instead.
//
// Per edge, propagates *content tags* through the graph: an edge is `Int`
// when every item it will ever carry is provably integer-valued (pushed from
// the int plane), `Double` otherwise.  Channels physically store double
// either way -- the tag is a certificate, the hook for narrower storage or
// integer kernels in a code generator.  Propagation is a forward fixpoint on
// the 2-point lattice Int < Double: filters contribute their inferred push
// tag, native filters and the external input contribute Double, splitters
// copy, joiners join, feedback prelude items join Double.
//
// Consumers: the `typeflow` report-only pass (opt/passes.cc), streamc
// --report, and the executors' channel-content marking.

#include <string>
#include <utility>
#include <vector>

#include "runtime/flatgraph.h"
#include "runtime/typed.h"

namespace sit::analysis {

// One actor's inferred-type table.
struct ActorTypeflow {
  std::string name;
  bool is_filter{false};    // AST filter (candidates for specialization)
  bool specialized{false};  // inference proved the dual-plane lowering safe
  std::string refusal;      // stable reason when not (empty if specialized or
                            // not a candidate)
  int typed_regs{0};        // registers proven Double everywhere
  // "linear-kernel (<push>x<peek>, <nnz> nnz)" when the compiled engines run
  // this filter as a coefficient kernel (runtime::TypedFilter::kernel), which
  // needs no registers; empty otherwise.
  std::string kernel;
  runtime::Tag push_tag{runtime::Tag::Double};  // content tag of its pushes
  // Inferred class per state slot, in declaration order: name -> "int" |
  // "double" | "mixed".
  std::vector<std::pair<std::string, std::string>> scalar_types;
  std::vector<std::pair<std::string, std::string>> array_types;

  // What a specialized filter runs as: its kernel, or its register count.
  [[nodiscard]] std::string typed_summary() const;
};

struct TypeflowResult {
  std::vector<ActorTypeflow> actors;           // indexed by flat actor id
  std::vector<runtime::Tag> edge_content;      // indexed by edge id
  int typed_actors{0};    // filters whose work specializes
  int candidates{0};      // AST filters surveyed
  int typed_regs{0};      // sum of per-actor typed_regs
  int typed_channels{0};  // edges whose content tag is Double
  int int_channels{0};    // edges provably integer-valued

  // Human-readable per-actor and per-edge tables (streamc --report).
  [[nodiscard]] std::string describe(const runtime::FlatGraph& g) const;
};

// Run the analysis.  Pure: compiles and initializes private per-filter
// states, never touches a live executor's.
TypeflowResult typeflow(const runtime::FlatGraph& g);

// Content-tag propagation alone, for callers that already know each actor's
// push tag (the executors, whose specialization results are authoritative
// for their own channels).  `push_tag[a]` is the content of actor a's
// pushes; splitters/joiners are ignored (computed), and edges from the
// external input or with prelude items are Double.
std::vector<runtime::Tag> propagate_edge_tags(
    const runtime::FlatGraph& g, const std::vector<runtime::Tag>& push_tag);

}  // namespace sit::analysis
