#pragma once
// Optimization selection: decide, over the stream hierarchy, where to apply
// linear combination and frequency translation (the paper's selection
// algorithm).  Pipelines are searched with an interval dynamic program
// (every contiguous run of linear stages is a collapse candidate);
// split-joins with all-linear branches are collapse candidates as a whole;
// every linear candidate is additionally considered in the frequency domain.
// A candidate is chosen iff it lowers the modeled cost per input item.
//
// Pricing is proportional to what changes: a collapse candidate is priced
// from its matrix (LinearRep::op_counts) and lowered to an AST filter only
// if it survives into the result; a structural candidate (one realization of
// a pipeline interval) is costed once per distinct part list; each filter is
// extracted once.  A SelectionCache carries the last two across calls.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/graph.h"
#include "linear/cost.h"
#include "linear/extract.h"
#include "linear/linear_rep.h"

namespace sit::linear {

struct OptimizeOptions {
  bool enable_combination{true};
  bool enable_frequency{true};
  // Weight of splitter/joiner item movement relative to a flop.  Small and
  // nonzero: it breaks ties in favor of fewer actors, mirroring the paper's
  // observation that collapsing also removes synchronization.
  double sync_weight{0.05};
  // Skip combination candidates whose matrix would exceed this entry count
  // (guards against lcm blow-up on wildly mismatched rates).
  std::size_t max_matrix_entries{1u << 22};
};

// One optimization-selection decision, in the order the optimizer considered
// it: a candidate rewrite of a site (filter, pipeline interval, or
// split-join) that was either selected for its subtree (`applied`, with the
// modeled costs that justified it) or refused (`note` says why -- not
// linear, not combinable, not cheaper).  Candidates selected at one level of
// the interval DP can still lose to a larger enclosing candidate; the
// OptimizeStats counters report what survived in the final tree.
struct RewriteRecord {
  std::string pass;   // "combine" | "frequency" | "extract"
  std::string site;   // node or interval name, e.g. "pipe[0..3]"
  double cost_before{0.0};  // modeled cost/item of the structural form
  double cost_after{0.0};   // modeled cost/item of the candidate
  bool applied{false};
  std::string note;   // refusal reason when !applied
  // The pipeline pass that recorded the decision (opt::PassManager stamps
  // it; empty outside a pipeline).
  std::string by_pass;

  [[nodiscard]] std::string to_string() const;  // one line
};

struct OptimizeStats {
  int total_filters{0};
  int linear_filters{0};
  int combinations{0};       // collapse rewrites applied
  int frequency_nodes{0};    // frequency translations applied
  double cost_before{0.0};   // modeled flops per input item
  double cost_after{0.0};
  // Whole-subgraph cost evaluations (flatten + make_schedule) this call ran;
  // memo hits are free.
  int cost_evals{0};
  // Structured per-candidate decisions (selections and refusals), replacing
  // the historical append-only log string; log() renders them for humans.
  std::vector<RewriteRecord> records;

  [[nodiscard]] std::string log() const;  // records, one per line
};

// What the selection calls of one compile share (opt::PassContext owns one,
// so linear-extract, linear-combine and frequency each reuse what an earlier
// pass computed).  Entries watch their keys through weak_ptrs, the
// estimate_work idiom: an entry whose key was freed misses instead of
// answering for a new object at a reused address, and the cache keeps no
// key alive.  It lives for one compile, so it never sweeps.
class SelectionCache {
 public:
  // extract(spec), once per work AST.  The entry also checks the rest of
  // what extraction reads (rates, state declarations, init function), so
  // filters sharing a work AST but not their coefficients stay apart.
  const ExtractResult& extract(const ir::FilterSpec& spec);

  // node_cost of `parts` run as a pipeline (of parts[0] itself when alone),
  // once per list of part identities.
  NodeCost cost(const std::vector<ir::NodeP>& parts);

  // Cost evaluations run so far (cost() misses).
  [[nodiscard]] int evaluations() const { return evaluations_; }

 private:
  struct Extracted {
    std::weak_ptr<const ir::Stmt> work, init;
    int peek{0}, pop{0}, push{0};
    std::vector<ir::VarDecl> state;
    ExtractResult result;
  };
  struct Costed {
    std::vector<std::weak_ptr<const ir::Node>> parts;
    NodeCost cost;
  };

  std::unordered_map<const ir::Stmt*, Extracted> extracted_;
  std::map<std::vector<const ir::Node*>, Costed> costed_;
  int evaluations_{0};
};

// Run the selection algorithm and return the rewritten graph (a fresh tree;
// the input is not mutated).  This is the implementation behind the
// `linear-combine` and `frequency` passes of the pass pipeline
// (opt/pass_manager.h); prefer opt::compile() for whole-program compilation
// (per-pass stats, verification, artifact) and call this directly only for
// a bare graph-to-graph rewrite.
// `cache` may be shared by the calls of one compile; null uses a fresh one.
ir::NodeP optimize_selection(const ir::NodeP& root,
                             const OptimizeOptions& opts = {},
                             OptimizeStats* stats = nullptr,
                             SelectionCache* cache = nullptr);

// Extraction over a whole subtree: the linear rep of the subtree's stream
// function if every leaf is linear and the structure is combinable.
std::optional<LinearRep> extract_tree(const ir::NodeP& node,
                                      const OptimizeOptions& opts = {});

}  // namespace sit::linear
