// The built-in passes.  Each is a thin, named wrapper around an existing
// subsystem entry point (ir::check, analysis::analyze, analysis::fold_work,
// linear::extract / linear::optimize_selection, parallel::selective_fusion /
// data_parallelize / coarsen_for_threads) so the pipeline composes the same
// transformations callers previously invoked by hand.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "analysis/analyze.h"
#include "analysis/constprop.h"
#include "analysis/verify.h"
#include "ir/ast.h"
#include "ir/validate.h"
#include "linear/extract.h"
#include "opt/pass_manager.h"
#include "parallel/transforms.h"

namespace sit::opt {
namespace {

using ir::Node;
using ir::NodeP;

// ---- gates ------------------------------------------------------------------

class ValidatePass final : public Pass {
 public:
  const char* name() const override { return "validate"; }
  const char* description() const override {
    return "structural validation (rates, arity, zero-weight rule)";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    std::vector<analysis::Diagnostic> ds = ir::check(root);
    ctx.diagnostics.insert(ctx.diagnostics.end(), ds.begin(), ds.end());
    if (analysis::has_errors(ds)) {
      throw std::runtime_error("validate: invalid stream program\n" +
                               analysis::render(ds));
    }
    return {root, false};
  }
};

class AnalysisGatePass final : public Pass {
 public:
  const char* name() const override { return "analysis-gate"; }
  const char* description() const override {
    return "dataflow + graph-consistency analyses; errors reject the program";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    analysis::AnalysisResult r = analysis::analyze(root);
    ctx.diagnostics.insert(ctx.diagnostics.end(), r.diagnostics.begin(),
                           r.diagnostics.end());
    if (!r.ok()) {
      throw std::runtime_error("analysis-gate: program rejected\n" +
                               r.report());
    }
    return {root, false};
  }
};

// The semantic verifier as a first-class pass, so --passes specs can place
// invariant checks at chosen pipeline points.  The PassManager additionally
// runs the same verifier after *every* pass under PassOptions::verify_each.
class VerifyPass final : public Pass {
 public:
  const char* name() const override { return "verify"; }
  const char* description() const override {
    return "semantic verifier: structure, rates, splitjoins, order, state, "
           "schedulability";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    std::vector<analysis::Diagnostic> ds = analysis::verify_graph(root);
    ctx.diagnostics.insert(ctx.diagnostics.end(), ds.begin(), ds.end());
    if (analysis::has_errors(ds)) {
      throw std::runtime_error("verify: graph invariants violated\n" +
                               analysis::render(ds));
    }
    return {root, false};
  }
};

// ---- per-filter rewrites ----------------------------------------------------

// fold_body always rebuilds the statement tree, so pointer identity cannot
// tell whether anything folded; compare printed forms instead.
NodeP fold_tree(const NodeP& n, bool& changed) {
  switch (n->kind) {
    case Node::Kind::Filter: {
      ir::StmtP folded = analysis::fold_work(n->filter);
      if (ir::to_string(folded) == ir::to_string(n->filter.work)) return n;
      ir::FilterSpec spec = n->filter;
      spec.work = std::move(folded);
      changed = true;
      return ir::make_filter(std::move(spec));
    }
    case Node::Kind::Native:
      return n;
    case Node::Kind::Pipeline:
    case Node::Kind::SplitJoin:
    case Node::Kind::FeedbackLoop:
      break;
  }
  bool kids_changed = false;
  std::vector<NodeP> kids;
  kids.reserve(n->children.size());
  for (const NodeP& c : n->children) kids.push_back(fold_tree(c, kids_changed));
  if (!kids_changed) return n;
  changed = true;
  switch (n->kind) {
    case Node::Kind::Pipeline:
      return ir::make_pipeline(n->name, std::move(kids));
    case Node::Kind::SplitJoin:
      return ir::make_splitjoin(n->name, n->split, n->join, std::move(kids));
    case Node::Kind::FeedbackLoop:
      return ir::make_feedback(n->name, n->join, kids[0], n->split, kids[1],
                               n->delay, n->init_path);
    default:
      return n;  // unreachable
  }
}

class ConstFoldPass final : public Pass {
 public:
  const char* name() const override { return "const-fold"; }
  const char* description() const override {
    return "constant folding of every filter's work function";
  }
  PassResult run(const NodeP& root, PassContext&) override {
    bool changed = false;
    NodeP out = fold_tree(root, changed);
    return {std::move(out), changed};
  }
};

// ---- linear pipeline --------------------------------------------------------

class LinearExtractPass final : public Pass {
 public:
  const char* name() const override { return "linear-extract"; }
  const char* description() const override {
    return "per-filter linearity analysis (reporting only; no rewrite)";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    ir::visit(root, [&ctx](const NodeP& n) {
      if (n->kind != Node::Kind::Filter) return;
      const linear::ExtractResult& ex = ctx.selection.extract(n->filter);
      linear::RewriteRecord rec;
      rec.pass = "extract";
      rec.site = n->name;
      rec.applied = ex.rep.has_value();
      if (!ex.rep) rec.note = "not linear: " + ex.reason;
      ctx.rewrites.push_back(std::move(rec));
    });
    return {root, false};
  }
};

// linear::optimize_selection runs extraction, combination, and frequency
// translation as one selection problem; the two pipeline passes expose its
// sub-modes so pass order (and --passes specs) can separate "collapse linear
// structures" from "move them to the frequency domain".
PassResult run_linear(const NodeP& root, PassContext& ctx, bool combination,
                      bool frequency) {
  linear::OptimizeOptions o = ctx.options.linear;
  o.enable_combination = combination;
  o.enable_frequency = frequency;
  linear::OptimizeStats stats;
  NodeP out = linear::optimize_selection(root, o, &stats, &ctx.selection);
  // Both linear passes run the whole selection, so the later one re-derives
  // decisions the earlier one already recorded (e.g. every extract refusal);
  // each decision is recorded once, by the pass that made it first.
  const auto key = [](const linear::RewriteRecord& r) {
    return r.pass + '\n' + r.site + '\n' + r.note + (r.applied ? "+" : "-");
  };
  std::unordered_set<std::string> recorded;
  for (const linear::RewriteRecord& r : ctx.rewrites) recorded.insert(key(r));
  for (linear::RewriteRecord& r : stats.records) {
    if (recorded.insert(key(r)).second) ctx.rewrites.push_back(std::move(r));
  }
  const bool changed =
      (combination && stats.combinations > 0) ||
      (frequency && stats.frequency_nodes > 0);
  // optimize_selection() copies even when it rewrites nothing; keep the input
  // tree in that case so unchanged passes are identity on the artifact (and
  // the next linear pass hits the cost memo on the same nodes).
  return {changed ? std::move(out) : root, changed, stats.cost_evals};
}

class LinearCombinePass final : public Pass {
 public:
  const char* name() const override { return "linear-combine"; }
  const char* description() const override {
    return "collapse linear pipelines/splitjoins into matrix filters";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    return run_linear(root, ctx, /*combination=*/true, /*frequency=*/false);
  }
};

class FrequencyPass final : public Pass {
 public:
  const char* name() const override { return "frequency"; }
  const char* description() const override {
    return "frequency translation of profitable linear subgraphs (FFT)";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    return run_linear(root, ctx, /*combination=*/false, /*frequency=*/true);
  }
};

// ---- mapping ----------------------------------------------------------------

class SelectiveFusePass final : public Pass {
 public:
  const char* name() const override { return "selective-fuse"; }
  const char* description() const override {
    return "greedy fusion down to the target actor count";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    const int target = ctx.options.target_actors > 0
                           ? ctx.options.target_actors
                           : std::max(2, 4 * std::max(1, ctx.options.threads));
    if (ir::count_filters(root) <= target) return {root, false};
    NodeP out = parallel::selective_fusion(root, target);
    const bool changed = ir::count_filters(out) != ir::count_filters(root);
    return {changed ? std::move(out) : root, changed};
  }
};

class FissionPass final : public Pass {
 public:
  const char* name() const override { return "fission"; }
  const char* description() const override {
    return "coarse-grained data parallelism for the configured thread count";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    if (ctx.options.threads <= 1) return {root, false};
    NodeP out = parallel::data_parallelize(root, ctx.options.threads);
    const bool changed = ir::count_filters(out) != ir::count_filters(root);
    return {changed ? std::move(out) : root, changed};
  }
};

// The coarse-grained shaping stage for the batched threaded runtime:
// fuse-then-fiss down to ~one well-sized actor per worker.  The actor budget
// defaults on (4 * threads; target_actors overrides it), and the fission
// cost gate is a quarter worker (0.25 / threads) where `fission` uses 1%, so
// tiny actors never own a partition slice or buy a ring crossing.
class CoarsenPass final : public Pass {
 public:
  const char* name() const override { return "coarsen"; }
  const char* description() const override {
    return "fuse-then-fiss to ~one well-sized actor per worker (cost-gated)";
  }
  PassResult run(const NodeP& root, PassContext& ctx) override {
    if (ctx.options.threads <= 1) return {root, false};
    NodeP out = parallel::coarsen_for_threads(root, ctx.options.threads,
                                              ctx.options.target_actors);
    const bool changed = ir::count_filters(out) != ir::count_filters(root);
    return {changed ? std::move(out) : root, changed};
  }
};

}  // namespace

namespace detail {

void register_builtins(PassManager& pm) {
  pm.register_pass(std::make_unique<ValidatePass>());
  pm.register_pass(std::make_unique<AnalysisGatePass>());
  pm.register_pass(std::make_unique<VerifyPass>());
  pm.register_pass(std::make_unique<ConstFoldPass>());
  pm.register_pass(std::make_unique<LinearExtractPass>());
  pm.register_pass(std::make_unique<LinearCombinePass>());
  pm.register_pass(std::make_unique<FrequencyPass>());
  pm.register_pass(std::make_unique<SelectiveFusePass>());
  pm.register_pass(std::make_unique<FissionPass>());
  pm.register_pass(std::make_unique<CoarsenPass>());
}

}  // namespace detail
}  // namespace sit::opt
