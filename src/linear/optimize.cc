#include "linear/optimize.h"

#include <sstream>
#include <stdexcept>

#include "linear/combine.h"
#include "linear/cost.h"
#include "linear/extract.h"
#include "linear/frequency.h"

namespace sit::linear {

using ir::Node;
using ir::NodeP;

namespace {

struct Best {
  NodeP node;                    // chosen rewrite of this subtree
  std::optional<LinearRep> rep;  // subtree's linear rep, if it has one
  double cpi{0.0};               // modeled cost per input item of `node`
  bool changed{false};           // differs from the original subtree
  bool is_freq{false};
};

class Optimizer {
 public:
  Optimizer(const OptimizeOptions& opts, OptimizeStats* stats)
      : opts_(opts), stats_(stats) {}

  Best run(const NodeP& n) {
    switch (n->kind) {
      case Node::Kind::Filter:
        return leaf_filter(n);
      case Node::Kind::Native:
        return leaf_native(n);
      case Node::Kind::Pipeline:
        return pipeline(n);
      case Node::Kind::SplitJoin:
        return splitjoin(n);
      case Node::Kind::FeedbackLoop:
        return feedback(n);
    }
    throw std::logic_error("unreachable");
  }

 private:
  void refuse(const std::string& pass, const std::string& site,
              const std::string& why) {
    if (stats_) {
      stats_->records.push_back({pass, site, 0.0, 0.0, false, why, {}});
    }
  }

  void select(const std::string& pass, const std::string& site, double before,
              double after) {
    if (stats_) {
      stats_->records.push_back({pass, site, before, after, true, {}, {}});
    }
  }

  double cpi_of(const NodeP& node) const {
    return node_cost(node).per_item(opts_.sync_weight);
  }

  [[nodiscard]] bool rep_too_big(const LinearRep& r) const {
    return static_cast<std::size_t>(r.peek) * static_cast<std::size_t>(r.push) >
           opts_.max_matrix_entries;
  }

  // Consider replacing a (sub)tree that has linear rep `rep` by a direct
  // collapsed filter or a frequency version; returns the better of the two
  // if it beats `structural_cpi`.
  std::optional<Best> linear_candidates(const LinearRep& rep,
                                        const std::string& name,
                                        double structural_cpi) {
    const double entry_cpi = structural_cpi;
    std::optional<Best> best;
    if (opts_.enable_combination && !rep_too_big(rep)) {
      NodeP direct = ir::make_filter(to_filter(rep, name + "_lin"));
      const double c = cpi_of(direct);
      if (c < structural_cpi) {
        select("combine", name, entry_cpi, c);
        best = Best{direct, rep, c, true, false};
        structural_cpi = c;
      }
    }
    if (opts_.enable_frequency && frequency_applicable(rep)) {
      const std::size_t n = best_fft_size(rep);
      if (n != 0) {
        NodeP freq = make_frequency_filter(rep, name + "_freq", n);
        const double c = cpi_of(freq);
        if (c < structural_cpi) {
          select("frequency", name, entry_cpi, c);
          best = Best{freq, rep, c, true, true};
        }
      }
    }
    return best;
  }

  Best leaf_filter(const NodeP& n) {
    if (stats_) ++stats_->total_filters;
    Best b;
    b.node = n;
    b.cpi = cpi_of(n);
    const ExtractResult ex = extract(n->filter);
    if (ex.rep) {
      if (stats_) ++stats_->linear_filters;
      b.rep = ex.rep;
      // A lone linear filter is only rewritten if the frequency (or direct
      // matrix) form is cheaper than its own code.
      if (auto cand = linear_candidates(*ex.rep, n->name, b.cpi)) {
        cand->rep = ex.rep;
        return *cand;
      }
    } else {
      refuse("extract", n->name, "not linear: " + ex.reason);
    }
    return b;
  }

  Best leaf_native(const NodeP& n) {
    if (stats_) ++stats_->total_filters;
    Best b;
    b.node = n;
    b.cpi = cpi_of(n);
    return b;
  }

  Best pipeline(const NodeP& n) {
    const std::size_t k = n->children.size();
    std::vector<Best> kids;
    kids.reserve(k);
    for (const auto& c : n->children) kids.push_back(run(c));

    // Interval DP.  best[i][j] = cheapest realization of children i..j.
    std::vector<std::vector<Best>> best(k, std::vector<Best>(k));
    std::vector<std::vector<std::optional<LinearRep>>> rep(
        k, std::vector<std::optional<LinearRep>>(k));

    for (std::size_t i = 0; i < k; ++i) {
      best[i][i] = kids[i];
      rep[i][i] = kids[i].rep;
    }
    for (std::size_t len = 2; len <= k; ++len) {
      for (std::size_t i = 0; i + len - 1 < k; ++i) {
        const std::size_t j = i + len - 1;
        // Structural: best split point.
        Best b;
        double best_cpi = 1e300;
        for (std::size_t s = i; s < j; ++s) {
          std::vector<NodeP> parts;
          collect(best[i][s].node, parts);
          collect(best[s + 1][j].node, parts);
          NodeP cand = ir::make_pipeline(n->name, parts);
          const double c = cpi_of(cand);
          if (c < best_cpi) {
            best_cpi = c;
            b.node = cand;
            b.cpi = c;
            b.changed = best[i][s].changed || best[s + 1][j].changed;
          }
        }
        // Interval linear rep (if the whole interval is linear).
        if (rep[i][j - 1] && rep[j][j]) {
          try {
            LinearRep r = combine_pipeline(*rep[i][j - 1], *rep[j][j]);
            if (!rep_too_big(r)) rep[i][j] = std::move(r);
          } catch (const std::exception&) {
            // Degenerate rates: interval not combinable.
          }
        }
        b.rep = rep[i][j];
        if (rep[i][j]) {
          if (auto cand = linear_candidates(*rep[i][j], interval_name(n, i, j),
                                            b.cpi)) {
            cand->rep = rep[i][j];
            b = *cand;
          }
        }
        best[i][j] = b;
      }
    }
    Best result = best[0][k - 1];
    // Preserve the pipeline wrapper name when the structure survived.
    if (result.node->kind != Node::Kind::Pipeline && k > 1 && !result.changed) {
      result.node = ir::make_pipeline(n->name, {result.node});
    }
    return result;
  }

  // Flatten nested pipelines produced by DP splits (cosmetic; semantics
  // unchanged).
  static void collect(const NodeP& node, std::vector<NodeP>& out) {
    if (node->kind == Node::Kind::Pipeline) {
      for (const auto& c : node->children) out.push_back(c);
    } else {
      out.push_back(node);
    }
  }

  static std::string interval_name(const NodeP& n, std::size_t i, std::size_t j) {
    std::ostringstream os;
    os << n->name << "[" << i << ".." << j << "]";
    return os.str();
  }

  Best splitjoin(const NodeP& n) {
    std::vector<Best> kids;
    kids.reserve(n->children.size());
    bool all_linear = true;
    bool changed = false;
    std::vector<NodeP> child_nodes;
    std::vector<LinearRep> child_reps;
    for (const auto& c : n->children) {
      Best b = run(c);
      changed = changed || b.changed;
      if (b.rep) {
        child_reps.push_back(*b.rep);
      } else {
        all_linear = false;
      }
      child_nodes.push_back(b.node);
      kids.push_back(std::move(b));
    }
    Best result;
    result.node = ir::make_splitjoin(n->name, n->split, n->join, child_nodes);
    result.cpi = cpi_of(result.node);
    result.changed = changed;

    if (all_linear && n->split.kind != ir::SJKind::Null &&
        n->join.kind == ir::SJKind::RoundRobin) {
      try {
        LinearRep r = combine_splitjoin(n->split, child_reps, n->join.weights);
        if (!rep_too_big(r)) {
          result.rep = r;
          if (auto cand = linear_candidates(r, n->name, result.cpi)) {
            cand->rep = r;
            return *cand;
          }
        }
      } catch (const std::exception& e) {
        refuse("combine", n->name,
               std::string("splitjoin not combinable: ") + e.what());
      }
    }
    return result;
  }

  Best feedback(const NodeP& n) {
    Best body = run(n->children[0]);
    Best loop = run(n->children[1]);
    Best result;
    result.node = ir::make_feedback(n->name, n->join, body.node, n->split,
                                    loop.node, n->delay,
                                    n->init_path);
    result.cpi = cpi_of(result.node);
    result.changed = body.changed || loop.changed;
    return result;
  }

  const OptimizeOptions& opts_;
  OptimizeStats* stats_;
};

}  // namespace

std::string RewriteRecord::to_string() const {
  std::ostringstream os;
  if (!by_pass.empty() && by_pass != pass) os << by_pass << ": ";
  os << pass << " [" << site << "] ";
  if (!applied) {
    os << note;
  } else if (!note.empty()) {
    os << "applied: " << note;
  } else {
    os << "cost/item " << cost_before << " -> " << cost_after << " (selected)";
  }
  return os.str();
}

std::string OptimizeStats::log() const {
  std::string out;
  for (const RewriteRecord& r : records) {
    out += "  " + r.to_string() + "\n";
  }
  return out;
}

NodeP optimize_selection(const NodeP& root, const OptimizeOptions& opts,
                         OptimizeStats* stats) {
  NodeP fresh = ir::clone(root);
  Optimizer opt(opts, stats);
  if (stats) stats->cost_before = node_cost(fresh).per_item(opts.sync_weight);
  Best b = opt.run(fresh);
  if (stats) {
    stats->cost_after = node_cost(b.node).per_item(opts.sync_weight);
    // Count the rewrites that actually survived selection by inspecting the
    // result tree: collapsed nodes carry the "_lin" suffix, frequency nodes
    // the "_freq" suffix.
    ir::visit(b.node, [&](const NodeP& node) {
      if (node->kind == Node::Kind::Filter &&
          node->name.size() > 4 &&
          node->name.rfind("_lin") == node->name.size() - 4) {
        ++stats->combinations;
      }
      if (node->kind == Node::Kind::Native &&
          node->name.size() > 5 &&
          node->name.rfind("_freq") == node->name.size() - 5) {
        ++stats->frequency_nodes;
      }
    });
  }
  return ir::clone(b.node);
}

std::optional<LinearRep> extract_tree(const NodeP& node,
                                      const OptimizeOptions& opts) {
  switch (node->kind) {
    case Node::Kind::Filter: {
      auto r = extract(node->filter);
      return r.rep;
    }
    case Node::Kind::Native:
      return std::nullopt;
    case Node::Kind::Pipeline: {
      std::vector<LinearRep> chain;
      for (const auto& c : node->children) {
        auto r = extract_tree(c, opts);
        if (!r) return std::nullopt;
        chain.push_back(std::move(*r));
      }
      try {
        return combine_pipeline(chain);
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    case Node::Kind::SplitJoin: {
      if (node->join.kind != ir::SJKind::RoundRobin ||
          node->split.kind == ir::SJKind::Null) {
        return std::nullopt;
      }
      std::vector<LinearRep> reps;
      for (const auto& c : node->children) {
        auto r = extract_tree(c, opts);
        if (!r) return std::nullopt;
        reps.push_back(std::move(*r));
      }
      try {
        return combine_splitjoin(node->split, reps, node->join.weights);
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    case Node::Kind::FeedbackLoop:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace sit::linear
