#include "linear/optimize.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "linear/combine.h"
#include "linear/frequency.h"

namespace sit::linear {

using ir::Node;
using ir::NodeP;

namespace {

// `w` watches the object `p` owns (or both are empty).  A live weak_ptr pins
// its control block, so this cannot be fooled by address reuse.
template <typename W, typename P>
bool same_owner(const W& w, const P& p) {
  return !w.owner_before(p) && !p.owner_before(w);
}

bool same_value(const ir::Value& a, const ir::Value& b) {
  if (a.is_int() != b.is_int()) return false;
  return a.is_int() ? a.as_int() == b.as_int()
                    : std::bit_cast<std::uint64_t>(a.as_double()) ==
                          std::bit_cast<std::uint64_t>(b.as_double());
}

bool same_decls(const std::vector<ir::VarDecl>& a,
                const std::vector<ir::VarDecl>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ir::VarDecl& x, const ir::VarDecl& y) {
                      return x.name == y.name && x.is_array == y.is_array &&
                             x.size == y.size && x.is_int == y.is_int &&
                             std::equal(x.init.begin(), x.init.end(),
                                        y.init.begin(), y.init.end(),
                                        same_value);
                    });
}

struct Best {
  NodeP node;                    // chosen rewrite of this subtree
  std::optional<LinearRep> rep;  // subtree's linear rep, if it has one
  double cpi{0.0};               // modeled cost per input item of `node`
  bool changed{false};           // differs from the original subtree
  bool is_freq{false};
};

class Optimizer {
 public:
  Optimizer(const OptimizeOptions& opts, OptimizeStats* stats,
            SelectionCache& cache)
      : opts_(opts), stats_(stats), cache_(cache) {}

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

  // Copy the chosen tree, lowering each surviving collapse candidate to its
  // AST filter and coefficient rows (to_filter) and counting the rewrites
  // that survived.
  NodeP materialize(const NodeP& n) {
    if (auto it = lowered_.find(n.get()); it != lowered_.end()) {
      if (stats_) ++stats_->combinations;
      return ir::make_filter(to_filter(it->second, n->name));
    }
    if (stats_ && frequency_.count(n.get()) != 0) ++stats_->frequency_nodes;
    auto copy = std::make_shared<Node>(*n);
    for (auto& c : copy->children) c = materialize(c);
    return copy;
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

  double cpi_of(const std::vector<NodeP>& parts) {
    return cache_.cost(parts).per_item(opts_.sync_weight);
  }
  double cpi_of(const NodeP& node) { return cpi_of(std::vector<NodeP>{node}); }

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
      NodeP direct = collapsed(rep, name + "_lin");
      const double c = cpi_of(direct);
      if (c < structural_cpi) {
        select("combine", name, entry_cpi, c);
        lowered_.emplace(direct.get(), rep);
        built_.push_back(direct);
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
          frequency_.insert(freq.get());
          built_.push_back(freq);
          best = Best{freq, rep, c, true, true};
        }
      }
    }
    return best;
  }

  // Stand-in for make_filter(to_filter(rep, name)): a native leaf with that
  // filter's rates and closed-form per-firing cost, which node_cost prices
  // exactly as it would the unrolled filter.  materialize() lowers the
  // selected ones that survive.
  static NodeP collapsed(const LinearRep& rep, const std::string& name) {
    const runtime::OpCounts w = rep.op_counts();
    ir::NativeFilter nf;
    nf.name = name;
    nf.peek = rep.peek;
    nf.pop = rep.pop;
    nf.push = rep.push;
    nf.cost_flops = w.total_flops();
    nf.cost_ops = w.weighted();
    return ir::make_native(std::move(nf));
  }

  Best leaf_filter(const NodeP& n) {
    if (stats_) ++stats_->total_filters;
    Best b;
    b.node = n;
    b.cpi = cpi_of(n);
    const ExtractResult& ex = cache_.extract(n->filter);
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
        // Structural: best split point.  Splits that realize the same part
        // list (every split, when no sub-interval was rewritten) share one
        // cost evaluation.
        Best b;
        double best_cpi = 1e300;
        std::vector<NodeP> best_parts;
        for (std::size_t s = i; s < j; ++s) {
          std::vector<NodeP> parts;
          collect(best[i][s].node, parts);
          collect(best[s + 1][j].node, parts);
          const double c = cpi_of(parts);
          if (c < best_cpi) {
            best_cpi = c;
            best_parts = std::move(parts);
            b.cpi = c;
            b.changed = best[i][s].changed || best[s + 1][j].changed;
          }
        }
        b.node = ir::make_pipeline(n->name, std::move(best_parts));
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
  SelectionCache& cache_;
  // Selected collapse candidates awaiting to_filter, and selected frequency
  // nodes.  built_ keeps them alive for the whole selection, so no other
  // node can take their addresses.
  std::unordered_map<const Node*, LinearRep> lowered_;
  std::unordered_set<const Node*> frequency_;
  std::vector<NodeP> built_;
};

}  // namespace

const ExtractResult& SelectionCache::extract(const ir::FilterSpec& spec) {
  Extracted& e = extracted_[spec.work.get()];
  const bool hit = !e.work.expired() && same_owner(e.work, spec.work) &&
                   same_owner(e.init, spec.init) && e.peek == spec.peek &&
                   e.pop == spec.pop && e.push == spec.push &&
                   same_decls(e.state, spec.state);
  if (!hit) {
    e = Extracted{spec.work, spec.init, spec.peek, spec.pop, spec.push,
                  spec.state, linear::extract(spec)};
  }
  return e.result;
}

NodeCost SelectionCache::cost(const std::vector<ir::NodeP>& parts) {
  std::vector<const ir::Node*> key;
  key.reserve(parts.size());
  for (const ir::NodeP& p : parts) key.push_back(p.get());
  Costed& e = costed_[key];
  if (std::equal(e.parts.begin(), e.parts.end(), parts.begin(), parts.end(),
                 [](const auto& w, const auto& p) { return same_owner(w, p); })) {
    return e.cost;
  }
  ++evaluations_;
  e.cost = node_cost(parts.size() == 1 ? parts.front()
                                       : ir::make_pipeline("", parts));
  e.parts.assign(parts.begin(), parts.end());
  return e.cost;
}

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
                         OptimizeStats* stats, SelectionCache* cache) {
  SelectionCache local;
  SelectionCache& c = cache != nullptr ? *cache : local;
  const int evals = c.evaluations();
  Optimizer opt(opts, stats, c);
  if (stats) stats->cost_before = c.cost({root}).per_item(opts.sync_weight);
  Best b = opt.run(root);
  if (stats) stats->cost_after = c.cost({b.node}).per_item(opts.sync_weight);
  NodeP out = opt.materialize(b.node);
  if (stats) stats->cost_evals = c.evaluations() - evals;
  return out;
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
