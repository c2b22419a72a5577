#include "opt/pass_manager.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "analysis/verify.h"
#include "linear/cost.h"
#include "obs/costmodel.h"
#include "runtime/flatgraph.h"
#include "sched/envopts.h"

namespace sit::opt {

namespace {

// Graph shape at a pass boundary.  Flattening a malformed graph throws (the
// validate pass has not run yet, or the program is simply broken -- the gate
// will say so); shape fields stay at their "unknown" defaults in that case.
struct Shape {
  int actors{-1};
  int edges{-1};
  double cost{0.0};
  // Measured (calibrated-model) cost per input item; 0 when no profile is
  // loaded, so reports can distinguish "static run" from "no divergence".
  double mcost{0.0};
};

Shape measure(const ir::NodeP& g, const PassContext& ctx) {
  Shape s;
  try {
    const runtime::FlatGraph flat = runtime::flatten(g);
    s.actors = static_cast<int>(flat.actors.size());
    s.edges = static_cast<int>(flat.edges.size());
    const sched::Schedule sc = sched::make_schedule(flat);
    const linear::NodeCost nc = linear::node_cost(flat, sc);
    const double raw =
        nc.ops_per_ss + ctx.options.linear.sync_weight * nc.sync_per_ss;
    const double mraw =
        nc.meas_ops_per_ss + ctx.options.linear.sync_weight * nc.sync_per_ss;
    // Normalize by items *entering* the graph per steady state (external
    // input plus pure-source emissions).  NodeCost::per_item falls back to
    // the raw per-steady cost on closed source-to-sink graphs, which is not
    // comparable across passes that change the steady-state scale (frequency
    // translation batches by the FFT size); this denominator is invariant
    // under semantics-preserving rewrites.
    double items = static_cast<double>(sc.input_per_steady);
    for (std::size_t a = 0; a < flat.actors.size(); ++a) {
      if (flat.actors[a].is_filter() && flat.actors[a].in_edges.empty()) {
        items += static_cast<double>(sc.reps[a]) *
                 static_cast<double>(flat.actors[a].push_rate());
      }
    }
    if (items <= 0) items = static_cast<double>(sc.output_per_steady);
    s.cost = items > 0 ? raw / items : raw;
    if (obs::cost_model().calibrated()) {
      s.mcost = items > 0 ? mraw / items : mraw;
    }
  } catch (const std::exception&) {
  }
  return s;
}

// Re-check the graph invariants after `pass_name` ran.  Every finding is
// stamped with the offending pass so downstream consumers (ctx.diagnostics,
// the thrown message) can pin the pipeline stage that broke the graph.
void verify_after(const std::string& pass_name, const ir::NodeP& g,
                  PassContext& ctx) {
  std::vector<analysis::Diagnostic> ds = analysis::verify_graph(g);
  if (ds.empty()) return;
  for (analysis::Diagnostic& d : ds) {
    d.message = "after pass '" + pass_name + "': " + d.message;
  }
  ctx.diagnostics.insert(ctx.diagnostics.end(), ds.begin(), ds.end());
  if (analysis::has_errors(ds)) {
    throw std::runtime_error("verify: graph invariants violated after pass '" +
                             pass_name + "'\n" + analysis::render(ds));
  }
}

}  // namespace

OptLevel resolve_opt_level(OptLevel level) {
  if (level != OptLevel::Auto) return level;
  switch (sit::env_opt_level()) {
    case 0: return OptLevel::O0;
    case 1: return OptLevel::O1;
    default: return OptLevel::O2;
  }
}

std::vector<std::string> preset(OptLevel level) {
  switch (resolve_opt_level(level)) {
    case OptLevel::O0:
      return {"validate", "analysis-gate"};
    case OptLevel::O1:
      return {"validate", "analysis-gate", "const-fold", "linear-combine"};
    case OptLevel::Auto:
    case OptLevel::O2:
      break;
  }
  return {"validate", "analysis-gate", "const-fold", "linear-combine",
          "frequency"};
}

VerifyMode resolve_verify_mode(VerifyMode mode) {
  if (mode != VerifyMode::Auto) return mode;
  switch (sit::env_verify()) {
    case 2: return VerifyMode::Each;
    case 1: return VerifyMode::Final;
    default: return VerifyMode::Off;
  }
}

std::vector<std::string> parse_spec(const std::string& spec) {
  std::vector<std::string> names;
  std::string cur;
  std::istringstream in(spec);
  while (std::getline(in, cur, ',')) {
    const auto b = cur.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const auto e = cur.find_last_not_of(" \t");
    names.push_back(cur.substr(b, e - b + 1));
  }
  const PassManager& pm = PassManager::global();
  for (const std::string& n : names) {
    if (pm.find(n) == nullptr) {
      throw std::invalid_argument("unknown pass '" + n +
                                  "' in pass spec \"" + spec + "\"");
    }
  }
  return names;
}

PassManager::PassManager() { detail::register_builtins(*this); }

void PassManager::register_pass(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

Pass* PassManager::find(const std::string& name) const {
  // Scan back to front so later registrations shadow built-ins.
  for (auto it = passes_.rbegin(); it != passes_.rend(); ++it) {
    if (name == (*it)->name()) return it->get();
  }
  return nullptr;
}

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> out;
  out.reserve(passes_.size());
  for (const auto& p : passes_) out.emplace_back(p->name());
  return out;
}

ir::NodeP PassManager::run(const ir::NodeP& root,
                           const std::vector<std::string>& names,
                           PassContext& ctx) const {
  using clock = std::chrono::steady_clock;
  const VerifyMode vmode = resolve_verify_mode(ctx.options.verify_each);
  ir::NodeP g = root;
  Shape before = measure(g, ctx);
  for (const std::string& name : names) {
    Pass* pass = find(name);
    if (pass == nullptr) {
      throw std::invalid_argument("unknown pass '" + name + "'");
    }
    const std::size_t decided = ctx.rewrites.size();
    const auto t0 = clock::now();
    PassResult res = pass->run(g, ctx);
    const auto t1 = clock::now();
    if (res.graph == nullptr) res.graph = g;  // gate passes leave it null
    for (std::size_t i = decided; i < ctx.rewrites.size(); ++i) {
      if (ctx.rewrites[i].by_pass.empty()) ctx.rewrites[i].by_pass = name;
    }

    obs::PassSnapshot snap;
    snap.name = name;
    snap.wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    snap.actors_before = before.actors;
    snap.edges_before = before.edges;
    snap.cost_before = before.cost;
    snap.mcost_before = before.mcost;
    const Shape after = res.changed ? measure(res.graph, ctx) : before;
    snap.actors_after = after.actors;
    snap.edges_after = after.edges;
    snap.cost_after = after.cost;
    snap.mcost_after = after.mcost;
    snap.changed = res.changed;
    snap.cost_evals = res.cost_evals;
    ctx.stats.push_back(snap);
    if (ctx.on_pass) ctx.on_pass(ctx.stats.back(), res.graph);

    g = std::move(res.graph);
    before = after;
    if (vmode == VerifyMode::Each ||
        (vmode == VerifyMode::Final && &name == &names.back())) {
      verify_after(name, g, ctx);
    }
  }
  return g;
}

const PassManager& PassManager::global() {
  static const PassManager pm;
  return pm;
}

}  // namespace sit::opt
