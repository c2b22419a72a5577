#include "opt/compile.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "runtime/flatgraph.h"
#include "sched/envopts.h"
#include "sched/schedule.h"

namespace sit::opt {

namespace {

std::vector<std::string> resolve_spec(const CompileOptions& opts) {
  std::vector<std::string> spec;
  if (!opts.passes.empty()) {
    spec = parse_spec(opts.passes);
  } else if (const std::string env = sit::env_passes(); !env.empty()) {
    spec = parse_spec(env);
  } else {
    spec = preset(opts.level);
  }
  if (opts.ensure_gate) {
    const auto has = [&spec](const char* n) {
      return std::find(spec.begin(), spec.end(), n) != spec.end();
    };
    if (!has("analysis-gate")) spec.insert(spec.begin(), "analysis-gate");
    if (!has("validate")) spec.insert(spec.begin(), "validate");
  }
  return spec;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ',';
    out += p;
  }
  return out;
}

void put_count(std::ostream& os, int before, int after) {
  if (before < 0 && after < 0) {
    os << std::setw(12) << "?";
    return;
  }
  std::ostringstream cell;
  cell << before << " -> " << after;
  os << std::setw(12) << cell.str();
}

}  // namespace

std::string resolve_pipeline_spec(const CompileOptions& opts) {
  return join(resolve_spec(opts));
}

sched::CompiledProgram compile(const ir::NodeP& root,
                               const CompileOptions& opts,
                               PassContext* ctx_out) {
  const std::vector<std::string> spec = resolve_spec(opts);

  PassContext ctx;
  ctx.options = opts.pass;
  ctx.on_pass = opts.on_pass;
  if (ctx.options.threads <= 1) {
    // Size the mapping passes to the executor's thread request (0 = env).
    ctx.options.threads = opts.exec.threads != 0
                              ? std::max(1, opts.exec.threads)
                              : sched::resolve_threads(0);
  }

  sched::CompiledProgram prog;
  prog.source = root;
  prog.graph = PassManager::global().run(root, spec, ctx);
  prog.flat = runtime::flatten(prog.graph);
  prog.schedule = sched::make_schedule(prog.flat);
  prog.engine = opts.exec.engine;
  prog.threads = opts.exec.threads;
  prog.pipeline = join(spec);
  prog.passes = ctx.stats;
  if (ctx_out != nullptr) *ctx_out = std::move(ctx);
  return prog;
}

std::string pass_report(const sched::CompiledProgram& prog,
                        const std::vector<linear::RewriteRecord>* rewrites) {
  // The measured column and the divergence ratio only mean something when a
  // calibrated profile was loaded (any nonzero mcost implies it was).
  bool calibrated = false;
  for (const obs::PassSnapshot& p : prog.passes) {
    calibrated = calibrated || p.mcost_before > 0 || p.mcost_after > 0;
  }

  std::ostringstream os;
  os << "pipeline: " << (prog.pipeline.empty() ? "(none)" : prog.pipeline)
     << "\n";
  os << "cost model: " << (calibrated ? "calibrated" : "static") << "\n";
  os << std::left << std::setw(16) << "pass" << std::right << std::setw(10)
     << "time(ms)" << std::setw(12) << "actors" << std::setw(12) << "edges"
     << std::setw(22) << "modeled/item";
  if (calibrated) {
    os << std::setw(22) << "measured/item" << std::setw(9) << "diverge";
  }
  os << std::setw(9) << "changed" << std::setw(8) << "evals" << "\n";
  for (const obs::PassSnapshot& p : prog.passes) {
    os << std::left << std::setw(16) << p.name << std::right;
    os << std::setw(10) << std::fixed << std::setprecision(3)
       << static_cast<double>(p.wall_ns) / 1e6;
    put_count(os, p.actors_before, p.actors_after);
    put_count(os, p.edges_before, p.edges_after);
    std::ostringstream cost;
    cost << std::fixed << std::setprecision(1) << p.cost_before << " -> "
         << p.cost_after;
    os << std::setw(22) << cost.str();
    if (calibrated) {
      std::ostringstream mcost;
      mcost << std::fixed << std::setprecision(1) << p.mcost_before << " -> "
            << p.mcost_after;
      os << std::setw(22) << mcost.str();
      // Divergence of the post-pass graph: measured / modeled cost per item.
      std::ostringstream div;
      if (p.cost_after > 0 && p.mcost_after > 0) {
        div << std::fixed << std::setprecision(2)
            << p.mcost_after / p.cost_after << "x";
      } else {
        div << "?";
      }
      os << std::setw(9) << div.str();
    }
    os << std::setw(9) << (p.changed ? "yes" : "-") << std::setw(8)
       << (p.cost_evals > 0 ? std::to_string(p.cost_evals) : "-") << "\n";
  }
  if (!prog.passes.empty()) {
    const double c0 = prog.passes.front().cost_before;
    const double c1 = prog.passes.back().cost_after;
    os << std::fixed << std::setprecision(1) << "modeled cost/item: " << c0
       << " -> " << c1;
    if (c0 > 0) {
      os << std::setprecision(1) << "  (" << (100.0 * (c0 - c1) / c0)
         << "% reduction)";
    }
    os << "\n";
    if (calibrated) {
      const double m0 = prog.passes.front().mcost_before;
      const double m1 = prog.passes.back().mcost_after;
      os << std::setprecision(1) << "measured cost/item: " << m0 << " -> "
         << m1;
      if (c1 > 0 && m1 > 0) {
        os << std::setprecision(2) << "  (divergence " << (m1 / c1) << "x)";
      }
      os << "\n";
    }
  }
  if (rewrites != nullptr && !rewrites->empty()) {
    os << "optimization decisions:\n";
    for (const linear::RewriteRecord& r : *rewrites) {
      os << "  " << r.to_string() << "\n";
    }
  }
  return os.str();
}

}  // namespace sit::opt
