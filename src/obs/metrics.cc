#include "obs/metrics.h"

#include <sstream>

#include "obs/costmodel.h"

namespace sit::obs {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream o;
  o << "{\n";
  o << "  \"app\": \"" << escape(app) << "\",\n";
  o << "  \"engine\": \"" << escape(engine) << "\",\n";
  o << "  \"threads\": " << threads << ",\n";
  o << "  \"batch\": " << batch << ",\n";
  o << "  \"threaded\": " << (threaded ? "true" : "false") << ",\n";
  o << "  \"fallback\": \"" << escape(fallback) << "\",\n";
  o << "  \"fallback_detail\": \"" << escape(fallback_detail) << "\",\n";
  o << "  \"predicted_speedup\": " << predicted_speedup << ",\n";
  if (fused_channels >= 0) {
    o << "  \"fused_channels\": " << fused_channels << ",\n";
    o << "  \"fused_pass\": " << fused_pass << ",\n";
    o << "  \"fused_super\": {";
    for (std::size_t i = 0; i < fused_super.size(); ++i) {
      o << "\"" << escape(fused_super[i].first)
        << "\": " << fused_super[i].second
        << (i + 1 < fused_super.size() ? ", " : "");
    }
    o << "},\n";
  }
  if (typed_actors >= 0) {
    o << "  \"typed_actors\": " << typed_actors << ",\n";
    o << "  \"typed_regs\": " << typed_regs << ",\n";
    o << "  \"typed_channels\": " << typed_channels << ",\n";
  }
  o << "  \"trace_events\": " << trace_events << ",\n";
  o << "  \"trace_dropped\": " << trace_dropped << ",\n";

  o << "  \"cost_model\": {\"source\": \"" << escape(cost_source)
    << "\", \"profile\": \"" << escape(cost_profile) << "\", \"divergence\": {";
  for (std::size_t i = 0; i < cost_divergence.size(); ++i) {
    o << "\"" << escape(cost_divergence[i].first)
      << "\": " << cost_divergence[i].second
      << (i + 1 < cost_divergence.size() ? ", " : "");
  }
  o << "}},\n";

  o << "  \"pipeline\": \"" << escape(pipeline) << "\",\n";
  o << "  \"passes\": [\n";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassSnapshot& p = passes[i];
    o << "    {\"name\": \"" << escape(p.name) << "\", \"wall_ns\": " << p.wall_ns
      << ", \"actors_before\": " << p.actors_before
      << ", \"actors_after\": " << p.actors_after
      << ", \"edges_before\": " << p.edges_before
      << ", \"edges_after\": " << p.edges_after
      << ", \"cost_before\": " << p.cost_before
      << ", \"cost_after\": " << p.cost_after
      << ", \"mcost_before\": " << p.mcost_before
      << ", \"mcost_after\": " << p.mcost_after
      << ", \"changed\": " << (p.changed ? "true" : "false")
      << ", \"cost_evals\": " << p.cost_evals << "}"
      << (i + 1 < passes.size() ? "," : "") << "\n";
  }
  o << "  ],\n";

  o << "  \"actors\": [\n";
  for (std::size_t i = 0; i < actors.size(); ++i) {
    const ActorSnapshot& a = actors[i];
    o << "    {\"name\": \"" << escape(a.name) << "\", \"firings\": " << a.firings
      << ", \"worker\": " << a.worker << ", \"calib_cycles\": " << a.calib_cycles
      << ", \"wall_ns\": " << a.wall_ns << ", \"max_ns\": " << a.max_ns
      << ", \"ops\": {\"int_ops\": " << a.ops.int_ops
      << ", \"flops\": " << a.ops.flops << ", \"divs\": " << a.ops.divs
      << ", \"trans\": " << a.ops.trans << ", \"mem\": " << a.ops.mem
      << ", \"channel\": " << a.ops.channel << "}";
    if (!a.typed_status.empty()) {
      o << ", \"typed\": \"" << escape(a.typed_status)
        << "\", \"typed_regs\": " << a.typed_regs;
    }
    if (!a.hist.empty()) {
      o << ", \"hist_ns_log2\": [";
      for (std::size_t b = 0; b < a.hist.size(); ++b) {
        o << a.hist[b] << (b + 1 < a.hist.size() ? ", " : "");
      }
      o << "]";
    }
    o << "}" << (i + 1 < actors.size() ? "," : "") << "\n";
  }
  o << "  ],\n";

  o << "  \"edges\": [\n";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeSnapshot& e = edges[i];
    o << "    {\"name\": \"" << escape(e.name) << "\", \"src\": " << e.src
      << ", \"dst\": " << e.dst << ", \"pushed\": " << e.pushed
      << ", \"popped\": " << e.popped << ", \"peak_items\": " << e.peak_items
      << ", \"bound_items\": " << e.bound_items
      << ", \"ring\": " << (e.ring ? "true" : "false");
    if (!e.content.empty()) o << ", \"content\": \"" << escape(e.content) << "\"";
    o << "}" << (i + 1 < edges.size() ? "," : "") << "\n";
  }
  o << "  ],\n";

  o << "  \"workers\": [\n";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerSnapshot& w = workers[i];
    o << "    {\"id\": " << w.id << ", \"actors\": " << w.actors
      << ", \"wall_ns\": " << w.wall_ns << ", \"wait_ns\": " << w.wait_ns
      << ", \"iters\": " << w.iters << ", \"utilization\": " << w.utilization()
      << "}" << (i + 1 < workers.size() ? "," : "") << "\n";
  }
  o << "  ]\n";
  o << "}\n";
  return o.str();
}

void annotate_cost_model(MetricsSnapshot* m) {
  const CostModel& cm = cost_model();
  m->cost_source = cm.source();
  m->cost_profile = cm.profile_path();
  m->cost_divergence.clear();
  if (!cm.calibrated()) return;
  for (const ActorSnapshot& a : m->actors) {
    double ratio = 0.0;
    if (cm.divergence(a.name, &ratio)) {
      m->cost_divergence.emplace_back(a.name, ratio);
    }
  }
}

}  // namespace sit::obs
