#include "sched/describe.h"

#include <utility>
#include <vector>

namespace sit::sched {
namespace {

using runtime::FlatActor;
using runtime::Tag;

std::string describe_fusion(const Executor& ex) {
  std::string out = "fusion:\n";
  const runtime::FusedProgram* fp = ex.fused_program();
  if (!fp) return out + "  refused: " + ex.fused_refusal() + "\n";
  out += "  admissible: " + std::to_string(fp->eliminated_channels) +
         " channel(s) lowered to trace buffers, " +
         std::to_string(fp->code.size()) + " trace instruction(s), " +
         std::to_string(fp->runs.size()) + " firing run(s), " +
         std::to_string(fp->max_pass) + " steady state(s) per pass\n";
  // The decode census: how many trace instructions run on a generic
  // handler (runtime::Handler), and which.
  out += "  dispatch: " + std::to_string(fp->generic_count()) + " of " +
         std::to_string(fp->code.size()) +
         " instruction(s) on a generic handler";
  std::string generic;
  for (const auto& [h, n] : fp->dispatch) {
    if (!runtime::handler_generic(h)) continue;
    generic += std::string(generic.empty() ? " (" : ", ") +
               runtime::handler_name(h) + " " + std::to_string(n);
  }
  out += generic + (generic.empty() ? "\n" : ")\n");
  if (fp->super.empty()) {
    out += "  superinstructions: none selected\n";
  } else {
    for (const auto& [name, n] : fp->super) {
      out += "  super " + name + ": " + std::to_string(n) + " instance(s)\n";
    }
  }
  return out;
}

// One filter's line and, when it has state, its state line: a typed
// filter's inferred slot classes, a tree filter's tags as bound after init.
std::string describe_filter(const Executor& ex, int actor) {
  const FlatActor& a = ex.graph().actors[static_cast<std::size_t>(actor)];
  std::vector<std::pair<std::string, Tag>> scalars, arrays;
  std::string out = "  " + a.name + ": ";
  if (const runtime::TypedFilter* tf = ex.typed_program(actor)) {
    const ir::LinearRows* rows = ex.runs_kernel(actor) ? tf->kernel.get()
                                                       : nullptr;
    out += "typed (" +
           (rows ? "linear-kernel (" + std::to_string(rows->push) + "x" +
                       std::to_string(rows->peek) + ", " +
                       std::to_string(rows->nnz()) + " nnz)"
                 : std::to_string(tf->work.typed_regs) + " double reg(s)") +
           ", push " + runtime::tag_name(tf->work.push_tag) + ")";
    for (std::size_t s = 0; s < tf->base->scalar_slots.size(); ++s) {
      scalars.emplace_back(tf->base->scalar_slots[s], tf->work.scalar_class[s]);
    }
    for (std::size_t s = 0; s < tf->base->array_slots.size(); ++s) {
      arrays.emplace_back(tf->base->array_slots[s], tf->work.array_class[s]);
    }
  } else {
    out += "tree (" + ex.typed_refusal(actor) + ")";
    const runtime::FilterState& st = ex.filter_state(actor);
    for (const ir::VarDecl& d : a.node->filter.state) {
      if (!d.is_array) {
        scalars.emplace_back(d.name, runtime::value_tag(st.scalars.at(d.name)));
        continue;
      }
      const auto& arr = st.arrays.at(d.name);
      Tag t = arr.empty() ? Tag::Int : runtime::value_tag(arr.front());
      for (const auto& v : arr) t = runtime::join_tag(t, runtime::value_tag(v));
      arrays.emplace_back(d.name, t);
    }
  }
  if (!scalars.empty() || !arrays.empty()) {
    out += "\n    state:";
    for (const auto& [name, tag] : scalars) {
      out += " " + name + ":" + runtime::tag_name(tag);
    }
    for (const auto& [name, tag] : arrays) {
      out += " " + name + "[]:" + runtime::tag_name(tag);
    }
  }
  return out + "\n";
}

std::string describe_typeflow(const Executor& ex) {
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  const auto& actors = ex.graph().actors;
  int filters = 0;
  std::string body;
  for (std::size_t i = 0; i < actors.size(); ++i) {
    if (actors[i].kind != FlatActor::Kind::Filter) continue;
    ++filters;
    body += describe_filter(ex, static_cast<int>(i));
  }
  int int_channels = 0;
  for (std::size_t e = 0; e < m.edges.size(); ++e) {
    if (m.edges[e].content == "int") ++int_channels;
    body += "  edge " + std::to_string(e) + " " + m.edges[e].name + ": " +
            m.edges[e].content + "\n";
  }
  return "typeflow: " + std::to_string(m.typed_actors) + "/" +
         std::to_string(filters) + " filter(s) specialized, " +
         std::to_string(m.typed_regs) + " double register(s), " +
         std::to_string(m.typed_channels) + " double-content channel(s), " +
         std::to_string(int_channels) + " int-content channel(s)\n" + body;
}

}  // namespace

std::string describe_compiled(const Executor& ex) {
  return describe_fusion(ex) + describe_typeflow(ex);
}

}  // namespace sit::sched
