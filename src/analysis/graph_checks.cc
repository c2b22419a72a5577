#include "analysis/graph_checks.h"

#include <stdexcept>

#include "runtime/flatgraph.h"
#include "sched/schedule.h"

namespace sit::analysis {

void check_graph(const ir::NodeP& root, std::vector<Diagnostic>& out) {
  runtime::FlatGraph g;
  try {
    g = runtime::flatten(root);
  } catch (const std::exception& ex) {
    out.push_back(error("rates", root ? root->name : "<root>",
                        "graph does not flatten", ex.what()));
    return;
  }
  try {
    (void)sched::make_schedule(g);
  } catch (const sched::ScheduleError& e) {
    out.push_back(error("rates", e.where, e.message, e.detail));
  }
}

}  // namespace sit::analysis
