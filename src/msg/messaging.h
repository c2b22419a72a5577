#pragma once
// Teleport messaging.
//
// Filters send control messages through portals with a latency expressed in
// information wavefronts.  The paper's delivery guarantees:
//   * receiver downstream of sender: the message arrives immediately before
//     the first receiver firing that sees data affected by the sender's
//     firing n + latency;
//   * receiver upstream: immediately after the last receiver firing whose
//     output affects the sender's firing n + latency.
// Both are realized exactly with the sdep relation, and the executor
// *constrains* the schedule (paper eqs. mc1/mc2) so no receiver ever runs
// past a delivery point it might still owe a message to.
//
// MAX_LATENCY(a, b, n) is, per the paper, equivalent to a (never-sent)
// message from b to upstream a with latency n; add_latency_constraint
// implements exactly that.

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "sched/exec.h"
#include "sdep/sdep.h"

namespace sit::msg {

struct DeliveredMessage {
  std::string portal;
  std::string method;
  std::string receiver;
  std::int64_t receiver_firing{0};  // delivered before/after this firing
  bool before{true};
};

struct MessagingStats {
  std::int64_t sent{0};
  std::int64_t delivered{0};
  std::int64_t constraint_stalls{0};  // firings deferred by mc1/mc2
  std::vector<DeliveredMessage> deliveries;
};

class MessagingExecutor {
 public:
  // `engine` picks the work-function engine for the underlying executor
  // (Auto = SIT_ENGINE env var, defaulting to the compiled engine).  Handlers
  // always run through the tree interpreter on the shared filter state.
  explicit MessagingExecutor(ir::NodeP root,
                             sched::Engine engine = sched::Engine::Auto);

  // Full-options form: engine, tracing, op counting.  The message_sink field
  // is overwritten -- teleport delivery is this class's whole job.
  MessagingExecutor(ir::NodeP root, sched::ExecOptions opts);

  // Artifact-taking form: consume a pipeline-compiled program (see
  // sched/program.h) instead of re-deriving graph + schedule from the root.
  MessagingExecutor(sched::CompiledProgram prog, sched::ExecOptions opts = {});

  // Register `receiver_filter` (leaf filter name) on a portal.
  void register_receiver(const std::string& portal,
                         const std::string& receiver_filter);

  // MAX_LATENCY(upstream, downstream, n).
  void add_latency_constraint(const std::string& upstream,
                              const std::string& downstream, int latency);

  // Run n steady states under the messaging constraints; returns program
  // output items.
  std::vector<double> run_steady(int n);

  [[nodiscard]] const MessagingStats& stats() const { return stats_; }
  [[nodiscard]] sched::Executor& executor() { return *ex_; }

 private:
  struct Pending {
    int receiver{0};
    std::int64_t firing{0};  // deliver before (downstream) / after (upstream)
    bool before{true};
    std::string portal, method;
    std::vector<ir::Value> args;
  };

  // A sender/receiver pair whose future messages constrain the schedule.
  struct Pair {
    int sender{0};
    int receiver{0};
    bool receiver_downstream{true};
    int min_latency{0};
    std::string portal;  // empty for pure latency constraints
  };

  int actor_by_name(const std::string& name) const;
  bool constraints_allow(int actor) const;
  void deliver_due_before(int actor);
  void deliver_due_after(int actor);
  void on_send(int sender, const runtime::SentMessage& m);

  std::unique_ptr<sched::Executor> ex_;
  std::unique_ptr<sdep::SdepAnalysis> sdep_;
  std::map<std::string, std::vector<int>> portals_;
  std::vector<Pair> pairs_;
  std::deque<Pending> pending_;
  MessagingStats stats_;
  int current_actor_{-1};
};

}  // namespace sit::msg
