// Tests for the information-wavefront analysis (sdep, transfer functions,
// deadlock/overflow detection) and teleport messaging semantics.

#include <gtest/gtest.h>

#include "apps/radio.h"
#include "ir/dsl.h"
#include "msg/messaging.h"
#include "runtime/flatgraph.h"
#include "sdep/sdep.h"

namespace sit::sdep {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;

NodeP pass(const std::string& name, int pp, int ps, int extra_peek = 0) {
  std::vector<StmtP> body;
  for (int i = 0; i < ps; ++i) body.push_back(push_(peek_(0)));
  body.push_back(discard(pp));
  return filter(name).rates(pp + extra_peek, pp, ps).work(seq(body)).node();
}

NodeP src(const std::string& name, int ps) {
  std::vector<StmtP> body;
  for (int i = 0; i < ps; ++i) body.push_back(push_(c(1.0)));
  return filter(name).rates(0, 0, ps).work(seq(body)).node();
}

NodeP snk(const std::string& name, int pp) {
  return filter(name).rates(pp, pp, 0).work(seq({discard(pp)})).node();
}

int actor_id(const runtime::FlatGraph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    if (g.actors[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TEST(TransferFns, FilterClosedFormsMatchPaper) {
  // peek 3, pop 1, push 2: after n firings, consumed window n+2, pushed 2n.
  EXPECT_EQ(filter_max_transfer(3, 1, 2, 2), 0);   // below peek window
  EXPECT_EQ(filter_max_transfer(3, 1, 2, 3), 2);   // one firing
  EXPECT_EQ(filter_max_transfer(3, 1, 2, 7), 10);  // five firings
  EXPECT_EQ(filter_min_transfer(3, 1, 2, 1), 3);   // one firing needs 3
  EXPECT_EQ(filter_min_transfer(3, 1, 2, 4), 4);   // two firings need 4
}

TEST(TransferFns, MaxAndMinAreAdjoint) {
  // min(max(x)) <= x and max(min(y)) >= y for a range of rates.
  for (int peek : {1, 2, 5}) {
    for (int pop : {1, 2}) {
      if (peek < pop) continue;
      for (int push : {1, 3}) {
        for (std::int64_t x = peek; x < 40; ++x) {
          const auto y = filter_max_transfer(peek, pop, push, x);
          if (y > 0) {
            EXPECT_LE(filter_min_transfer(peek, pop, push, y), x);
          }
        }
      }
    }
  }
}

TEST(Sdep, PipelineChainCounts) {
  // a: 1->2, b: 3->1.  For snk (pop 1) to fire once, b fires once, needing
  // 3 items => a fires twice (ceil(3/2)), needing 2 source items... check
  // the relation directly.
  auto p = make_pipeline("p", {src("s", 1), pass("a", 1, 2), pass("b", 3, 1),
                               snk("k", 1)});
  const auto g = runtime::flatten(p);
  SdepAnalysis an(g);
  const int s = actor_id(g, "s"), a = actor_id(g, "a"), b = actor_id(g, "b"),
            k = actor_id(g, "k");
  EXPECT_TRUE(an.is_upstream_of(s, k));
  EXPECT_FALSE(an.is_upstream_of(k, s));
  EXPECT_EQ(an.sdep(a, b, 1), 2);  // b's 1st firing needs 2 firings of a
  EXPECT_EQ(an.sdep(a, b, 2), 3);  // 6 items: 3 firings of a
  EXPECT_EQ(an.sdep(s, k, 1), 2);  // 2 firings of a consume 2 source items
  EXPECT_EQ(an.sdep(b, k, 5), 5);
}

TEST(Sdep, PeriodicityHolds) {
  auto p = make_pipeline("p", {src("s", 2), pass("a", 3, 2), snk("k", 1)});
  const auto g = runtime::flatten(p);
  SdepAnalysis an(g);
  const int s = actor_id(g, "s"), k = actor_id(g, "k");
  const auto& sch = an.schedule();
  const std::int64_t rep_k = sch.reps[static_cast<std::size_t>(k)];
  const std::int64_t rep_s = sch.reps[static_cast<std::size_t>(s)];
  for (std::int64_t n = rep_k + 1; n < rep_k * 3; ++n) {
    EXPECT_EQ(an.sdep(s, k, n + rep_k), an.sdep(s, k, n) + rep_s) << n;
  }
}

TEST(Sdep, PeekingShiftsTheWavefront) {
  auto plain = make_pipeline("p", {src("s", 1), pass("a", 1, 1, 0), snk("k", 1)});
  auto peeky = make_pipeline("q", {src("s", 1), pass("a", 1, 1, 2), snk("k", 1)});
  const auto g1 = runtime::flatten(plain);
  const auto g2 = runtime::flatten(peeky);
  SdepAnalysis a1(g1), a2(g2);
  // With peek extra 2, the source must run 2 firings ahead.
  EXPECT_EQ(a1.sdep(actor_id(g1, "s"), actor_id(g1, "k"), 4), 4);
  EXPECT_EQ(a2.sdep(actor_id(g2, "s"), actor_id(g2, "k"), 4), 6);
}

TEST(Sdep, MaxFiringsInvertsSdep) {
  auto p = make_pipeline("p", {src("s", 2), pass("a", 3, 2), snk("k", 1)});
  const auto g = runtime::flatten(p);
  SdepAnalysis an(g);
  const int s = actor_id(g, "s"), k = actor_id(g, "k");
  for (std::int64_t m = 0; m < 30; ++m) {
    const std::int64_t n = an.max_firings(s, k, m);
    EXPECT_LE(an.sdep(s, k, n), m);
    EXPECT_GT(an.sdep(s, k, n + 1), m);
  }
}

TEST(Sdep, SplitJoinPaths) {
  auto sj = make_pipeline(
      "p", {src("s", 2),
            make_splitjoin("sj", roundrobin_split({1, 1}), roundrobin_join({1, 1}),
                           {pass("l", 1, 1), pass("r", 1, 1)}),
            snk("k", 2)});
  const auto g = runtime::flatten(sj);
  SdepAnalysis an(g);
  const int l = actor_id(g, "l"), r = actor_id(g, "r"), k = actor_id(g, "k");
  EXPECT_FALSE(an.is_upstream_of(l, r));  // parallel branches
  EXPECT_TRUE(an.is_upstream_of(l, k));
  EXPECT_EQ(an.sdep(l, k, 1), 1);
  EXPECT_EQ(an.sdep(r, k, 1), 1);
}

TEST(Verify, HealthyFeedbackLoopPasses) {
  auto body = filter("body").rates(2, 2, 2)
                  .work(seq({let("s", pop_() + pop_()), push_(v("s")), push_(v("s"))}))
                  .node();
  auto loop = filter("loop").rates(1, 1, 1).work(seq({push_(pop_() * c(0.5))})).node();
  auto fb = make_pipeline(
      "p", {src("s", 1),
            make_feedback("fb", roundrobin_join({1, 1}), body,
                          roundrobin_split({1, 1}), loop, 1, {0.0}),
            snk("k", 1)});
  const auto checks = check_feedback_loops(runtime::flatten(fb));
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_FALSE(checks[0].deadlock);
}

TEST(Verify, StarvedFeedbackLoopIsDeadlock) {
  // Loop arm consumes 2 per item produced: the delay can never sustain it.
  auto body = filter("body").rates(2, 2, 2)
                  .work(seq({let("s", pop_() + pop_()), push_(v("s")), push_(v("s"))}))
                  .node();
  auto loop = filter("loop").rates(2, 2, 1)
                  .work(seq({push_(pop_() + pop_())}))
                  .node();
  auto fb = make_pipeline(
      "p", {src("s", 1),
            make_feedback("fb", roundrobin_join({1, 1}), body,
                          roundrobin_split({1, 1}), loop, 1, {0.0}),
            snk("k", 1)});
  const auto g = runtime::flatten(fb);
  const auto checks = check_feedback_loops(g);
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_TRUE(checks[0].deadlock);
}

TEST(Verify, BufferBoundsFlagWideMismatches) {
  auto p = make_pipeline("p", {src("s", 100), pass("a", 1, 1), snk("k", 1)});
  const auto flagged = check_buffer_bounds(runtime::flatten(p), 50);
  EXPECT_FALSE(flagged.empty());
  const auto fine = check_buffer_bounds(runtime::flatten(p), 1000);
  EXPECT_TRUE(fine.empty());
}

}  // namespace
}  // namespace sit::sdep

namespace sit::msg {
namespace {

using namespace sit::ir;
using namespace sit::ir::dsl;

// Sender downstream of receiver: gain filter upstream receives setGain from
// a monitor downstream.
struct UpstreamRig {
  NodeP graph;
  UpstreamRig() {
    // Pushes 4 counter values per firing so one steady state holds several
    // receiver firings -- that is what makes the schedule constraints bite.
    auto source = filter("src")
                      .rates(0, 0, 4)
                      .iscalar("t", 0)
                      .work(seq({for_("i", 0, 4,
                                      seq({let("t", v("t") + 1),
                                           push_(to_float(v("t")))}))}))
                      .node();
    auto gain = filter("gain")
                    .rates(1, 1, 1)
                    .scalar("g", ir::Value(1.0))
                    .work(seq({push_(pop_() * v("g"))}))
                    .handler("setGain", {"x"}, seq({let("g", v("x"))}))
                    .node();
    // Monitor sends setGain(2) with latency 2 when it sees item value 5.
    auto monitor = filter("monitor")
                       .rates(1, 1, 1)
                       .work(seq({let("x", pop_()),
                                  if_(v("x") == c(5.0),
                                      ir::send("p", "setGain", {c(2.0).e}, 2, 2)),
                                  push_(v("x"))}))
                       .node();
    graph = make_pipeline("rig", {source, gain, monitor,
                                  filter("snk").rates(1, 1, 0).work(seq({discard(1)})).node()});
  }
};

TEST(Messaging, UpstreamDeliveryLandsOnTheWavefront) {
  UpstreamRig rig;
  MessagingExecutor ex(rig.graph);
  ex.register_receiver("p", "gain");
  ex.run_steady(20);
  const auto& st = ex.stats();
  ASSERT_EQ(st.sent, 1);
  ASSERT_EQ(st.delivered, 1);
  // Sent during monitor firing 5 with latency 2 => affects monitor firing 7;
  // the latest gain firing affecting that is firing 7 (1:1 rates), so the
  // handler runs immediately after gain's firing 7.
  EXPECT_EQ(st.deliveries[0].receiver, "gain");
  EXPECT_EQ(st.deliveries[0].receiver_firing, 7);
  EXPECT_FALSE(st.deliveries[0].before);
}

TEST(Messaging, UpstreamConstraintThrottlesReceiver) {
  UpstreamRig rig;
  MessagingExecutor ex(rig.graph);
  ex.register_receiver("p", "gain");
  ex.run_steady(5);
  // The gain filter may never run more than latency(2) firings ahead of the
  // monitor, so the unconstrained sweep must have been stalled at least once.
  EXPECT_GT(ex.stats().constraint_stalls, 0);
}

TEST(Messaging, DownstreamDeliveryBeforeAffectedFiring) {
  // Sender upstream: a controller sends downstream to a sink-side filter.
  auto source = filter("src")
                    .rates(0, 0, 1)
                    .iscalar("t", 0)
                    .work(seq({let("t", v("t") + 1), push_(to_float(v("t")))}))
                    .node();
  auto ctrl = filter("ctrl")
                  .rates(1, 1, 1)
                  .work(seq({let("x", pop_()),
                             if_(v("x") == c(3.0),
                                 ir::send("q", "setMode", {c(1.0).e}, 4, 4)),
                             push_(v("x"))}))
                  .node();
  auto modal = filter("modal")
                   .rates(1, 1, 1)
                   .scalar("m", ir::Value(0.0))
                   .work(seq({push_(pop_() + v("m") * c(100.0))}))
                   .handler("setMode", {"x"}, seq({let("m", v("x"))}))
                   .node();
  auto g = make_pipeline("rig", {source, ctrl, modal});
  MessagingExecutor ex(g);
  ex.register_receiver("q", "modal");
  const auto out = ex.run_steady(16);
  const auto& st = ex.stats();
  ASSERT_EQ(st.sent, 1);
  ASSERT_EQ(st.delivered, 1);
  // Sent at ctrl firing 3 with latency 4: first modal firing affected by
  // ctrl firing 7 is firing 7; delivery happens before it.
  EXPECT_EQ(st.deliveries[0].receiver_firing, 7);
  EXPECT_TRUE(st.deliveries[0].before);
  // Items 1..6 pass unchanged; from item 7 on, the mode offset applies.
  ASSERT_GE(out.size(), 8u);
  EXPECT_DOUBLE_EQ(out[5], 6.0);
  EXPECT_DOUBLE_EQ(out[6], 107.0);
}

TEST(Messaging, MaxLatencyDirectiveLimitsDecoupling) {
  UpstreamRig rig;
  MessagingExecutor ex(rig.graph);
  // gain may never run more than one firing ahead of the information
  // wavefront the sink has consumed.
  ex.add_latency_constraint("gain", "snk", 0);
  ex.run_steady(10);
  EXPECT_GT(ex.stats().constraint_stalls, 0);
}

TEST(Messaging, FreqHopRadioRetunesItself) {
  const auto radio = sit::apps::make_freq_hop_radio(8);
  MessagingExecutor ex(radio.graph);
  ex.register_receiver(radio.portal, radio.receiver);
  ex.run_steady(160);
  const auto& st = ex.stats();
  EXPECT_GT(st.sent, 0);
  // Every message whose delivery point fell inside the run arrived; at most
  // one can still be in flight at the cut-off.
  EXPECT_GE(st.delivered, st.sent - 1);
  EXPECT_LE(st.delivered, st.sent);
  EXPECT_GE(st.delivered, 1);
  for (const auto& d : st.deliveries) {
    EXPECT_EQ(d.receiver, "rf2if");
    EXPECT_FALSE(d.before);  // receiver is upstream of the sender
  }
}

TEST(Messaging, UnknownReceiverOrParallelPathRejected) {
  UpstreamRig rig;
  MessagingExecutor ex(rig.graph);
  EXPECT_THROW(ex.register_receiver("p", "nope"), std::invalid_argument);
  EXPECT_THROW(ex.add_latency_constraint("snk", "src", 1), std::invalid_argument);
}

}  // namespace
}  // namespace sit::msg
