// Observability subsystem tests.
//
// The load-bearing property is *zero interference*: enabling tracing must not
// change a single output bit, firing tally, or operation count on any app
// under any engine -- the instrumentation only watches.  On top of that:
// golden structural checks on emitted Chrome traces (valid JSON, per-thread
// monotone timestamps, matched B/E pairs), the validator's rejection of
// malformed traces, the stable fallback-reason names the ThreadedReport
// exposes, the stall-detector configuration plumbing, metrics-snapshot
// conservation laws, and teleport send/deliver events from the messaging
// executor.

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "ir/dsl.h"
#include "msg/messaging.h"
#include "obs/export.h"
#include "obs/jsonlite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/exec.h"
#include "sched/texec.h"

namespace sit {
namespace {

using namespace ir::dsl;  // NOLINT
using runtime::OpCounts;

// Tests below that need a *live* recorder skip themselves when the
// instrumentation was compiled out (cmake -DSIT_OBS=OFF); the pure-unit
// tests (validator, names, stall resolution, Recorder mechanics) still run.
#define SKIP_WITHOUT_OBS() \
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out"

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_bits(a[i], b[i]))
        << what << " item " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_same_counts(const OpCounts& a, const OpCounts& b,
                        const std::string& who) {
  EXPECT_EQ(a.int_ops, b.int_ops) << who << " int_ops";
  EXPECT_EQ(a.flops, b.flops) << who << " flops";
  EXPECT_EQ(a.divs, b.divs) << who << " divs";
  EXPECT_EQ(a.trans, b.trans) << who << " trans";
  EXPECT_EQ(a.mem, b.mem) << who << " mem";
  EXPECT_EQ(a.channel, b.channel) << who << " channel";
}

// ---- tracing must not perturb execution -------------------------------------

// Sequential executor, both engines: tracing on vs off, everything bit-equal.
// Tracing refuses the whole-graph trace, so on the fused engine this holds
// the per-actor traces equal to the whole-graph trace wherever it admits.
TEST(ObsDifferential, TracingIsInvisibleSequential) {
  SKIP_WITHOUT_OBS();
  for (const auto engine : {sched::Engine::Tree, sched::Engine::Fused}) {
    const char* ename = engine == sched::Engine::Fused ? "fused" : "tree";
    for (const auto& info : apps::all_apps()) {
      SCOPED_TRACE(std::string(info.name) + "/" + ename);
      sched::ExecOptions off;
      off.engine = engine;
      off.trace = sched::TraceMode::Off;
      sched::ExecOptions on = off;
      on.trace = sched::TraceMode::On;
      sched::Executor a(info.make(), off);
      sched::Executor b(info.make(), on);
      ASSERT_EQ(a.recorder(), nullptr);
      ASSERT_NE(b.recorder(), nullptr);
      expect_same_doubles(a.run_steady(3), b.run_steady(3), "output#1");
      expect_same_doubles(a.run_steady(2), b.run_steady(2), "output#2");
      EXPECT_EQ(a.firings(), b.firings());
      for (std::size_t i = 0; i < a.graph().actors.size(); ++i) {
        expect_same_counts(a.actor_ops()[i], b.actor_ops()[i],
                           a.graph().actors[i].name);
      }
      EXPECT_GT(b.recorder()->total_events(), 0);
    }
  }
}

// Threaded executor at 4 workers: same invariance.
TEST(ObsDifferential, TracingIsInvisibleThreaded) {
  SKIP_WITHOUT_OBS();
  for (const auto& info : apps::all_apps()) {
    SCOPED_TRACE(info.name);
    sched::ExecOptions off;
    off.threads = 4;
    off.trace = sched::TraceMode::Off;
    sched::ExecOptions on = off;
    on.trace = sched::TraceMode::On;
    sched::ThreadedExecutor a(info.make(), off);
    sched::ThreadedExecutor b(info.make(), on);
    expect_same_doubles(a.run_steady(3), b.run_steady(3), "output#1");
    expect_same_doubles(a.run_steady(2), b.run_steady(2), "output#2");
    EXPECT_EQ(a.firings(), b.firings());
    for (std::size_t i = 0; i < a.graph().actors.size(); ++i) {
      expect_same_counts(a.actor_ops()[i], b.actor_ops()[i],
                         a.graph().actors[i].name);
    }
    for (std::size_t e = 0; e < a.graph().edges.size(); ++e) {
      const int ei = static_cast<int>(e);
      EXPECT_EQ(a.edge_pushed(ei), b.edge_pushed(ei)) << "edge " << e;
      EXPECT_EQ(a.edge_popped(ei), b.edge_popped(ei)) << "edge " << e;
    }
    ASSERT_NE(b.recorder(), nullptr);
    EXPECT_GT(b.recorder()->total_events(), 0);
  }
}

// ---- golden chrome-trace structure ------------------------------------------

std::string traced_app_json(const std::string& name, int threads) {
  sched::ExecOptions opts;
  opts.threads = threads;
  opts.trace = sched::TraceMode::On;
  sched::ThreadedExecutor tex(apps::make_app(name), opts);
  tex.run_steady(4);
  const auto m = tex.metrics_snapshot();
  std::vector<std::string> actors, edges;
  for (const auto& a : tex.graph().actors) actors.push_back(a.name);
  for (const auto& e : m.edges) edges.push_back(e.name);
  return obs::chrome_trace_json(*tex.recorder(), actors, edges, name, m.engine);
}

TEST(ObsChromeTrace, GoldenStructure) {
  SKIP_WITHOUT_OBS();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::string text = traced_app_json("FIR", threads);
    std::string err;
    ASSERT_TRUE(obs::validate_chrome_trace(text, &err)) << err;

    // Independently re-parse and check semantic content: fire events exist,
    // phases appear, and every B has its E (the validator already enforces
    // nesting; here we pin category/name conventions).
    obs::json::Value root;
    ASSERT_TRUE(obs::json::parse(text, &root, &err)) << err;
    const obs::json::Value* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->arr.size(), 0u);
    int fires = 0, phases = 0, channel = 0;
    for (const auto& ev : events->arr) {
      const obs::json::Value* cat = ev.find("cat");
      if (cat == nullptr) continue;
      if (cat->str == "fire") ++fires;
      if (cat->str == "phase") ++phases;
      if (cat->str == "channel") ++channel;
    }
    EXPECT_GT(fires, 0);
    EXPECT_GE(phases, 2);  // at least init + steady
    EXPECT_GT(channel, 0);
  }
}

TEST(ObsChromeTrace, ValidatorRejectsMalformed) {
  std::string err;
  EXPECT_FALSE(obs::validate_chrome_trace("not json", &err));
  EXPECT_FALSE(obs::validate_chrome_trace("{}", &err));
  // Unmatched B.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[{"ph":"B","ts":1,"pid":1,"tid":1,"name":"x"}]})",
      &err));
  // E without B.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[{"ph":"E","ts":1,"pid":1,"tid":1,"name":"x"}]})",
      &err));
  // Non-monotone timestamps on one thread.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[
        {"ph":"i","ts":5,"pid":1,"tid":1,"name":"a"},
        {"ph":"i","ts":3,"pid":1,"tid":1,"name":"b"}]})",
      &err));
  // Mismatched nesting order.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[
        {"ph":"B","ts":1,"pid":1,"tid":1,"name":"x"},
        {"ph":"B","ts":2,"pid":1,"tid":1,"name":"y"},
        {"ph":"E","ts":3,"pid":1,"tid":1,"name":"x"},
        {"ph":"E","ts":4,"pid":1,"tid":1,"name":"y"}]})",
      &err));
  // And a minimal valid one passes.
  EXPECT_TRUE(obs::validate_chrome_trace(
      R"({"traceEvents":[
        {"ph":"B","ts":1,"pid":1,"tid":1,"name":"x"},
        {"ph":"E","ts":2,"pid":1,"tid":1,"name":"x"}]})",
      &err))
      << err;
}

// ---- stable fallback-reason names -------------------------------------------

TEST(ObsReport, FallbackNamesAreStable) {
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::None), "none");
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::OneThread), "one-thread");
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::MessageSink),
               "message-sink");
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::TeleportHandlers),
               "teleport-handlers");
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::TeleportSends),
               "teleport-sends");
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::TooFewActors),
               "too-few-actors");
  EXPECT_STREQ(sched::to_string(sched::FallbackReason::InterleavedFirings),
               "interleaved-firings");
}

TEST(ObsReport, FallbackEnumMatchesRefusal) {
  // One thread.
  {
    sched::ExecOptions o;
    o.threads = 1;
    sched::ThreadedExecutor t(apps::make_app("FIR"), o);
    EXPECT_EQ(t.report().fallback, sched::FallbackReason::OneThread);
    EXPECT_NE(t.report().to_string().find("one-thread"), std::string::npos);
  }
  // Teleport handlers.
  {
    auto gain = filter("gain")
                    .rates(1, 1, 1)
                    .scalar("g", ir::Value(1.0))
                    .work(seq({push_(pop_() * v("g"))}))
                    .handler("setGain", {"x"}, seq({let("g", v("x"))}))
                    .node();
    auto src = filter("src").rates(0, 0, 1).work(seq({push_(c(1.0))})).node();
    auto snk = filter("snk").rates(1, 1, 0).work(seq({discard(1)})).node();
    sched::ExecOptions o;
    o.threads = 4;
    sched::ThreadedExecutor t(ir::make_pipeline("p", {src, gain, snk}), o);
    EXPECT_EQ(t.report().fallback, sched::FallbackReason::TeleportHandlers);
    EXPECT_NE(t.report().fallback_reason.find("teleport"), std::string::npos);
  }
  // Threaded run reports None.
  {
    sched::ExecOptions o;
    o.threads = 4;
    sched::ThreadedExecutor t(apps::make_app("FIR"), o);
    t.run_steady(2);
    ASSERT_TRUE(t.report().threaded);
    EXPECT_EQ(t.report().fallback, sched::FallbackReason::None);
    EXPECT_NE(t.report().to_string().find("threaded"), std::string::npos);
  }
}

// ---- stall-detector configuration -------------------------------------------

TEST(ObsStall, ResolveStallMs) {
  unsetenv("SIT_STALL_MS");
  EXPECT_EQ(sched::resolve_stall_ms(0), 120000);   // default
  EXPECT_EQ(sched::resolve_stall_ms(5000), 5000);  // explicit passes through
  EXPECT_EQ(sched::resolve_stall_ms(-1), -1);      // negative = never abort
  setenv("SIT_STALL_MS", "2500", 1);
  EXPECT_EQ(sched::resolve_stall_ms(0), 2500);
  EXPECT_EQ(sched::resolve_stall_ms(7), 7);  // env only fills the default
  setenv("SIT_STALL_MS", "-1", 1);
  EXPECT_EQ(sched::resolve_stall_ms(0), -1);
  unsetenv("SIT_STALL_MS");
}

TEST(ObsStall, ConfiguredRunStillMatches) {
  // A tight stall budget must not change results on a healthy run (the
  // threshold only matters when something is wrong).
  sched::ExecOptions o;
  o.threads = 4;
  o.stall_ms = 10000;
  sched::ThreadedExecutor t(apps::make_app("FilterBank"), o);
  sched::Executor s(apps::make_app("FilterBank"), {});
  expect_same_doubles(s.run_steady(3), t.run_steady(3), "FilterBank output");
}

// ---- metrics snapshots ------------------------------------------------------

TEST(ObsMetrics, SnapshotConservation) {
  SKIP_WITHOUT_OBS();
  sched::ExecOptions o;
  o.trace = sched::TraceMode::On;
  sched::Executor ex(apps::make_app("Vocoder"), o);
  ex.run_steady(3);
  const obs::MetricsSnapshot m = ex.metrics_snapshot();
  ASSERT_EQ(m.actors.size(), ex.graph().actors.size());
  std::int64_t total_wall = 0;
  for (std::size_t i = 0; i < m.actors.size(); ++i) {
    EXPECT_EQ(m.actors[i].firings, ex.firings()[i]) << m.actors[i].name;
    EXPECT_GE(m.actors[i].wall_ns, 0) << m.actors[i].name;
    total_wall += m.actors[i].wall_ns;
  }
  EXPECT_GT(total_wall, 0);  // tracing was on: firings were timed
  for (const auto& e : m.edges) {
    EXPECT_GE(e.pushed, e.popped) << e.name;       // FIFO: can't pop the future
    EXPECT_GE(e.peak_items, e.pushed - e.popped);  // peak covers what's live
  }
  EXPECT_GT(m.trace_events, 0);

  // The JSON serialization must parse back.
  obs::json::Value root;
  std::string err;
  ASSERT_TRUE(obs::json::parse(m.to_json(), &root, &err)) << err;
  const obs::json::Value* actors = root.find("actors");
  ASSERT_NE(actors, nullptr);
  EXPECT_EQ(actors->arr.size(), m.actors.size());
}

TEST(ObsMetrics, WorkerUtilizationPopulated) {
  SKIP_WITHOUT_OBS();
  sched::ExecOptions o;
  o.threads = 4;
  o.trace = sched::TraceMode::On;
  sched::ThreadedExecutor tex(apps::make_app("FMRadio"), o);
  tex.run_steady(6);
  const obs::MetricsSnapshot m = tex.metrics_snapshot();
  ASSERT_TRUE(m.threaded);
  ASSERT_GT(m.workers.size(), 1u);
  std::int64_t total_wall = 0;
  for (const auto& w : m.workers) {
    EXPECT_GE(w.wall_ns, w.wait_ns) << "worker " << w.id;
    EXPECT_GT(w.iters, 0) << "worker " << w.id;
    const double u = w.utilization();
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
    total_wall += w.wall_ns;
  }
  EXPECT_GT(total_wall, 0);
}

// ---- recorder / buffer units ------------------------------------------------

TEST(ObsRecorder, BoundedBufferCountsDrops) {
  obs::Recorder::Config cfg;
  cfg.events_per_thread = 4;
  obs::Recorder rec(cfg);
  obs::ThreadBuffer* tb = rec.thread_buffer(0);
  for (int i = 0; i < 10; ++i) {
    tb->emit(i, obs::EventKind::FireBegin, 0);
  }
  EXPECT_EQ(tb->events().size(), 4u);
  EXPECT_EQ(tb->dropped(), 6);
  EXPECT_EQ(rec.total_events(), 4);
  EXPECT_EQ(rec.total_dropped(), 6);
  // Same tid returns the same buffer; a new tid gets a fresh one.
  EXPECT_EQ(rec.thread_buffer(0), tb);
  EXPECT_NE(rec.thread_buffer(1), tb);
}

TEST(ObsRecorder, FiringStatsHistogram) {
  obs::FiringStats fs;
  fs.record(1);       // bucket bit_width(1)=1
  fs.record(1000);    // ~2^10
  fs.record(1000000); // ~2^20
  EXPECT_EQ(fs.fires, 3);
  EXPECT_EQ(fs.wall_ns, 1001001);
  EXPECT_EQ(fs.max_ns, 1000000);
  std::int64_t total = 0;
  for (const auto b : fs.hist) total += b;
  EXPECT_EQ(total, 3);
}

// ---- teleport messaging events ----------------------------------------------

TEST(ObsMessaging, SendAndDeliverEventsRecorded) {
  SKIP_WITHOUT_OBS();
  const auto make = [] {
    auto source =
        filter("numsrc")
            .rates(0, 0, 1)
            .iscalar("t", 0)
            .work(seq({let("t", v("t") + 1), push_(to_float(v("t")))}))
            .node();
    auto gain = filter("gain")
                    .rates(1, 1, 1)
                    .scalar("g", ir::Value(1.0))
                    .work(seq({push_(pop_() * v("g"))}))
                    .handler("setGain", {"x"}, seq({let("g", v("x"))}))
                    .node();
    auto monitor =
        filter("monitor")
            .rates(1, 1, 1)
            .work(seq({let("x", pop_()),
                       if_(v("x") == c(5.0),
                           ir::send("p", "setGain", {c(2.0).e}, 2, 2)),
                       push_(v("x"))}))
            .node();
    auto snk = filter("snk").rates(1, 1, 0).work(seq({discard(1)})).node();
    return ir::make_pipeline("rig", {source, gain, monitor, snk});
  };

  sched::ExecOptions opts;
  opts.trace = sched::TraceMode::On;
  msg::MessagingExecutor traced(make(), opts);
  traced.register_receiver("p", "gain");
  const auto out_traced = traced.run_steady(20);

  msg::MessagingExecutor plain(make());
  plain.register_receiver("p", "gain");
  expect_same_doubles(plain.run_steady(20), out_traced, "messaging output");

  ASSERT_EQ(traced.stats().sent, 1);
  ASSERT_EQ(traced.stats().delivered, 1);
  const obs::Recorder* rec = traced.executor().recorder();
  ASSERT_NE(rec, nullptr);
  int sends = 0, delivers = 0;
  for (const auto* tb : rec->buffers()) {
    for (const auto& ev : tb->events()) {
      if (ev.kind == obs::EventKind::MessageSend) ++sends;
      if (ev.kind == obs::EventKind::MessageDeliver) ++delivers;
    }
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(delivers, 1);
}

// ---- trace-mode resolution --------------------------------------------------

TEST(ObsTrace, ResolveTraceModes) {
  unsetenv("SIT_TRACE");
  EXPECT_FALSE(sched::resolve_trace(sched::TraceMode::Auto));
  EXPECT_FALSE(sched::resolve_trace(sched::TraceMode::Off));
  EXPECT_EQ(sched::resolve_trace(sched::TraceMode::On), obs::kCompiledIn);
  setenv("SIT_TRACE", "1", 1);
  EXPECT_EQ(sched::resolve_trace(sched::TraceMode::Auto), obs::kCompiledIn);
  EXPECT_FALSE(sched::resolve_trace(sched::TraceMode::Off));
  setenv("SIT_TRACE", "0", 1);
  EXPECT_FALSE(sched::resolve_trace(sched::TraceMode::Auto));
  setenv("SIT_TRACE", "on", 1);
  EXPECT_EQ(sched::resolve_trace(sched::TraceMode::Auto), obs::kCompiledIn);
  unsetenv("SIT_TRACE");
}

}  // namespace
}  // namespace sit
