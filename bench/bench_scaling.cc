// Threaded-runtime scaling: the canonical speedup-vs-threads harness.
//
//   bench_scaling [--smoke] [--threads=1,2,4,8] [--gate=<threshold-file>]
//                 [--out=BENCH_parallel.json]
//
// For each app (FIR, FilterBank, FMRadio) we measure the best sequential
// configuration (the -O2 compile on the fused engine, a plain Executor),
// then the batched ThreadedExecutor on the
// coarsen-shaped graph (pipeline "validate,analysis-gate,coarsen"; batch
// factor from SIT_BATCH, default auto) for each requested thread count.
// Throughput is normalized to items emitted by the graph's *source* actor
// per second, which is invariant under fusion/fission (the stateful source
// is never replicated), so rows are comparable even though each transformed
// graph has its own steady state.
//
// Writes BENCH_parallel.json (bench_util stamps git SHA / engine / host; the
// host block carries "authoritative": false when the sweep asked for more
// workers than the host has cpus, so trajectory tooling can refuse the
// numbers).
//
// --gate reads a minimum speedup(maxT)/speedup(1) ratio from a checked-in
// threshold file and exits nonzero when any app regresses below it.  The
// gate is skipped (exit 0, with a notice) on hosts with fewer cpus than the
// largest measured thread count: an oversubscribed run measures scheduler
// contention, not the runtime.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "opt/compile.h"
#include "sched/texec.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Items the source actor emits per steady state of this particular graph.
std::int64_t source_items_per_steady(const sit::runtime::FlatGraph& g,
                                     const sit::sched::Schedule& s) {
  if (s.input_per_steady > 0) return s.input_per_steady;
  for (std::size_t i = 0; i < g.actors.size(); ++i) {
    const auto& a = g.actors[i];
    bool has_in = false;
    for (int e : a.in_edges) has_in |= e >= 0;
    if (!has_in) return s.reps[i] * a.push_rate();
  }
  return 0;
}

// Run batches of steady states until `min_ms` of wall time accumulates;
// returns steady states per second.
template <typename Ex>
double steadies_per_sec(Ex& ex, int batch, double min_ms, int max_batches) {
  const auto t0 = Clock::now();
  int batches = 0;
  do {
    ex.run_steady(batch);
    ++batches;
  } while (ms_since(t0) < min_ms && batches < max_batches);
  const double ms = ms_since(t0);
  return ms > 0 ? 1000.0 * batches * batch / ms : 0.0;
}

struct BenchApp {
  const char* name;
  sit::ir::NodeP (*make)();
};

std::vector<int> parse_threads(const char* csv) {
  std::vector<int> out;
  for (const char* p = csv; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v >= 1) out.push_back(static_cast<int>(v));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

// The gate threshold file holds one number: the minimum acceptable
// speedup(maxT)/speedup(1) ratio (comments after '#' ignored).
double read_threshold(const std::string& path) {
  std::ifstream f(path);
  if (!f) return -1.0;
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    char* end = nullptr;
    const double v = std::strtod(line.c_str(), &end);
    if (end != line.c_str()) return v;
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string gate_file;
  std::string out_path = "BENCH_parallel.json";
  std::vector<int> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = parse_threads(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--gate=", 7) == 0) {
      gate_file = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--smoke] [--threads=1,2,4] "
                   "[--gate=<file>] [--out=<json>]\n");
      return 2;
    }
  }
  if (thread_counts.empty()) {
    std::fprintf(stderr, "bench_scaling: empty --threads list\n");
    return 2;
  }
  const int max_threads =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  const int warm = smoke ? 2 : 8;
  const int batch = smoke ? 4 : 16;
  // A gated smoke run still needs enough wall time per configuration for the
  // speedup ratio to be stable; ungated smoke is a pure does-it-run probe.
  const double min_ms = smoke ? (gate_file.empty() ? 0.0 : 100.0) : 300.0;
  const int max_batches = smoke ? (gate_file.empty() ? 1 : 100) : 200;

  const std::vector<BenchApp> benches = {
      {"FIR", [] { return sit::apps::make_fir_app(128); }},
      {"FilterBank", [] { return sit::apps::make_filter_bank(); }},
      {"FMRadio", [] { return sit::apps::make_fm_radio(); }},
  };

  std::vector<sit::bench::BenchRecord> records;
  // speedups[app][threads] feeds the regression gate.
  std::map<std::string, std::map<int, double>> speedups;
  // Per-actor/worker attribution for the last threaded configuration,
  // stamped into the JSON so the perf trajectory can see inside the rates.
  sit::obs::MetricsSnapshot metrics;
  bool have_metrics = false;
  std::printf("%-12s %8s %14s %9s %10s %6s %6s\n", "app", "threads", "items/s",
              "speedup", "predicted", "rings", "batch");
  sit::bench::rule(72);

  for (const auto& b : benches) {
    sit::sched::ExecOptions seq_opts;
    seq_opts.count_ops = false;
    seq_opts.engine = sit::sched::Engine::Fused;
    sit::opt::CompileOptions seq_copts;
    seq_copts.level = sit::opt::OptLevel::O2;
    sit::sched::Executor seq(sit::opt::compile(b.make(), seq_copts), seq_opts);
    const std::int64_t seq_items =
        source_items_per_steady(seq.graph(), seq.schedule());
    seq.run_steady(warm);
    const double seq_rate =
        steadies_per_sec(seq, batch, min_ms, max_batches) *
        static_cast<double>(seq_items);
    std::printf("%-12s %8s %14.0f %9s %10s %6s %6s\n", b.name, "seq", seq_rate,
                "1.00", "-", "-", "-");
    records.push_back({std::string(b.name) + "/seq",
                       {{"threads", 1.0}, {"items_per_sec", seq_rate},
                        {"speedup", 1.0}}});

    for (int t : thread_counts) {
      sit::sched::ExecOptions opts;
      opts.count_ops = false;
      opts.engine = sit::sched::Engine::Fused;
      opts.threads = t;
      // Compile through the pipeline's coarsen pass (fuse-then-fiss to ~one
      // well-sized actor per worker) so the artifact records the pipeline
      // and per-pass stats for the JSON's metrics snapshot.
      sit::opt::CompileOptions copts;
      copts.passes = "validate,analysis-gate,coarsen";
      copts.exec.threads = t;
      sit::sched::ThreadedExecutor tex(sit::opt::compile(b.make(), copts),
                                       opts);
      const std::int64_t items =
          source_items_per_steady(tex.graph(), tex.schedule());
      tex.run_steady(warm);  // init + placement plan + first threaded steps
      const double rate = steadies_per_sec(tex, batch, min_ms, max_batches) *
                          static_cast<double>(items);
      const auto& rep = tex.report();
      const double speedup = seq_rate > 0 ? rate / seq_rate : 0.0;
      speedups[b.name][t] = speedup;
      // Sequential fallbacks never run the partitioner, so the report's
      // predicted_speedup is an uninitialized-looking 0; a one-thread run
      // trivially predicts 1x.
      const double predicted = rep.threaded ? rep.predicted_speedup : 1.0;
      std::printf("%-12s %8d %14.0f %9.2f %10.2f %6d %6d\n", b.name, t, rate,
                  speedup, predicted, rep.ring_edges, rep.batch);
      records.push_back(
          {std::string(b.name) + "/t" + std::to_string(t),
           {{"threads", static_cast<double>(t)},
            {"items_per_sec", rate},
            {"speedup", speedup},
            {"predicted_speedup", predicted},
            {"threaded", rep.threaded ? 1.0 : 0.0},
            {"batch", static_cast<double>(rep.batch)},
            {"ring_edges", static_cast<double>(rep.ring_edges)}}});
      if (rep.threaded) {
        metrics = tex.metrics_snapshot();
        metrics.app = b.name;
        have_metrics = true;
      }
    }
    sit::bench::rule(72);
  }

  if (!sit::bench::write_bench_json(out_path, "parallel_scaling", records,
                                    have_metrics ? &metrics : nullptr,
                                    max_threads)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());

  if (!gate_file.empty()) {
    const unsigned cpus = std::thread::hardware_concurrency();
    if (cpus > 0 && static_cast<int>(cpus) < max_threads) {
      std::printf("gate: skipped -- %u-cpu host cannot run %d workers "
                  "authoritatively\n", cpus, max_threads);
      return 0;
    }
    const double threshold = read_threshold(gate_file);
    if (threshold <= 0.0) {
      std::fprintf(stderr, "gate: unreadable threshold file %s\n",
                   gate_file.c_str());
      return 2;
    }
    bool ok = true;
    for (const auto& [app, by_threads] : speedups) {
      const auto s1 = by_threads.find(1);
      const auto sN = by_threads.find(max_threads);
      if (s1 == by_threads.end() || sN == by_threads.end() ||
          s1->second <= 0.0) {
        std::fprintf(stderr, "gate: %s missing t=1 or t=%d row\n", app.c_str(),
                     max_threads);
        ok = false;
        continue;
      }
      const double ratio = sN->second / s1->second;
      const bool pass = ratio >= threshold;
      std::printf("gate: %-12s speedup(%d)/speedup(1) = %.2f (>= %.2f) %s\n",
                  app.c_str(), max_threads, ratio, threshold,
                  pass ? "ok" : "FAIL");
      ok = ok && pass;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "gate: threaded scaling regressed below %s\n",
                   gate_file.c_str());
      return 1;
    }
  }
  return 0;
}
