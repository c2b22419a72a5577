// Execution-engine microbenchmarks: tree-walking interpreter vs typed
// execution on the hot work functions of the paper's evaluation apps (their
// one-actor traces, runtime/fused.h) and on whole-program steady states
// (the compiled engine, Engine::Fused).
//
// Two modes:
//   * default: google-benchmark micros (pass the usual --benchmark_* flags),
//     followed by the engine-comparison table and BENCH_interp.json;
//   * --smoke: skip the micros and run a quick, low-rep comparison only --
//     CI uses this to assert both engines stay healthy in Release builds.
//
// The JSON records per configuration: tree_ms, vm_ms (per measured unit) and
// speedup = tree_ms / vm_ms.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ir/dsl.h"
#include "opt/compile.h"
#include "runtime/channel.h"
#include "runtime/compile.h"
#include "runtime/interp.h"
#include "runtime/fused.h"
#include "sched/exec.h"

namespace {

using namespace sit::ir::dsl;  // NOLINT
using sit::ir::FilterSpec;
using sit::runtime::Channel;
using sit::runtime::FilterState;
using sit::runtime::Interp;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pull a leaf filter's spec out of an app graph by name.
FilterSpec find_spec(const sit::ir::NodeP& root, const std::string& name) {
  const sit::ir::FilterSpec* found = nullptr;
  sit::ir::visit(root, [&](const sit::ir::NodeP& n) {
    if (n->kind == sit::ir::Node::Kind::Filter && n->filter.name == name) {
      found = &n->filter;
    }
  });
  if (found == nullptr) throw std::runtime_error("no filter named " + name);
  return *found;
}

// A stateful feedback (IIR) filter: two poles of history, nothing linear to
// exploit -- pure engine overhead.
FilterSpec iir_spec() {
  return filter("iir2")
      .rates(1, 1, 1)
      .scalar("y1", sit::ir::Value(0.0))
      .scalar("y2", sit::ir::Value(0.0))
      .work({let("y", pop_() + v("y1") * c(1.2) - v("y2") * c(0.5)),
             let("y2", v("y1")), let("y1", v("y")), push_(v("y"))})
      .build();
}

// ---- single-filter firing loops ---------------------------------------------

// `spec`'s one-actor trace, bound to `st` (already initialized) and
// activated for the life of the measurement.
std::unique_ptr<sit::runtime::FilterExec> bind_typed(const FilterSpec& spec,
                                                      FilterState& st) {
  auto fx = sit::runtime::FilterExec::make(
      sit::ir::make_filter(spec), sit::runtime::compile_filter(spec), st);
  if (!fx || !fx->activate()) {
    throw std::runtime_error(spec.name + ": did not specialize");
  }
  return fx;
}

// Time `firings` work invocations against prefilled channels; returns
// best-of-`reps` milliseconds.  `vm` selects the engine.
double time_filter(const FilterSpec& spec, bool vm, int firings, int reps) {
  const int window = std::max(spec.peek, spec.pop);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    FilterState st = Interp::init_state(spec);
    const auto bound = vm ? bind_typed(spec, st) : nullptr;
    Channel in, out;
    std::vector<double> feed(static_cast<std::size_t>(firings * spec.pop + window));
    for (std::size_t i = 0; i < feed.size(); ++i) {
      feed[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
    }
    in.push_many(feed);
    out.reserve_items(static_cast<std::size_t>(firings * spec.push));
    const double t0 = now_ms();
    if (vm) {
      for (int f = 0; f < firings; ++f) bound->fire(in, out, nullptr);
    } else {
      for (int f = 0; f < firings; ++f) {
        Interp::run_work(spec, st, in, out, nullptr);
      }
    }
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

// ---- whole-app steady states ------------------------------------------------

double time_app(const std::string& app, sit::sched::Engine engine, int steadies,
                int reps, bool count_ops) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    sit::sched::ExecOptions opt;
    opt.engine = engine;
    opt.count_ops = count_ops;
    sit::sched::Executor ex(sit::apps::make_app(app), opt);
    ex.run_init();
    ex.take_output();
    const double t0 = now_ms();
    ex.run_steady(steadies);
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

// ---- the comparison table + JSON --------------------------------------------

struct Config {
  std::string name;
  // Measures one engine in milliseconds (true = typed/compiled).
  std::function<double(bool)> run;
};

std::vector<Config> make_configs(bool smoke) {
  const int firings = smoke ? 2'000 : 200'000;
  const int steadies = smoke ? 4 : 400;
  const int reps = smoke ? 2 : 5;
  std::vector<Config> cfg;
  const FilterSpec fir = find_spec(sit::apps::make_app("FIR"), "fir");
  const FilterSpec agc = find_spec(sit::apps::make_app("Vocoder"), "agc");
  const FilterSpec band = find_spec(sit::apps::make_app("Vocoder"), "vband0");
  const FilterSpec iir = iir_spec();
  cfg.push_back({"fir128_work",
                 [=](bool vm) { return time_filter(fir, vm, firings / 50, reps); }});
  cfg.push_back({"vocoder_band_work",
                 [=](bool vm) { return time_filter(band, vm, firings / 20, reps); }});
  cfg.push_back({"vocoder_agc_work",
                 [=](bool vm) { return time_filter(agc, vm, firings, reps); }});
  cfg.push_back({"iir_feedback_work",
                 [=](bool vm) { return time_filter(iir, vm, firings, reps); }});
  cfg.push_back({"FIR_steady", [=](bool vm) {
                   return time_app("FIR", vm ? sit::sched::Engine::Fused
                                             : sit::sched::Engine::Tree,
                                   steadies, reps, false);
                 }});
  cfg.push_back({"Vocoder_steady", [=](bool vm) {
                   return time_app("Vocoder", vm ? sit::sched::Engine::Fused
                                                 : sit::sched::Engine::Tree,
                                   steadies, reps, false);
                 }});
  cfg.push_back({"FIR_steady_counted", [=](bool vm) {
                   return time_app("FIR", vm ? sit::sched::Engine::Fused
                                             : sit::sched::Engine::Tree,
                                   steadies, reps, true);
                 }});
  return cfg;
}

int run_comparison(bool smoke) {
  std::printf("Execution engines: tree interpreter vs typed VM%s\n",
              smoke ? " (smoke)" : "");
  sit::bench::rule(72);
  std::printf("%-24s %12s %12s %10s\n", "config", "tree ms", "vm ms", "speedup");
  sit::bench::rule(72);
  std::vector<sit::bench::BenchRecord> records;
  bool sane = true;
  for (const auto& cfg : make_configs(smoke)) {
    const double tree_ms = cfg.run(false);
    const double vm_ms = cfg.run(true);
    const double speedup = vm_ms > 0.0 ? tree_ms / vm_ms : 0.0;
    std::printf("%-24s %12.3f %12.3f %9.2fx\n", cfg.name.c_str(), tree_ms,
                vm_ms, speedup);
    records.push_back({cfg.name,
                       {{"tree_ms", tree_ms},
                        {"vm_ms", vm_ms},
                        {"speedup", speedup}}});
    if (!(tree_ms >= 0.0) || !(vm_ms > 0.0)) sane = false;
  }
  sit::bench::rule(72);
  // One short traced run (outside the timed sections) gives the JSON
  // per-actor wall-ns attribution alongside the end-to-end ratios.  The run
  // goes through the pass pipeline (SIT_OPT / SIT_PASSES select it) so the
  // snapshot also carries the active pipeline spec and per-pass stats.
  sit::opt::CompileOptions copts;
  copts.exec.engine = sit::sched::Engine::Fused;
  sit::sched::ExecOptions mopts;
  mopts.trace = sit::sched::TraceMode::On;
  sit::sched::Executor mex(sit::opt::compile(sit::apps::make_app("FIR"), copts),
                           mopts);
  mex.run_steady(smoke ? 2 : 8);
  sit::obs::MetricsSnapshot metrics = mex.metrics_snapshot();
  metrics.app = "FIR";
  if (!sit::bench::write_bench_json("BENCH_interp.json", "interp", records,
                                    &metrics)) {
    std::fprintf(stderr, "failed to write BENCH_interp.json\n");
    return 1;
  }
  std::printf("wrote BENCH_interp.json\n");
  return sane ? 0 : 1;
}

// ---- google-benchmark micros (full mode only) -------------------------------

void register_micros() {
  static const FilterSpec fir = find_spec(sit::apps::make_app("FIR"), "fir");
  static const FilterSpec agc = find_spec(sit::apps::make_app("Vocoder"), "agc");
  static const FilterSpec iir = iir_spec();
  struct Item {
    const char* name;
    const FilterSpec* spec;
  };
  for (const Item& item : {Item{"fir128", &fir}, Item{"vocoder_agc", &agc},
                           Item{"iir_feedback", &iir}}) {
    for (const bool vm : {false, true}) {
      const std::string bname =
          std::string("BM_work/") + item.name + (vm ? "/vm" : "/tree");
      const FilterSpec* spec = item.spec;
      benchmark::RegisterBenchmark(bname.c_str(), [spec, vm](benchmark::State& s) {
        FilterState st = Interp::init_state(*spec);
        const auto bound = vm ? bind_typed(*spec, st) : nullptr;
        Channel in, out;
        const int window = std::max(spec->peek, spec->pop);
        for (auto _ : s) {
          s.PauseTiming();
          std::vector<double> feed(static_cast<std::size_t>(spec->pop + window));
          for (std::size_t i = 0; i < feed.size(); ++i) feed[i] = 0.5;
          in.push_many(feed);
          while (!out.empty()) out.pop_item();
          s.ResumeTiming();
          if (vm) {
            bound->fire(in, out, nullptr);
          } else {
            Interp::run_work(*spec, st, in, out, nullptr);
          }
        }
      });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (smoke) return run_comparison(true);

  benchmark::Initialize(&argc, argv);
  register_micros();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_comparison(false);
}
