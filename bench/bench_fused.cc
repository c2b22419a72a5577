// Fused-engine throughput: how close does the whole-program steady-state
// trace (sched::Engine::Fused) get to a handwritten loop nest?
//
//   bench_fused [--smoke] [--gate=<threshold-file>] [--out=BENCH_fused.json]
//
// For each app (FIR, Vocoder, FilterBank) we measure three implementations
// of the same computation:
//
//   handwritten  plain C++ loop nests over flat arrays -- same LCG source,
//                same coefficient formulas as apps/common.cc, no framework.
//                This is the performance ceiling.  It is written the way a
//                C programmer would write it (FilterBank skips band outputs
//                the decimator would discard), so the handwritten ratio
//                bounds interpreter overhead from below.
//   tree         sequential Executor, tree-walking interpreter
//   fused        sequential Executor, whole-program fused trace with
//                superinstructions on the dual-plane (unboxed
//                double/int64) register file
//
// BENCH_fused.json files that predate the deletion of the per-actor engine
// also carry a vm row and vs_vm ratios.
//
// Throughput is items emitted by the source actor per second, the same
// normalization as bench_scaling.  Results land in BENCH_fused.json
// (bench_util stamps git SHA / host provenance); the embedded metrics
// snapshot is the fused FIR run, so the JSON also records which
// superinstructions were selected, how many channels were lowered, and the
// typed_actors / typed_regs / typed_channels specialization counters.
//
// --gate reads a threshold from a checked-in file (bench/fused_gate.txt):
// the minimum fused/handwritten throughput ratio on FIR.  Exit is nonzero
// when it regresses.  The gate self-skips (exit 0, with a notice) on
// sanitizer builds -- instrumentation swamps dispatch cost -- and on
// single-cpu hosts where timer noise dominates.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "sched/exec.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SIT_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SIT_BENCH_SANITIZED 1
#endif
#endif
#ifndef SIT_BENCH_SANITIZED
#define SIT_BENCH_SANITIZED 0
#endif

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- handwritten reference kernels ------------------------------------------
//
// Identical arithmetic to the stream programs: the rand_source LCG and the
// windowed-sinc coefficient formulas from apps/common.cc, transcribed to
// plain C++.

struct Lcg {
  std::int64_t seed{42};
  double next() {
    seed = (seed * 1103515245 + 12345) & ((1LL << 31) - 1);
    return static_cast<double>(seed) / 2147483648.0 - 0.5;
  }
};

std::vector<double> lowpass_taps(int taps, double fc) {
  const double pi = std::numbers::pi;
  const double center = (taps - 1) / 2.0;
  std::vector<double> h(static_cast<std::size_t>(taps));
  for (int i = 0; i < taps; ++i) {
    const double x = (i - center) * 2.0 * pi * fc;
    const double s = x == 0.0 ? 2.0 * fc : 2.0 * fc * std::sin(x) / x;
    h[static_cast<std::size_t>(i)] =
        s * (0.54 - 0.46 * std::cos(2.0 * pi * i / (taps - 1)));
  }
  return h;
}

std::vector<double> bandpass_taps(int taps, double lo, double hi) {
  const double pi = std::numbers::pi;
  const double center = (taps - 1) / 2.0;
  const auto sinc_term = [&](int i, double f) {
    const double x = (i - center) * 2.0 * pi * f;
    return x == 0.0 ? 2.0 * f : 2.0 * f * std::sin(x) / x;
  };
  std::vector<double> h(static_cast<std::size_t>(taps));
  for (int i = 0; i < taps; ++i) {
    h[static_cast<std::size_t>(i)] = sinc_term(i, hi) - sinc_term(i, lo);
  }
  return h;
}

// Peek window: peek(0) is the oldest of the last N samples (N a power of
// two so the modulo folds to a mask).
template <int N>
struct Ring {
  static_assert((N & (N - 1)) == 0, "window sizes are powers of two");
  double buf[N] = {};
  unsigned pos = 0;  // next write slot; once full, also the oldest (mod N)
  void push(double x) {
    buf[pos % N] = x;
    ++pos;
  }
  double dot(const double* h) const {
    double s = 0.0;
    for (int i = 0; i < N; ++i) s += h[i] * buf[(pos + static_cast<unsigned>(i)) % N];
    return s;
  }
};

// FIR: LCG source -> 128-tap lowpass (fc 0.2) -> sink.
double handwritten_fir(std::int64_t items) {
  static const std::vector<double> h = lowpass_taps(128, 0.2);
  Lcg src;
  Ring<128> win;
  double acc = 0.0;
  for (std::int64_t n = 0; n < items; ++n) {
    win.push(src.next());
    acc += win.dot(h.data());
  }
  return acc;
}

// Vocoder: 8 32-tap bandpass bands over a shared window, summed, rectified,
// AGC'd, smoothed, then a 32-tap output lowpass.
double handwritten_vocoder(std::int64_t items) {
  static const std::vector<std::vector<double>> bands = [] {
    std::vector<std::vector<double>> hs;
    for (int b = 0; b < 8; ++b) {
      const double lo = 0.5 * b / 8;
      hs.push_back(bandpass_taps(32, lo, lo + 0.5 / 8));
    }
    return hs;
  }();
  static const std::vector<double> hout = lowpass_taps(32, 0.4);
  Lcg src;
  Ring<32> win;
  Ring<32> owin;
  double env = 0.1;
  double sm = 0.0;
  double acc = 0.0;
  for (std::int64_t n = 0; n < items; ++n) {
    win.push(src.next());
    double sum = 0.0;
    for (const auto& h : bands) sum += win.dot(h.data());
    const double r = std::fabs(sum);
    env = env * 0.95 + r * 0.05;
    const double g = r / (env + 0.01);
    sm = sm * 0.7 + g * 0.3;
    owin.push(sm);
    acc += owin.dot(hout.data());
  }
  return acc;
}

// FilterBank: per block of 8 inputs, each of 8 bands runs a 64-tap analysis
// bandpass, decimates by 8, zero-stuff upsamples by 8, and a 32-tap
// synthesis lowpass; bands are summed.  A C programmer only evaluates the
// analysis filter at the sample the decimator keeps.
double handwritten_filter_bank(std::int64_t blocks) {
  static const std::vector<std::vector<double>> analysis = [] {
    std::vector<std::vector<double>> hs;
    for (int b = 0; b < 8; ++b) {
      const double lo = 0.5 * b / 8;
      hs.push_back(bandpass_taps(64, lo, lo + 0.5 / 8));
    }
    return hs;
  }();
  static const std::vector<double> synthesis = lowpass_taps(32, 0.5 / 8);
  Lcg src;
  Ring<64> win;
  std::array<Ring<32>, 8> syn;
  double acc = 0.0;
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    double dec[8];
    for (int k = 0; k < 8; ++k) {
      win.push(src.next());
      if (k == 0) {
        for (int b = 0; b < 8; ++b) dec[b] = win.dot(analysis[static_cast<std::size_t>(b)].data());
      }
    }
    for (int j = 0; j < 8; ++j) {
      double out = 0.0;
      for (int b = 0; b < 8; ++b) {
        syn[static_cast<std::size_t>(b)].push(j == 0 ? dec[b] : 0.0);
        out += syn[static_cast<std::size_t>(b)].dot(synthesis.data());
      }
      acc += out;
    }
  }
  return acc;
}

// ---- measurement -------------------------------------------------------------

// Items the source actor emits per steady state (bench_scaling's
// normalization: invariant across engines and graph transformations).
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

template <typename Kernel>
double handwritten_rate(Kernel&& kernel, std::int64_t units, std::int64_t items_per_unit,
                        double min_ms, int max_calls) {
  volatile double sink = 0.0;
  const auto t0 = Clock::now();
  int calls = 0;
  do {
    sink = sink + kernel(units);
    ++calls;
  } while (ms_since(t0) < min_ms && calls < max_calls);
  const double ms = ms_since(t0);
  (void)sink;
  return ms > 0 ? 1000.0 * calls * units * items_per_unit / ms : 0.0;
}

// All numbers in the file, in order (comments stripped).  The first is the
// fused/handwritten floor.
std::vector<double> read_thresholds(const std::string& path) {
  std::vector<double> out;
  std::ifstream f(path);
  if (!f) return out;
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const char* p = line.c_str();
    char* end = nullptr;
    for (double v = std::strtod(p, &end); end != p;
         v = std::strtod(p, &end)) {
      out.push_back(v);
      p = end;
    }
  }
  return out;
}

struct BenchApp {
  const char* name;
  sit::ir::NodeP (*make)();
  double (*handwritten)(std::int64_t);  // checksum over `units` work units
  std::int64_t units;                   // work units per timed call
  std::int64_t items_per_unit;          // source items per work unit
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string gate_file;
  std::string out_path = "BENCH_fused.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--gate=", 7) == 0) {
      gate_file = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fused [--smoke] [--gate=<file>] [--out=<json>]\n");
      return 2;
    }
  }
  const int warm = smoke ? 2 : 8;
  const int batch = smoke ? 8 : 64;
  // Like bench_scaling: a gated smoke run needs enough wall time per
  // configuration for the ratio to be stable; ungated smoke just probes.
  const double min_ms = smoke ? (gate_file.empty() ? 0.0 : 100.0) : 300.0;
  const int max_batches = smoke ? (gate_file.empty() ? 1 : 200) : 400;

  const std::vector<BenchApp> benches = {
      {"FIR", [] { return sit::apps::make_fir_app(128); }, handwritten_fir,
       8192, 1},
      {"Vocoder", sit::apps::make_vocoder, handwritten_vocoder, 2048, 1},
      {"FilterBank", sit::apps::make_filter_bank, handwritten_filter_bank, 512,
       8},
  };
  const struct {
    const char* name;
    sit::sched::Engine engine;
  } engines[] = {
      {"tree", sit::sched::Engine::Tree},
      {"fused", sit::sched::Engine::Fused},
  };
  constexpr int kEngines = 2;

  std::vector<sit::bench::BenchRecord> records;
  sit::obs::MetricsSnapshot metrics;
  bool have_metrics = false;
  double fir_fused_over_hand = -1.0;

  std::printf("%-12s %-12s %14s %8s\n", "app", "engine", "items/s",
              "vs-hand");
  sit::bench::rule(51);
  for (const auto& b : benches) {
    const double hand = handwritten_rate(b.handwritten, b.units,
                                         b.items_per_unit, min_ms, max_batches);
    double rates[kEngines] = {0, 0};
    int typed_regs = 0;
    int typed_channels = 0;
    for (int e = 0; e < kEngines; ++e) {
      sit::sched::ExecOptions opts;
      opts.count_ops = false;
      opts.engine = engines[e].engine;
      sit::sched::Executor ex(b.make(), opts);
      const std::int64_t items =
          source_items_per_steady(ex.graph(), ex.schedule());
      ex.run_steady(warm);
      rates[e] = steadies_per_sec(ex, batch, min_ms, max_batches) *
                 static_cast<double>(items);
      if (engines[e].engine == sit::sched::Engine::Fused) {
        const sit::obs::MetricsSnapshot snap = ex.metrics_snapshot();
        typed_regs = snap.typed_regs;
        typed_channels = snap.typed_channels;
        if (!have_metrics) {
          // First fused run (FIR): carries fused_super /
          // fused_channels plus the typed specialization counters, the
          // provenance for the JSON.
          metrics = snap;
          metrics.app = b.name;
          have_metrics = true;
        }
      }
    }
    std::printf("%-12s %-12s %14.0f %8.2f\n", b.name, "handwritten", hand,
                1.0);
    records.push_back({std::string(b.name) + "/handwritten",
                       {{"items_per_sec", hand}, {"vs_handwritten", 1.0}}});
    for (int e = 0; e < kEngines; ++e) {
      const double vs_hand = hand > 0 ? rates[e] / hand : 0.0;
      std::printf("%-12s %-12s %14.0f %8.2f\n", b.name, engines[e].name,
                  rates[e], vs_hand);
      sit::bench::BenchRecord rec{std::string(b.name) + "/" + engines[e].name,
                                  {{"items_per_sec", rates[e]},
                                   {"vs_handwritten", vs_hand}}};
      if (engines[e].engine == sit::sched::Engine::Fused) {
        rec.metrics.emplace_back("typed_regs", typed_regs);
        rec.metrics.emplace_back("typed_channels", typed_channels);
      }
      records.push_back(std::move(rec));
      if (std::strcmp(b.name, "FIR") == 0 &&
          std::strcmp(engines[e].name, "fused") == 0) {
        fir_fused_over_hand = vs_hand;
      }
    }
    sit::bench::rule(51);
  }

  if (!sit::bench::write_bench_json(out_path, "fused_engine", records,
                                    have_metrics ? &metrics : nullptr,
                                    /*max_threads=*/1)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());

  if (!gate_file.empty()) {
    if (SIT_BENCH_SANITIZED) {
      std::printf("gate: skipped -- sanitizer build measures instrumentation, "
                  "not dispatch\n");
      return 0;
    }
    const unsigned cpus = std::thread::hardware_concurrency();
    if (cpus > 0 && cpus < 2) {
      std::printf("gate: skipped -- single-cpu host, timer noise dominates\n");
      return 0;
    }
    const std::vector<double> thresholds = read_thresholds(gate_file);
    if (thresholds.empty() || thresholds[0] <= 0.0) {
      std::fprintf(stderr, "gate: unreadable threshold file %s\n",
                   gate_file.c_str());
      return 2;
    }
    const bool pass = fir_fused_over_hand >= thresholds[0];
    std::printf("gate: FIR fused/handwritten = %.2f (>= %.2f) %s\n",
                fir_fused_over_hand, thresholds[0], pass ? "ok" : "FAIL");
    if (!pass) {
      std::fprintf(stderr, "gate: fused engine regressed below %s\n",
                   gate_file.c_str());
      return 1;
    }
  }
  return 0;
}
