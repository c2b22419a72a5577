// End-to-end benchmark of the compiler and runtime on the 17 application
// bodies.
//
//   perfbench --workload <seq-O0|seq-O2|threads-O2> --seed <n> --seconds <s>
//             --trace <0|1> [--git-sha <sha>] [--spans-out <path>]
//
// Each app of apps::all_apps() is a pipeline rand_source -> body -> null_sink.
// The benchmark drops the source and the sink, feeds the body seeded input
// through feed_input, and reads the real outputs run_steady returns.  Every
// program goes through opt::compile at an explicit -O level.  One caller
// drives each executor in a closed loop: feed one chunk of about 4096 source
// items, call run_steady, wait for it to return, repeat.
//
// Before anything is timed, the tree interpreter runs the uncompiled body
// (sched::lower, no passes) on a prefix of the same input: the output oracle.
// -O0 outputs must be bit-equal to it, -O2 outputs within kRelTol of it.
//
// Throughput and set-up times are scaled to a nominal host speed measured by
// a fixed reference loop around each timed interval (see HostRef).
//
// --trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
// and traced slices of the timed loop and reports per-layer numbers, with
// self times from the benchmark's own spans around each call into a layer.
// The program's own tracing stays off, except for one extra run per threaded
// app that reads the worker wait share.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (everything this binary computes; perfbench/run.py keeps the
// declared ones).  Exit code 2 means the run was refused (environment, build
// type or usage) and nothing was measured.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "obs/costmodel.h"
#include "opt/compile.h"
#include "sched/exec.h"
#include "sched/texec.h"

// Sanitizer detection, as in bench/bench_fused.cc.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif
#ifdef __OPTIMIZE__
#define PERFBENCH_OPTIMIZED 1
#else
#define PERFBENCH_OPTIMIZED 0
#endif

namespace {

using namespace sit;
using Clock = std::chrono::steady_clock;

// Source items per run_steady call, rounded up to whole steady states.
constexpr std::int64_t kChunkItems = 4096;
// Chunks run before timing; their outputs are compared with the oracle.
// The first also carries the init epoch's input.
constexpr int kCheckChunks = 2;
// Source items the oracle runs (plus init, rounded up to whole steady
// states).  The tree interpreter is slow; a prefix is enough to catch a
// wrong rewrite.
constexpr std::int64_t kOracleItems = 1024;
// Distinct pre-generated input chunks; the timed loop cycles through them.
constexpr int kPoolChunks = 8;
// Compile + build repetitions per run, spread over the run; setup_s takes
// each app's median.  A fixed count, so that peak_rss_mb (which the -O2
// leaks grow) does not depend on timing.
constexpr int kSetupReps = 5;
// The timed loop visits every app this many times, so that a burst of host
// noise is shared by all apps instead of landing on one.
constexpr int kRounds = 16;
// -O2 tolerance: |got - ref| <= kRelTol * max |ref| over the checked prefix.
// The linear passes reassociate floating-point sums, so -O2 is not bit-equal
// (the largest error seen on the 17 apps is about 2e-15).
constexpr double kRelTol = 1e-9;
// The second seed every run also checks against the oracle.
constexpr std::uint64_t kSeed2Mix = 0x9e3779b97f4a7c15ULL;

// Variables that would silently change what is measured.
constexpr std::array<const char*, 9> kRefusedEnv = {
    "SIT_OPT",     "SIT_PASSES", "SIT_ENGINE", "SIT_TYPED", "SIT_BATCH",
    "SIT_THREADS", "SIT_COST",   "SIT_TRACE",  "SIT_VERIFY"};

struct Workload {
  const char* name;
  opt::OptLevel level;
  bool threaded;
  std::vector<std::string> apps;  // empty = all 17
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"seq-O0", opt::OptLevel::O0, false, {}},
      {"seq-O2", opt::OptLevel::O2, false, {}},
      {"threads-O2", opt::OptLevel::O2, true,
       {"FIR", "FilterBank", "FMRadio", "Radar", "Vocoder"}},
  };
  return w;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

// ---- host speed reference ---------------------------------------------------
//
// On a shared host the machine's speed for the same work moves between about
// 1x, 1.5x and 2.4x slower, in phases of seconds to minutes (measured on a
// 4-vCPU VM; thread CPU time slows with wall time, so it is contention for
// the cores, not stolen time).  A whole run can fall in a slow phase, and no
// statistic over its own samples undoes that.  So every timed slice and
// every set-up is bracketed by runs of a fixed reference loop, and each time
// is divided by the reference time measured around it.  Times are reported
// as that ratio times kRefNominalMs, the reference loop's time on the
// uncontended host: what the work would take if the host ran at that speed.
//
// The loop is a small switch-dispatched interpreter and a multiply-add filter
// over a few KB of doubles, the kind of work the VM and the fused traces do.
// It calls nothing from src/, so no change to the program under test moves it.

// The reference loop's time on the uncontended 4-vCPU VM (its fastest runs).
constexpr double kRefNominalMs = 0.25;
// Reference runs per measurement; the fastest is kept.
constexpr int kRefRuns = 3;

class HostRef {
 public:
  HostRef() : x_(kLen), ops_(kLen) {
    std::mt19937_64 gen(12345);
    for (double& v : x_) v = static_cast<double>(gen() >> 11) * 0x1p-53 - 0.5;
    // A short repeating program, like a steady-state trace.
    constexpr std::array<std::uint8_t, 13> prog = {0, 1, 2, 0, 3, 4, 1,
                                                   5, 2, 6, 0, 7, 3};
    for (std::size_t i = 0; i < kLen; ++i) ops_[i] = prog[i % prog.size()];
  }

  // Fastest of kRefRuns runs, in ms.
  double measure_ms() {
    double best = 0.0;
    for (int r = 0; r < kRefRuns; ++r) {
      const auto t0 = Clock::now();
      sink_ = sink_ + run_once();
      const double t = ms(Clock::now() - t0);
      if (r == 0 || t < best) best = t;
    }
    return best;
  }

 private:
  static constexpr std::size_t kLen = 2048;
  static constexpr int kPasses = 24;
  static constexpr std::size_t kTaps = 16;

  double run_once() const {
    double acc = 0.0;
    double reg = 1.0;
    for (int p = 0; p < kPasses; ++p) {
      for (std::size_t i = 0; i < kLen; ++i) {
        const double v = x_[i];
        switch (ops_[i]) {
          case 0: acc += v * reg; break;
          case 1: reg = reg * 0.999 + v; break;
          case 2: acc -= v; break;
          case 3: reg = std::fabs(reg) < 8.0 ? reg + 0.5 * v : 0.25; break;
          case 4: acc = acc * 0.5 + reg; break;
          case 5: reg = v > 0.0 ? reg - v : reg * 1.001; break;
          case 6: acc += static_cast<double>(static_cast<int>(v * 64.0)); break;
          default: reg = reg * v + 1.0; break;
        }
      }
      for (std::size_t i = 0; i + kTaps < kLen; ++i) {
        double s = 0.0;
        for (std::size_t k = 0; k < kTaps; ++k) s += x_[i + k] * x_[k];
        acc += s;
      }
    }
    return acc + reg;
  }

  std::vector<double> x_;
  std::vector<std::uint8_t> ops_;
  volatile double sink_{0.0};
};

// ---- spans ------------------------------------------------------------------
//
// The benchmark's own trace: one span per call into a layer, kept in memory
// and written out when the run ends.  `parent` indexes the enclosing span
// (-1 for roots); `app` and `seq` (set-up rep or chunk number) identify the
// request a span belongs to.

struct Span {
  std::string name;
  int parent{-1};
  int app{-1};
  int seq{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  [[nodiscard]] bool on() const { return on_; }

  // Record a finished span; returns its index (-1 when off).
  int add(std::string name, int parent, int app, int seq, std::int64_t start,
          std::int64_t end) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), parent, app, seq, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Start a span that close() ends.
  int open(std::string name, int parent, int app, int seq) {
    return add(std::move(name), parent, app, seq, ns(Clock::now()), 0);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  }

  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

  // Self time of every span: its duration minus the time its children cover.
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                   child[i]) /
               1e6;
    }
    return out;
  }

  // One JSON object per line.
  bool write(const std::string& path,
             const std::vector<std::string>& app_names) const {
    std::ofstream f(path);
    if (!f) return false;
    for (const Span& s : spans_) {
      f << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent
        << ",\"app\":\""
        << (s.app >= 0 ? app_names[static_cast<std::size_t>(s.app)] : "")
        << "\",\"seq\":" << s.seq << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ---- programs under test ----------------------------------------------------

// The app's root pipeline minus its first child (rand_source, named "src")
// and its last (null_sink, named "snk").
ir::NodeP program_body(const apps::AppInfo& app) {
  const ir::NodeP root = app.make();
  const auto& kids = root->children;
  if (root->kind != ir::Node::Kind::Pipeline || kids.size() < 3 ||
      kids.front()->kind != ir::Node::Kind::Filter ||
      kids.front()->filter.name != "src" || !kids.front()->filter.is_source() ||
      kids.back()->kind != ir::Node::Kind::Filter ||
      kids.back()->filter.name != "snk" || !kids.back()->filter.is_sink()) {
    throw std::runtime_error("root is not src -> body -> snk");
  }
  return ir::make_pipeline(root->name, {kids.begin() + 1, kids.end() - 1});
}

// Seeded input stream in [-0.5, 0.5), the range rand_source produces.
// mt19937_64 is fully specified by the standard, so a seed gives the same
// items everywhere.
std::vector<double> make_input(std::uint64_t seed, std::size_t app_index,
                               std::size_t n) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(app_index)};
  std::mt19937_64 gen(seq);
  std::vector<double> v(n);
  for (double& x : v) x = static_cast<double>(gen() >> 11) * 0x1p-53 - 0.5;
  return v;
}

// The oracle: the tree interpreter on the uncompiled body, over the first
// kOracleItems items of `input` (plus its init epoch's).
std::vector<double> reference_outputs(const ir::NodeP& body,
                                      const std::vector<double>& input) {
  sched::ExecOptions o;
  o.engine = sched::Engine::Tree;
  o.typed = sched::TypedMode::Off;
  o.trace = sched::TraceMode::Off;
  o.count_ops = false;
  sched::Executor ex(sched::lower(body), o);
  const sched::Schedule& s = ex.schedule();
  const std::int64_t iters =
      (kOracleItems + s.input_per_steady - 1) / s.input_per_steady;
  const std::int64_t n = s.input_for_init + iters * s.input_per_steady;
  if (n > static_cast<std::int64_t>(input.size())) {
    throw std::runtime_error("oracle input too short");
  }
  ex.feed_input({input.begin(), input.begin() + n});
  return ex.run_steady(static_cast<int>(iters));
}

// Compare the oracle's outputs with the first outputs of the program.
// Returns "" when they match.
std::string check_outputs(const std::vector<double>& got,
                          const std::vector<double>& ref, bool exact,
                          double* max_rel) {
  if (ref.empty()) return "the oracle produced no outputs";
  if (got.size() < ref.size()) {
    return "only " + std::to_string(got.size()) + " outputs, oracle has " +
           std::to_string(ref.size());
  }
  double scale = 0.0;
  for (double r : ref) scale = std::max(scale, std::fabs(r));
  if (scale == 0.0) scale = 1.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (exact) {
      if (std::bit_cast<std::uint64_t>(got[i]) !=
          std::bit_cast<std::uint64_t>(ref[i])) {
        return "output " + std::to_string(i) + " is not bit-equal";
      }
      continue;
    }
    const double rel = std::fabs(got[i] - ref[i]) / scale;
    if (!(rel <= kRelTol)) {
      return "output " + std::to_string(i) + " off by " + std::to_string(rel) +
             " of peak";
    }
    *max_rel = std::max(*max_rel, rel);
  }
  return "";
}

// One executor of either kind.
struct Runner {
  std::unique_ptr<sched::Executor> seq;
  std::unique_ptr<sched::ThreadedExecutor> thr;

  void feed(const std::vector<double>& v) {
    if (seq) {
      seq->feed_input(v);
    } else {
      thr->feed_input(v);
    }
  }
  std::vector<double> steady(int n) {
    return seq ? seq->run_steady(n) : thr->run_steady(n);
  }
  [[nodiscard]] const sched::Schedule& schedule() const {
    return seq ? seq->schedule() : thr->schedule();
  }
  [[nodiscard]] obs::MetricsSnapshot snapshot() const {
    return seq ? seq->metrics_snapshot() : thr->metrics_snapshot();
  }
};

Runner build_runner(sched::CompiledProgram prog, const sched::ExecOptions& o,
                    bool threaded) {
  Runner r;
  if (threaded) {
    r.thr = std::make_unique<sched::ThreadedExecutor>(std::move(prog), o);
  } else {
    r.seq = std::make_unique<sched::Executor>(std::move(prog), o);
  }
  return r;
}

// Every execution option pinned, so no environment default leaks in.
struct RunConfig {
  opt::CompileOptions compile;
  sched::ExecOptions exec;
  bool threaded{false};
};

RunConfig make_config(const Workload& w, int workers) {
  RunConfig c;
  c.threaded = w.threaded;
  c.exec.count_ops = true;
  c.exec.engine = sched::Engine::Fused;
  c.exec.typed = sched::TypedMode::On;
  c.exec.threads = w.threaded ? workers : 1;
  c.exec.batch = -1;  // the auto heuristic, explicitly
  c.exec.trace = sched::TraceMode::Off;
  c.exec.stall_ms = 120000;
  c.compile.level = w.level;
  c.compile.exec = c.exec;
  c.compile.pass.threads = c.exec.threads;
  c.compile.pass.verify_each = opt::VerifyMode::Off;
  return c;
}

// Counts that must repeat exactly across builds, runs and seeds.
struct Counts {
  std::string fused{"-"};        // "admitted" or "refused:<reason>"
  std::string typed_fused{"-"};  // "admitted" or "refused:<reason>"
  std::int64_t trace_len{0};
  int typed_actors{0};
  int actors_after{0};
  std::string sched{"sequential"};  // "threaded" or "fallback:<reason>"
  int ring_edges{0};
  int batch{0};

  [[nodiscard]] std::string str() const {
    return "fused=" + fused + " typed_fused=" + typed_fused +
           " trace_len=" + std::to_string(trace_len) +
           " typed_actors=" + std::to_string(typed_actors) +
           " actors_after=" + std::to_string(actors_after) + " sched=" + sched +
           " ring_edges=" + std::to_string(ring_edges) +
           " batch=" + std::to_string(batch);
  }
};

// The sequential executor's fusion decisions are visible directly; the
// threaded one reports only its own placement (fallback apps run an
// embedded sequential executor it does not expose).
Counts counts_of(const Runner& r, const sched::CompiledProgram& prog) {
  Counts c;
  c.typed_actors = r.snapshot().typed_actors;
  c.actors_after = prog.passes.empty() ? -1 : prog.passes.back().actors_after;
  if (r.seq) {
    const sched::Executor& e = *r.seq;
    c.fused = e.fused_program() ? "admitted" : "refused:" + e.fused_refusal();
    c.typed_fused = e.typed_fused_program()
                        ? "admitted"
                        : "refused:" + e.typed_fused_refusal();
    c.trace_len = e.fused_program()
                      ? static_cast<std::int64_t>(e.fused_program()->code.size())
                      : 0;
  } else {
    const sched::ThreadedReport& rep = r.thr->report();
    c.sched = rep.threaded ? "threaded"
                           : std::string("fallback:") +
                                 sched::to_string(rep.fallback);
    c.ring_edges = rep.ring_edges;
    c.batch = rep.threaded ? rep.batch : 0;
  }
  return c;
}

struct App {
  std::string name;
  ir::NodeP body;
  bool alive{true};

  // Set-up (last rep's program and executor are measured).
  sched::CompiledProgram prog;
  Runner runner;
  std::vector<double> compile_ms, build_ms;
  Counts built;     // as built (rep 0), before any steady state
  Counts counts;    // after the checked chunks, seed A
  Counts counts_b;  // after the checked chunks, second seed

  // Input: chunks[0] also carries the init epoch's input.
  int iters{0};  // steady states per chunk
  std::int64_t chunk_items{0};
  std::size_t out_per_chunk{0};
  std::vector<std::vector<double>> chunks_a, chunks_b;
  std::vector<double> ref_a, ref_b;

  double first_steady_ms{0};
  double max_rel{0};

  std::int64_t next_chunk{kCheckChunks};
  std::vector<double> chunk_ms, feed_ms, steady_ms;
  // Per slice: median chunk time over the reference time around the slice
  // (see HostRef).
  std::vector<double> slice_rel, slice_rel_traced;
  // Per set-up: compile + build over the reference time around it.
  std::vector<double> setup_rel;
  std::int64_t bad_chunks{0};

  // Set-up time at the nominal host speed: median over the set-ups.
  [[nodiscard]] double setup_ms() const {
    return median(setup_rel) * kRefNominalMs;
  }
  // Items per second at the nominal host speed, from the slices' median.
  [[nodiscard]] double items_per_s(const std::vector<double>& rel) const {
    return static_cast<double>(chunk_items) /
           (median(rel) * kRefNominalMs / 1e3);
  }

  [[nodiscard]] const std::vector<double>& chunk(std::int64_t k) const {
    return chunks_a[static_cast<std::size_t>(
        k == 0 ? 0 : 1 + (k - 1) % (kPoolChunks - 1))];
  }
};

std::vector<std::vector<double>> split_chunks(const std::vector<double>& in,
                                              std::int64_t init,
                                              std::int64_t chunk) {
  std::vector<std::vector<double>> out;
  auto it = in.begin();
  for (int k = 0; k < kPoolChunks; ++k) {
    const std::int64_t len = chunk + (k == 0 ? init : 0);
    out.emplace_back(it, it + len);
    it += len;
  }
  return out;
}

// Outputs of the first kCheckChunks chunks, concatenated.
std::vector<double> run_check_chunks(
    Runner& r, int iters, const std::vector<std::vector<double>>& chunks) {
  std::vector<double> got;
  for (int k = 0; k < kCheckChunks; ++k) {
    r.feed(chunks[static_cast<std::size_t>(k)]);
    const std::vector<double> out = r.steady(iters);
    got.insert(got.end(), out.begin(), out.end());
  }
  return got;
}

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  int trace{-1};
  std::string git_sha{"unknown"};
  std::string spans_out;
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) refuse("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--git-sha") {
        a.git_sha = v;
      } else if (k == "--spans-out") {
        a.spans_out = v;
      } else {
        refuse("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      refuse("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    refuse("usage: perfbench --workload W --seed N --seconds S --trace 0|1");
  }
  return a;
}

std::string hostname() {
  std::array<char, 256> buf{};
  if (gethostname(buf.data(), buf.size() - 1) == 0) return buf.data();
  return "unknown";
}

// CPUs this process may run on (what `nproc` prints).
unsigned cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

class Bench {
 public:
  Bench(const Args& args, const Workload& wl, int workers)
      : args_(args),
        wl_(wl),
        cfg_(make_config(wl, workers)),
        traced_(args.trace == 1),
        spans_(traced_) {
    for (const apps::AppInfo& info : apps::all_apps()) {
      if (!wl.apps.empty() &&
          std::find(wl.apps.begin(), wl.apps.end(), info.name) == wl.apps.end()) {
        continue;
      }
      App a;
      a.name = info.name;
      a.body = program_body(info);
      apps_.push_back(std::move(a));
    }
  }

  void run() {
    attempted_ = 4 * static_cast<std::int64_t>(apps_.size());
    setup(0);
    setup(1);
    check();
    measure();
    if (traced_ && cfg_.threaded) worker_wait();
    for (App& a : apps_) {
      if (a.alive && a.bad_chunks > 0) {
        fail(a, std::to_string(a.bad_chunks) +
                    " timed chunks returned the wrong number of outputs");
      }
    }
  }

  void report();

 private:
  void fail(App& a, const std::string& what) {
    ++failed_;
    a.alive = false;
    std::printf("FAILED %s: %s\n", a.name.c_str(), what.c_str());
  }

  // Compile + build every app once.  Rep 0's executor checks the second
  // seed and is dropped; rep 1's is measured.  The later reps only time
  // compile + build (and check the counts), between rounds of the timed
  // loop, so that the median set-up is taken over the whole run rather than
  // over the few seconds the first two take.
  void setup(int rep) {
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      App& a = apps_[i];
      if (!a.alive) continue;
      try {
        setup_one(a, static_cast<int>(i), rep);
      } catch (const std::exception& e) {
        fail(a, std::string("set-up: ") + e.what());
      }
    }
  }

  void setup_one(App& a, int app_id, int rep) {
    const int setup_span = spans_.open("setup", -1, app_id, rep);
    const int compile_span = spans_.open("opt.compile", setup_span, app_id, rep);
    opt::CompileOptions co = cfg_.compile;
    if (spans_.on()) {
      co.on_pass = [&](const obs::PassSnapshot& p, const ir::NodeP&) {
        const std::int64_t end = ns(Clock::now());
        spans_.add("opt.pass." + p.name, compile_span, app_id, rep,
                   end - p.wall_ns, end);
      };
    }
    const double ref_before = ref_ms();
    const auto t0 = Clock::now();
    sched::CompiledProgram prog = opt::compile(a.body, co);
    const auto t1 = Clock::now();
    spans_.close(compile_span);
    const int build_span = spans_.open("exec.build", setup_span, app_id, rep);
    Runner r = build_runner(prog, cfg_.exec, cfg_.threaded);
    const auto t2 = Clock::now();
    spans_.close(build_span);
    spans_.close(setup_span);
    const double ref = 0.5 * (ref_before + ref_ms());
    a.compile_ms.push_back(ms(t1 - t0));
    a.build_ms.push_back(ms(t2 - t1));
    a.setup_rel.push_back(ms(t2 - t0) / ref);

    const Counts c = counts_of(r, prog);
    if (rep == 0) {
      a.built = c;
      prepare_inputs(a, static_cast<std::size_t>(app_id), r.schedule());
      const std::string bad = check_outputs(
          run_check_chunks(r, a.iters, a.chunks_b), a.ref_b, exact(), &a.max_rel);
      if (!bad.empty()) throw std::runtime_error("second seed: " + bad);
      a.counts_b = counts_of(r, prog);
    } else if (c.str() != a.built.str()) {
      fail(a, "counts differ between builds: " + c.str() + " vs " +
                  a.built.str());
    }
    if (rep == 1) {
      a.runner = std::move(r);
      a.prog = std::move(prog);
    }
  }

  [[nodiscard]] bool exact() const { return wl_.level == opt::OptLevel::O0; }

  // Seeded input for both seeds, and the oracle's outputs.
  void prepare_inputs(App& a, std::size_t app_index, const sched::Schedule& s) {
    a.iters = static_cast<int>((kChunkItems + s.input_per_steady - 1) /
                               s.input_per_steady);
    a.chunk_items = a.iters * s.input_per_steady;
    a.out_per_chunk = static_cast<std::size_t>(a.iters * s.output_per_steady);
    const auto total =
        static_cast<std::size_t>(s.input_for_init + kPoolChunks * a.chunk_items);
    const std::vector<double> in_a = make_input(args_.seed, app_index, total);
    const std::vector<double> in_b =
        make_input(args_.seed ^ kSeed2Mix, app_index, total);
    a.chunks_a = split_chunks(in_a, s.input_for_init, a.chunk_items);
    a.chunks_b = split_chunks(in_b, s.input_for_init, a.chunk_items);
    a.ref_a = reference_outputs(a.body, in_a);
    a.ref_b = reference_outputs(a.body, in_b);
  }

  // The measured executor's first chunks against the oracle, and its counts
  // against the second seed's.  Times the first steady state.
  void check() {
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      App& a = apps_[i];
      if (!a.alive) continue;
      try {
        const int span =
            spans_.open("exec.first_steady", -1, static_cast<int>(i), 0);
        const auto t0 = Clock::now();
        a.runner.feed(a.chunks_a[0]);
        std::vector<double> got = a.runner.steady(a.iters);
        a.first_steady_ms = ms(Clock::now() - t0);
        spans_.close(span);
        for (int k = 1; k < kCheckChunks; ++k) {
          a.runner.feed(a.chunks_a[static_cast<std::size_t>(k)]);
          const std::vector<double> out = a.runner.steady(a.iters);
          got.insert(got.end(), out.begin(), out.end());
        }
        const std::string bad = check_outputs(got, a.ref_a, exact(), &a.max_rel);
        if (!bad.empty()) {
          fail(a, bad);
          continue;
        }
        a.counts = counts_of(a.runner, a.prog);
        if (a.counts.str() != a.counts_b.str()) {
          fail(a, "counts differ between seeds: " + a.counts.str() + " vs " +
                      a.counts_b.str());
        }
      } catch (const std::exception& e) {
        fail(a, std::string("check: ") + e.what());
      }
    }
  }

  // Closed loop over chunks, kRounds passes over the apps.  With tracing,
  // every slice is followed by a traced slice of the same length.
  void measure() {
    std::size_t live = 0;
    for (const App& a : apps_) live += a.alive ? 1 : 0;
    if (live == 0) return;
    const double slices =
        static_cast<double>(kRounds * live * (traced_ ? 2 : 1));
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(args_.seconds / slices));
    constexpr int kSetupEvery = kRounds / (kSetupReps - 1);
    for (int round = 0; round < kRounds; ++round) {
      if (round > 0 && round % kSetupEvery == 0 &&
          round / kSetupEvery + 1 < kSetupReps) {
        setup(round / kSetupEvery + 1);
      }
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        App& a = apps_[i];
        if (!a.alive) continue;
        try {
          run_slice(a, static_cast<int>(i), slice, false);
          if (traced_) run_slice(a, static_cast<int>(i), slice, true);
        } catch (const std::exception& e) {
          fail(a, std::string("steady state: ") + e.what());
        }
      }
    }
  }

  void run_slice(App& a, int app_id, Clock::duration slice, bool with_spans) {
    const double ref_before = ref_ms();
    std::vector<double> times;
    const auto end = Clock::now() + slice;
    Clock::time_point t2;
    do {
      const std::int64_t k = a.next_chunk++;
      const std::vector<double>& in = a.chunk(k);
      const auto t0 = Clock::now();
      a.runner.feed(in);
      const auto t1 = Clock::now();
      const std::vector<double> out = a.runner.steady(a.iters);
      t2 = Clock::now();
      if (out.size() != a.out_per_chunk) ++a.bad_chunks;
      if (with_spans) {
        const int seq = static_cast<int>(k);
        const int chunk = spans_.add("chunk", -1, app_id, seq, ns(t0), ns(t2));
        spans_.add("input.feed", chunk, app_id, seq, ns(t0), ns(t1));
        spans_.add("exec.run_steady", chunk, app_id, seq, ns(t1), ns(t2));
        a.feed_ms.push_back(ms(t1 - t0));
        a.steady_ms.push_back(ms(t2 - t1));
      } else {
        a.chunk_ms.push_back(ms(t2 - t0));
      }
      times.push_back(ms(t2 - t0));
    } while (t2 < end);
    const double ref = 0.5 * (ref_before + ref_ms());
    (with_spans ? a.slice_rel_traced : a.slice_rel)
        .push_back(median(times) / ref);
  }

  // One reference measurement (see HostRef), kept for the report.
  double ref_ms() {
    const double t = host_ref_.measure_ms();
    ref_log_.push_back(t);
    return t;
  }

  // Worker wait share from the program's own metrics: one extra executor
  // per threaded app with tracing on, so it never feeds a timed number.
  void worker_wait() {
    for (App& a : apps_) {
      if (!a.alive || a.counts.sched != "threaded") continue;
      try {
        sched::ExecOptions o = cfg_.exec;
        o.trace = sched::TraceMode::On;
        Runner r = build_runner(a.prog, o, true);
        for (int k = 0; k < kPoolChunks; ++k) {
          r.feed(a.chunk(k));
          r.steady(a.iters);
        }
        for (const obs::WorkerSnapshot& w : r.snapshot().workers) {
          wait_ns_ += static_cast<double>(w.wait_ns);
          wall_ns_ += static_cast<double>(w.wall_ns);
        }
      } catch (const std::exception& e) {
        fail(a, std::string("traced threaded run: ") + e.what());
      }
    }
  }

  void put(const std::string& name, double v, const char* unit) {
    metrics_[name] = {v, unit};
  }

  const Args& args_;
  const Workload& wl_;
  const RunConfig cfg_;
  const bool traced_;
  Spans spans_;
  HostRef host_ref_;
  std::vector<double> ref_log_;
  std::vector<App> apps_;
  double wait_ns_{0};
  double wall_ns_{0};
  std::int64_t attempted_{0};
  std::int64_t failed_{0};
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", v);
  return buf.data();
}

void Bench::report() {
  std::vector<double> ips, p50, p99, ips_traced, feed, steady;
  std::size_t min_samples = 0;
  double first_steady = 0.0;
  double setup_total_ms = 0.0;
  for (const App& a : apps_) {
    const double setup_ms = a.setup_ms();
    setup_total_ms += setup_ms;
    first_steady += a.first_steady_ms;
    std::printf("app %-14s chunk_items=%lld iters=%d outputs/chunk=%zu "
                "setup_ms=%.3f compile_ms=%.3f build_ms=%.3f "
                "first_steady_ms=%.3f max_rel_err=%.3g\n",
                a.name.c_str(), static_cast<long long>(a.chunk_items), a.iters,
                a.out_per_chunk, setup_ms, median(a.compile_ms),
                median(a.build_ms), a.first_steady_ms, a.max_rel);
    std::printf("counts %-14s %s\n", a.name.c_str(), a.counts.str().c_str());
    if (!a.alive || a.chunk_ms.empty()) continue;
    const double app_ips = a.items_per_s(a.slice_rel);
    ips.push_back(app_ips);
    p50.push_back(percentile(a.chunk_ms, 0.50));
    p99.push_back(percentile(a.chunk_ms, 0.99));
    min_samples = min_samples == 0 ? a.chunk_ms.size()
                                   : std::min(min_samples, a.chunk_ms.size());
    std::printf("steady %-14s items_per_s=%.6g wall_items_per_s=%.6g "
                "chunk_ms_p50=%.4f chunk_ms_p99=%.4f samples=%zu\n",
                a.name.c_str(), app_ips,
                static_cast<double>(a.chunk_items) / (p50.back() / 1e3),
                p50.back(), p99.back(), a.chunk_ms.size());
    put("app." + a.name + ".items_per_s", app_ips, "1/s");
    put("app." + a.name + ".setup_ms", setup_ms, "ms");
    if (!a.slice_rel_traced.empty()) {
      ips_traced.push_back(a.items_per_s(a.slice_rel_traced));
      feed.push_back(median(a.feed_ms));
      steady.push_back(median(a.steady_ms));
    }
  }
  std::printf("chunk percentiles: geomean over %zu apps, at least %zu "
              "samples per app\n",
              p50.size(), min_samples);
  std::printf("checks: %lld failed of %lld (failed_frac %.4g)\n",
              static_cast<long long>(failed_), static_cast<long long>(attempted_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 1.0);

  put("items_per_s", geomean(ips), "1/s");
  put("setup_s", setup_total_ms / 1e3, "s");
  put("host.ref_ms", median(ref_log_), "ms");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  put("chunk_ms_p50", geomean(p50), "ms");
  put("chunk_ms_p99", geomean(p99), "ms");
  put("exec.first_steady_ms", first_steady, "ms");

  // Layer counts.
  double actors_after = 0, trace_len = 0, typed_fused = 0, fused_refused = 0;
  double typed_actors = 0, threaded = 0, ring_edges = 0, batch = 0;
  std::map<std::string, double> fallbacks;
  for (const App& a : apps_) {
    const Counts& c = a.counts;
    actors_after += c.actors_after;
    trace_len += static_cast<double>(c.trace_len);
    typed_fused += c.typed_fused == "admitted" ? 1 : 0;
    fused_refused += c.fused.rfind("refused:", 0) == 0 ? 1 : 0;
    typed_actors += c.typed_actors;
    threaded += c.sched == "threaded" ? 1 : 0;
    ring_edges += c.ring_edges;
    batch += c.batch;
    if (c.sched.rfind("fallback:", 0) == 0) fallbacks[c.sched.substr(9)] += 1;
  }
  put("opt.actors_after", actors_after, "count");
  put("runtime.fused_trace_len", trace_len, "count");
  put("runtime.typed_fused_apps", typed_fused, "count");
  put("runtime.fused_refused_apps", fused_refused, "count");
  put("runtime.typed_actors", typed_actors, "count");
  put("sched.threaded_apps", threaded, "count");
  put("sched.ring_edges", ring_edges, "count");
  put("sched.batch", batch, "count");
  for (auto r :
       {sched::FallbackReason::OneThread, sched::FallbackReason::MessageSink,
        sched::FallbackReason::TeleportHandlers,
        sched::FallbackReason::TeleportSends,
        sched::FallbackReason::TooFewActors,
        sched::FallbackReason::InterleavedFirings}) {
    put(std::string("sched.fallback.") + sched::to_string(r),
        fallbacks[sched::to_string(r)], "count");
  }

  if (traced_) {
    // Self times: set-up layers summed over apps (median over reps),
    // steady-state layers per chunk (geomean over apps of each app's median).
    const std::vector<double> self = spans_.self_ms();
    std::map<std::string, std::vector<double>> per_rep;
    for (const std::string& p : opt::preset(opt::OptLevel::O2)) {
      per_rep["opt.pass." + p].assign(kSetupReps, 0.0);
    }
    per_rep["opt.compile"].assign(kSetupReps, 0.0);
    per_rep["exec.build"].assign(kSetupReps, 0.0);
    for (std::size_t s = 0; s < spans_.all().size(); ++s) {
      const Span& sp = spans_.all()[s];
      const auto it = per_rep.find(sp.name);
      if (it != per_rep.end()) {
        it->second[static_cast<std::size_t>(sp.seq)] += self[s];
      }
    }
    for (const auto& [name, v] : per_rep) put(name + "_ms", median(v), "ms");
    put("input.feed_ms", geomean(feed), "ms");
    put("exec.run_steady_ms", geomean(steady), "ms");
    put("sched.worker_wait_frac", wall_ns_ > 0 ? wait_ns_ / wall_ns_ : 0.0,
        "fraction");
    const double untraced = geomean(ips);
    const double with = geomean(ips_traced);
    put("trace.items_per_s", with, "1/s");
    put("trace.overhead_pct",
        untraced > 0 ? 100.0 * (untraced - with) / untraced : 0.0, "%");
    if (!args_.spans_out.empty()) {
      std::vector<std::string> names;
      for (const App& a : apps_) names.push_back(a.name);
      if (!spans_.write(args_.spans_out, names)) {
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     args_.spans_out.c_str());
      }
    }
  }

  for (const auto& [name, v] : metrics_) {
    std::printf("metric %-36s %.6g %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  const char* sep = "";
  for (const auto& [name, v] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep, name.c_str(),
                json_num(v.first).c_str(), v.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      refuse(std::string(var) + " is set; it would change what is measured");
    }
  }
  if (PERFBENCH_SANITIZED || !PERFBENCH_OPTIMIZED) {
    refuse("sanitizer or unoptimized build (" PERFBENCH_BUILD_TYPE
           "); numbers from it would measure instrumentation");
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) refuse("unknown workload '" + args.workload + "'");

  const unsigned nproc = cpus_available();
  const int workers = static_cast<int>(std::min(4U, nproc));
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              wl->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("host=%s nproc=%u workers=%d git=%s build=%s cost_model=%s\n",
              hostname().c_str(), nproc, wl->threaded ? workers : 1,
              args.git_sha.c_str(), PERFBENCH_BUILD_TYPE,
              obs::cost_model().source());
  try {
    Bench bench(args, *wl, workers);
    std::printf("options: level=%s engine=fused typed=on threads=%d "
                "batch=auto count_ops=on trace=off verify=off "
                "oracle_items=%lld rel_tol=%g\n",
                wl->level == opt::OptLevel::O0 ? "O0" : "O2",
                wl->threaded ? workers : 1,
                static_cast<long long>(kOracleItems), kRelTol);
    std::printf("resolved pipeline spec: %s\n",
                opt::resolve_pipeline_spec(make_config(*wl, workers).compile)
                    .c_str());
    bench.run();
    bench.report();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
