// streamprof: run a built-in app under any engine and report where the time
// goes.
//
//   streamprof --app=Vocoder [--engine=tree|fused] [--threads=N]
//              [--steady=N] [--trace=FILE] [--metrics=FILE]
//              [--calibrate=FILE] [--quiet]
//   streamprof --calibrate-all=FILE [--steady=N] [--quiet]
//   streamprof --list
//   streamprof --validate FILE
//
// The run mode executes the app through ThreadedExecutor with tracing forced
// on (one thread falls back to the embedded sequential executor, so the same
// invocation profiles every engine/thread combination), prints the
// ThreadedReport line and the hot-actor / worker-utilization profile, and
// optionally writes a Chrome trace-event JSON (--trace, loadable in Perfetto
// or chrome://tracing) and a metrics snapshot (--metrics).  Every emitted
// trace is re-validated structurally before it is written; --validate runs
// the same checker over an existing file, which is what CI uses.  The
// engine defaults to SIT_ENGINE's (fused unless it says tree).  Tracing
// refuses the whole-graph trace (tracing-enabled), so the fused engine is
// profiled on its per-actor traces.
//
// --calibrate writes a CostProfile (obs/costprofile.h): per-actor measured
// ns/firing joined with the static model's cycles/firing, the artifact
// `streamc --cost=FILE` / SIT_COST load back to run partitioning and
// selection on measured weights.  --calibrate-all profiles every built-in
// app and merges the runs into one corpus profile stamped with host
// metadata and the git SHA.  Both re-parse the file they wrote and fail
// loudly if it does not validate.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "apps/apps.h"
#include "linear/cost.h"
#include "obs/costprofile.h"
#include "obs/export.h"
#include "sched/texec.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: streamprof --app=NAME [--engine=tree|fused] [--threads=N]\n"
      "                  [--steady=N] [--trace=FILE] [--metrics=FILE]\n"
      "                  [--calibrate=FILE] [--quiet]\n"
      "       streamprof --calibrate-all=FILE [--steady=N] [--quiet]\n"
      "       streamprof --list\n"
      "       streamprof --validate FILE\n");
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Case-insensitive app lookup so `--app=vocoder` finds "Vocoder".
const sit::apps::AppInfo* find_app(const std::string& name) {
  const std::string want = lower(name);
  for (const auto& a : sit::apps::all_apps()) {
    if (lower(a.name) == want) return &a;
  }
  return nullptr;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

int validate_file(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "streamprof: cannot read '%s'\n", path.c_str());
    return 2;
  }
  std::string err;
  if (!sit::obs::validate_chrome_trace(text, &err)) {
    std::fprintf(stderr, "streamprof: %s: invalid trace: %s\n", path.c_str(),
                 err.c_str());
    return 1;
  }
  std::printf("%s: valid chrome trace\n", path.c_str());
  return 0;
}

struct Args {
  std::string app;
  std::string engine;   // "", "tree", "fused"
  int threads{0};       // 0 = SIT_THREADS
  int steady{32};
  std::string trace_path;
  std::string metrics_path;
  std::string validate_path;
  std::string calibrate_path;      // single-app CostProfile
  std::string calibrate_all_path;  // merged corpus over all apps
  bool list{false};
  bool quiet{false};
};

// Accepts both --key=value and --key value.
bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string val;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      val = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto take = [&]() -> bool {
      if (!val.empty()) return true;
      if (i + 1 >= argc) return false;
      val = argv[++i];
      return true;
    };
    if (arg == "--list") {
      a->list = true;
    } else if (arg == "--quiet") {
      a->quiet = true;
    } else if (arg == "--app") {
      if (!take()) return false;
      a->app = val;
    } else if (arg == "--engine") {
      if (!take()) return false;
      a->engine = lower(val);
      if (a->engine != "tree" && a->engine != "fused") {
        return false;
      }
    } else if (arg == "--threads") {
      if (!take()) return false;
      a->threads = std::atoi(val.c_str());
    } else if (arg == "--steady") {
      if (!take()) return false;
      a->steady = std::atoi(val.c_str());
      if (a->steady < 1) return false;
    } else if (arg == "--trace") {
      if (!take()) return false;
      a->trace_path = val;
    } else if (arg == "--metrics") {
      if (!take()) return false;
      a->metrics_path = val;
    } else if (arg == "--validate") {
      if (!take()) return false;
      a->validate_path = val;
    } else if (arg == "--calibrate") {
      if (!take()) return false;
      a->calibrate_path = val;
    } else if (arg == "--calibrate-all") {
      if (!take()) return false;
      a->calibrate_all_path = val;
    } else {
      return false;
    }
  }
  return true;
}

// ---- calibration ------------------------------------------------------------

// Provenance for the corpus profile (mirrors bench_util.h, which tools/ does
// not include to keep bench-only helpers out of the drivers).
std::string profile_git_sha() {
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  char buf[64] = {};
  std::string sha = "unknown";
  if (FILE* p = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    if (fgets(buf, sizeof buf, p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
      if (!s.empty()) sha = s;
    }
    pclose(p);
  }
  return sha;
}

std::string profile_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  if (const char* h = std::getenv("HOSTNAME")) return h;
  return "unknown";
}

// The static model's cycles-per-firing by flat actor name: the join key that
// lets a loaded profile report measured-vs-modeled divergence per actor.
std::map<std::string, double> static_model_map(const sit::runtime::FlatGraph& g) {
  std::map<std::string, double> m;
  for (const auto& a : g.actors) {
    if (a.is_filter()) m[a.name] = sit::linear::leaf_ops_per_firing(*a.node);
  }
  return m;
}

// Run one app under the profiling configuration.  Tracing is forced on so
// FiringStats capture per-actor wall time.
std::unique_ptr<sit::sched::ThreadedExecutor> run_app(
    const sit::apps::AppInfo& app, const Args& args) {
  sit::sched::ExecOptions opts;
  opts.trace = sit::sched::TraceMode::On;
  opts.threads = args.threads;
  if (args.engine == "tree") opts.engine = sit::sched::Engine::Tree;
  if (args.engine == "fused") opts.engine = sit::sched::Engine::Fused;

  auto tex = std::make_unique<sit::sched::ThreadedExecutor>(app.make(), opts);
  if (tex->graph().input_edge >= 0) {
    // Deterministic default feed for apps with an external input port.
    tex->set_input_generator([](std::int64_t i) {
      return static_cast<double>((i % 64) - 32) / 32.0;
    });
  }
  tex->run_steady(args.steady);
  return tex;
}

// Write the profile and re-parse it: a CostProfile that does not survive its
// own round trip must never reach CI artifact storage.
int write_profile(const sit::obs::CostProfile& profile, const std::string& path,
                  bool quiet) {
  const std::string text = profile.to_json();
  {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "streamprof: cannot write '%s'\n", path.c_str());
      return 1;
    }
    f << text;
  }
  sit::obs::CostProfile back;
  std::string err;
  if (!sit::obs::CostProfile::parse(text, &back, &err)) {
    std::fprintf(stderr,
                 "streamprof: emitted profile failed validation: %s\n",
                 err.c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("wrote %s (%zu actors, %zu apps, %.3f cycles/ns)\n",
                path.c_str(), profile.actors.size(), profile.apps.size(),
                profile.cycles_per_ns());
  }
  return 0;
}

// Profile every built-in app and merge the runs into one corpus profile.
int calibrate_all(const Args& args) {
  sit::obs::CostProfile corpus;
  corpus.git_sha = profile_git_sha();
  corpus.hostname = profile_hostname();
  corpus.cpus = static_cast<int>(std::thread::hardware_concurrency());
  for (const auto& app : sit::apps::all_apps()) {
    auto tex = run_app(app, args);
    sit::obs::MetricsSnapshot m = tex->metrics_snapshot();
    m.app = app.name;
    corpus.add_run(m, static_model_map(tex->graph()));
    if (!args.quiet) {
      std::printf("calibrated %-16s (%zu actors so far)\n", app.name.c_str(),
                  corpus.actors.size());
    }
  }
  if (corpus.actors.empty()) {
    std::fprintf(stderr,
                 "streamprof: no timed firings captured (SIT_OBS=OFF build?); "
                 "refusing to write an empty profile\n");
    return 1;
  }
  return write_profile(corpus, args.calibrate_all_path, args.quiet);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage(stderr);
    return 2;
  }
  if (args.list) {
    for (const auto& a : sit::apps::all_apps()) {
      std::printf("%-16s %s\n", a.name.c_str(), a.description.c_str());
    }
    return 0;
  }
  if (!args.validate_path.empty()) return validate_file(args.validate_path);
  if (!args.calibrate_all_path.empty()) return calibrate_all(args);
  if (args.app.empty()) {
    usage(stderr);
    return 2;
  }

  const sit::apps::AppInfo* app = find_app(args.app);
  if (app == nullptr) {
    std::fprintf(stderr,
                 "streamprof: unknown app '%s' (try --list)\n",
                 args.app.c_str());
    return 2;
  }

  std::unique_ptr<sit::sched::ThreadedExecutor> texp = run_app(*app, args);
  sit::sched::ThreadedExecutor& tex = *texp;

  sit::obs::MetricsSnapshot m = tex.metrics_snapshot();
  m.app = app->name;

  if (!args.quiet) {
    std::printf("%s: %s\n", app->name.c_str(), tex.report().to_string().c_str());
    std::fputs(sit::obs::profile_report(m).c_str(), stdout);
  }

  if (!args.calibrate_path.empty()) {
    sit::obs::CostProfile profile;
    profile.git_sha = profile_git_sha();
    profile.hostname = profile_hostname();
    profile.cpus = static_cast<int>(std::thread::hardware_concurrency());
    profile.add_run(m, static_model_map(tex.graph()));
    if (profile.actors.empty()) {
      std::fprintf(stderr,
                   "streamprof: no timed firings captured (SIT_OBS=OFF "
                   "build?); refusing to write an empty profile\n");
      return 1;
    }
    const int rc = write_profile(profile, args.calibrate_path, args.quiet);
    if (rc != 0) return rc;
  }

  if (!args.metrics_path.empty()) {
    std::ofstream f(args.metrics_path);
    if (!f) {
      std::fprintf(stderr, "streamprof: cannot write '%s'\n",
                   args.metrics_path.c_str());
      return 1;
    }
    f << m.to_json();
  }

  if (!args.trace_path.empty()) {
    const sit::obs::Recorder* rec = tex.recorder();
    if (rec == nullptr) {
      std::fprintf(stderr, "streamprof: tracing compiled out (SIT_OBS=OFF)\n");
      return 1;
    }
    const auto& g = tex.graph();
    std::vector<std::string> actor_names;
    actor_names.reserve(g.actors.size());
    for (const auto& a : g.actors) actor_names.push_back(a.name);
    std::vector<std::string> edge_names;
    edge_names.reserve(g.edges.size());
    for (std::size_t e = 0; e < m.edges.size(); ++e) {
      edge_names.push_back(m.edges[e].name);
    }
    const std::string trace = sit::obs::chrome_trace_json(
        *rec, actor_names, edge_names, app->name, m.engine);
    std::string err;
    if (!sit::obs::validate_chrome_trace(trace, &err)) {
      std::fprintf(stderr, "streamprof: emitted trace failed validation: %s\n",
                   err.c_str());
      return 1;
    }
    std::ofstream f(args.trace_path);
    if (!f) {
      std::fprintf(stderr, "streamprof: cannot write '%s'\n",
                   args.trace_path.c_str());
      return 1;
    }
    f << trace;
    if (!args.quiet) {
      std::printf("wrote %s (%lld events, %lld dropped)\n",
                  args.trace_path.c_str(),
                  static_cast<long long>(m.trace_events),
                  static_cast<long long>(m.trace_dropped));
    }
  }
  return 0;
}
