#pragma once
// Low-overhead event tracing for the stream runtimes.
//
// Every engine (sequential Executor, ThreadedExecutor workers, the bytecode
// VM dispatch loop, MessagingExecutor) records timestamped events into
// per-thread buffers owned by exactly one writer thread, so the hot path is
// an inline bounds check plus a vector append -- no locks, no atomics.  The
// registry mutex is touched only when a thread first claims its buffer.
//
// Cost discipline:
//   * tracing OFF (the default): instrumentation points reduce to a single
//     null-pointer test per firing -- the executors keep a ThreadBuffer*
//     that stays null unless ExecOptions::trace / SIT_TRACE enabled it;
//   * tracing ON: two steady_clock reads plus a few appends per firing;
//   * compiled OUT (-DSIT_OBS_DISABLED, cmake -DSIT_OBS=OFF): kCompiledIn
//     below folds every gate to constant false and the optimizer deletes
//     the instrumentation entirely.
//
// Buffers are bounded (Config::events_per_thread); once full, further events
// are counted as dropped rather than reallocating without bound -- a trace
// that long has already captured the steady-state shape.
//
// Alongside raw events the Recorder owns the timing side of the metrics
// registry: per-actor firing statistics (wall-ns histogram) and per-worker
// busy/wait accounting.  Both follow the same single-writer discipline: an
// actor is fired by exactly one thread, a worker slot is owned by its
// worker.  Snapshots (obs/metrics.h) are taken quiescently.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sit::obs {

#ifdef SIT_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

enum class EventKind : std::uint8_t {
  FireBegin,       // id = actor
  FireEnd,         // id = actor
  WaitBegin,       // id = actor, arg = WaitKind (threaded runtime spin waits)
  WaitEnd,         // id = actor, arg = WaitKind
  PushBatch,       // id = edge, arg = items pushed by one firing
  PopBatch,        // id = edge, arg = items popped by one firing
  MessageSend,     // id = sending actor, arg = its firing number
  MessageDeliver,  // id = receiving actor, arg = delivery firing number
  Phase,           // id = PhaseId
};
const char* to_string(EventKind k);

// Why a threaded-runtime worker spun (TraceEvent::arg of Wait* events).
enum class WaitKind : std::int64_t { Input = 0, Space = 1, Window = 2 };
const char* to_string(WaitKind k);

enum class PhaseId : std::int32_t { Init = 0, Steady = 1 };
const char* to_string(PhaseId p);

struct TraceEvent {
  std::int64_t ts_ns{0};  // monotonic, relative to the Recorder's epoch
  EventKind kind{EventKind::Phase};
  std::int32_t id{-1};
  std::int64_t arg{0};
};

// One thread's append-only event log.  Constructed by Recorder; emitted to
// only by the owning thread.
class ThreadBuffer {
 public:
  ThreadBuffer(int tid, std::size_t cap) : tid_(tid), cap_(cap) {
    events_.reserve(std::min<std::size_t>(cap, 4096));
  }

  void emit(std::int64_t ts_ns, EventKind kind, std::int32_t id,
            std::int64_t arg = 0) {
    if (events_.size() < cap_) {
      events_.push_back(TraceEvent{ts_ns, kind, id, arg});
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] int tid() const noexcept { return tid_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }

 private:
  int tid_;
  std::size_t cap_;
  std::vector<TraceEvent> events_;
  std::int64_t dropped_{0};
};

// Per-actor firing-time statistics: total/max wall-ns plus a log2-bucketed
// histogram of ns-per-firing (bucket i counts firings in [2^i, 2^{i+1}) ns).
struct FiringStats {
  static constexpr int kBuckets = 24;  // up to ~16 ms per firing

  std::int64_t fires{0};
  std::int64_t wall_ns{0};
  std::int64_t max_ns{0};
  std::array<std::int64_t, kBuckets> hist{};

  void record(std::int64_t ns) {
    ++fires;
    wall_ns += ns;
    max_ns = std::max(max_ns, ns);
    const auto u = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
    const int b = std::min(kBuckets - 1, static_cast<int>(std::bit_width(u)));
    ++hist[static_cast<std::size_t>(b)];
  }
  // Fold in firings recorded elsewhere (a split actor's per-worker stats).
  void merge(const FiringStats& o) {
    fires += o.fires;
    wall_ns += o.wall_ns;
    max_ns = std::max(max_ns, o.max_ns);
    for (std::size_t b = 0; b < hist.size(); ++b) hist[b] += o.hist[b];
  }
};

// Per-worker steady-state accounting for the threaded runtime.
struct WorkerStats {
  std::int64_t wall_ns{0};  // time inside the worker loop
  std::int64_t wait_ns{0};  // of which: spent spinning on rings / the window
  std::int64_t iters{0};    // steady-state iterations completed (a split
                            // lone actor's worker: its firings)
};

class Recorder {
 public:
  struct Config {
    std::size_t events_per_thread{std::size_t{1} << 18};
  };

  Recorder() : Recorder(Config{}) {}
  explicit Recorder(Config cfg)
      : cfg_(cfg), epoch_(std::chrono::steady_clock::now()) {}

  // Nanoseconds since this recorder was created (monotonic clock).
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Claim (or find) the buffer for logical thread `tid`.  The returned
  // pointer is stable for the recorder's lifetime; the registry lock is
  // taken only here.
  ThreadBuffer* thread_buffer(int tid) {
    const std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_) {
      if (b->tid() == tid) return b.get();
    }
    buffers_.push_back(
        std::make_unique<ThreadBuffer>(tid, cfg_.events_per_thread));
    return buffers_.back().get();
  }

  // Size the single-writer stat tables (idempotent growth).
  void attach_actors(std::size_t n) {
    if (actor_stats_.size() < n) actor_stats_.resize(n);
  }
  void attach_workers(std::size_t n) {
    if (worker_stats_.size() < n) worker_stats_.resize(n);
  }

  FiringStats& actor_stats(int actor) {
    return actor_stats_[static_cast<std::size_t>(actor)];
  }
  WorkerStats& worker_stats(int worker) {
    return worker_stats_[static_cast<std::size_t>(worker)];
  }
  [[nodiscard]] const std::vector<FiringStats>& all_actor_stats() const {
    return actor_stats_;
  }
  [[nodiscard]] const std::vector<WorkerStats>& all_worker_stats() const {
    return worker_stats_;
  }

  // Quiescent readers (no writer thread running).
  [[nodiscard]] std::vector<const ThreadBuffer*> buffers() const {
    const std::lock_guard<std::mutex> lk(mu_);
    std::vector<const ThreadBuffer*> out;
    out.reserve(buffers_.size());
    for (const auto& b : buffers_) out.push_back(b.get());
    return out;
  }
  [[nodiscard]] std::int64_t total_events() const {
    std::int64_t n = 0;
    for (const auto* b : buffers()) n += static_cast<std::int64_t>(b->events().size());
    return n;
  }
  [[nodiscard]] std::int64_t total_dropped() const {
    std::int64_t n = 0;
    for (const auto* b : buffers()) n += b->dropped();
    return n;
  }

 private:
  Config cfg_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<FiringStats> actor_stats_;
  std::vector<WorkerStats> worker_stats_;
};

}  // namespace sit::obs
