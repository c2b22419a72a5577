#pragma once
// Lock-free single-producer/single-consumer ring: the cross-thread edge of
// the threaded runtime (sched/texec.h).
//
// Protocol: two monotonically increasing 64-bit positions.  `tail` counts
// items ever pushed, `head` items ever popped; they wrap modulo the
// power-of-two capacity only when indexing storage, so full/empty are just
// `tail - head == capacity` / `tail - head == 0` with no reserved slot.  The
// producer is the only writer of `tail` and the consumer the only writer of
// `head`; each side publishes its own position with a release store and
// observes the other side's with an acquire load (the release on `tail`
// makes the written items visible before the consumer can see the new
// position, and symmetrically the release on `head` returns slots).
//
// Cached-index optimization: each side keeps a private copy of the opposite
// position (`head_cache_` on the producer side, `tail_cache_` on the
// consumer side) and re-reads the shared atomic only when the cached view
// says full/empty.  A burst of n pushes then costs one acquire load total
// instead of n, and the two hot cache lines ping-pong between cores at the
// burst rate rather than the item rate.
//
// Deferred (bulk) publication: in deferred mode each side advances only its
// private position on push/pop and makes the whole burst visible with one
// explicit publish_tail()/publish_head() release store.  Combined with the
// cached indices, a batch of B*T items then costs exactly one release store
// and at most one acquire load per side, independent of B.  The batched
// threaded executor publishes once per actor per pipeline step; the
// tail_publishes()/head_publishes() counters exist so tests can pin that
// "one release store per batch" contract.  Immediate mode (the default)
// publishes inside every push/pop as before.
//
// Capacity is fixed at construction: the threaded executor sizes each ring
// from the schedule's per-steady-state edge traffic times the pipelining
// window, plus the post-init live items, so a correctly sized ring never
// rejects a push.  The tape methods therefore throw on overflow/underrun
// instead of blocking -- the executor's pre-firing waits (can_push/can_pop)
// are the only spin points.
//
// The cumulative counters and high_water are maintained for parity with
// Channel but are only meaningful when read quiescently (workers joined).

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/filter.h"

namespace sit::runtime {

class SpscRing final : public ir::InTape, public ir::OutTape {
 public:
  explicit SpscRing(std::size_t min_capacity, bool deferred = false)
      : deferred_(deferred) {
    std::size_t cap = 16;
    while (cap < min_capacity) cap *= 2;
    buf_.assign(cap, 0.0);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // ---- single-threaded setup (before any worker touches the ring) ----------
  //
  // Seed the ring with the live items of the channel it replaces and carry
  // over that channel's cumulative counters, so total_pushed()/total_popped()
  // continue the same n(t)/p(t) sequence the sequential executor would report.
  void preload(const std::vector<double>& items, std::int64_t prior_pushed,
               std::int64_t prior_popped) {
    if (items.size() > buf_.size()) {
      throw std::logic_error("SPSC ring preload exceeds capacity");
    }
    for (std::size_t i = 0; i < items.size(); ++i) buf_[i] = items[i];
    tail_.store(items.size(), std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    tail_pos_ = items.size();
    head_pos_ = 0;
    head_cache_ = 0;
    tail_cache_ = items.size();
    published_tail_ = items.size();
    published_head_ = 0;
    high_water_ = items.size();
    base_pushed_ = prior_pushed - static_cast<std::int64_t>(items.size());
    base_popped_ = prior_popped;
  }

  // ---- producer side --------------------------------------------------------

  [[nodiscard]] bool can_push(std::size_t n) noexcept {
    if (tail_pos_ + n - head_cache_ <= buf_.size()) return true;
    head_cache_ = head_.load(std::memory_order_acquire);
    return tail_pos_ + n - head_cache_ <= buf_.size();
  }

  void push_item(double v) override {
    if (!can_push(1)) {
      throw std::runtime_error("SPSC ring overflow (channel mis-sized)");
    }
    buf_[tail_pos_ & mask_] = v;
    ++tail_pos_;
    if (!deferred_) publish_tail();
  }

  // Make every push since the last publish visible to the consumer.  One
  // release store per call; a no-op when nothing new was pushed.
  void publish_tail() noexcept {
    if (tail_pos_ == published_tail_) return;
    tail_.store(tail_pos_, std::memory_order_release);
    published_tail_ = tail_pos_;
    ++tail_publishes_;
  }

  // ---- consumer side --------------------------------------------------------

  [[nodiscard]] bool can_pop(std::size_t n) noexcept {
    if (tail_cache_ - head_pos_ >= n) return true;
    tail_cache_ = tail_.load(std::memory_order_acquire);
    const std::size_t live = tail_cache_ - head_pos_;
    if (live > high_water_) high_water_ = live;
    return live >= n;
  }

  double peek_item(int offset) override {
    const auto off = static_cast<std::size_t>(offset);
    if (offset < 0 || !can_pop(off + 1)) {
      throw std::runtime_error("peek(" + std::to_string(offset) +
                               ") beyond SPSC ring contents");
    }
    return buf_[(head_pos_ + off) & mask_];
  }

  double pop_item() override {
    if (!can_pop(1)) throw std::runtime_error("pop from empty SPSC ring");
    const double v = buf_[head_pos_ & mask_];
    ++head_pos_;
    if (!deferred_) publish_head();
    return v;
  }

  void pop_many(int n) override {
    if (n <= 0) return;
    if (!can_pop(static_cast<std::size_t>(n))) {
      throw std::runtime_error("pop from empty SPSC ring");
    }
    head_pos_ += static_cast<std::size_t>(n);
    if (!deferred_) publish_head();
  }

  bool ring_view(std::size_t n, ir::RingView* v) override {
    if (!can_pop(n)) return false;
    *v = {buf_.data(), static_cast<std::size_t>(head_pos_), mask_};
    return true;
  }

  // Return every slot freed since the last publish to the producer.  One
  // release store per call; a no-op when nothing new was popped.
  void publish_head() noexcept {
    if (head_pos_ == published_head_) return;
    head_.store(head_pos_, std::memory_order_release);
    published_head_ = head_pos_;
    ++head_publishes_;
  }

  // ---- quiescent accessors (no worker running) -----------------------------

  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t total_pushed() const noexcept {
    return base_pushed_ +
           static_cast<std::int64_t>(tail_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::int64_t total_popped() const noexcept {
    return base_popped_ +
           static_cast<std::int64_t>(head_.load(std::memory_order_acquire));
  }
  // Peak occupancy as observed from the consumer side (a lower bound on the
  // true instantaneous peak -- sampled whenever the consumer refreshes).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
  // Cumulative release-store counts, one per publish (quiescent reads only;
  // each is written solely by its own side).
  [[nodiscard]] std::int64_t tail_publishes() const noexcept {
    return tail_publishes_;
  }
  [[nodiscard]] std::int64_t head_publishes() const noexcept {
    return head_publishes_;
  }
  [[nodiscard]] bool deferred() const noexcept { return deferred_; }

 private:
  std::vector<double> buf_;
  std::size_t mask_{0};
  bool deferred_{false};
  // Shared positions, one cache line each so producer/consumer stores do not
  // false-share.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  // Producer-private.
  alignas(64) std::uint64_t tail_pos_{0};
  std::uint64_t head_cache_{0};
  std::uint64_t published_tail_{0};
  std::int64_t tail_publishes_{0};
  // Consumer-private.
  alignas(64) std::uint64_t head_pos_{0};
  std::uint64_t tail_cache_{0};
  std::uint64_t published_head_{0};
  std::int64_t head_publishes_{0};
  std::size_t high_water_{0};
  // Counter bases carried over from the migrated Channel (see preload).
  std::int64_t base_pushed_{0};
  std::int64_t base_popped_{0};
};

}  // namespace sit::runtime
