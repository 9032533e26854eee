// Deterministic discrete-event loop, nanosecond resolution.
//
// Replaces the paper's DPDK testbed as the execution substrate (see
// DESIGN.md §2): all latency figures in the PCT experiments emerge from
// events scheduled here — propagation delays, per-message service times,
// failure timers. Determinism (stable tie-break by insertion sequence)
// makes every experiment and test exactly reproducible.
//
// Internals are built for million-UE storms. A callback is constructed
// once, in place, into a chunked slab of small-buffer-optimized
// InlineTasks (no per-event allocation for captures ≤ 48 bytes; chunks
// never move, so a callback that schedules while the slab grows stays
// valid). It runs in place, then its slot is reset and reused. The
// ordering structures hold only 24-byte (when, seq, slot) keys: a 4-ary
// implicit heap, fronted by an optional hashed timer wheel that absorbs
// the dominant near-future fixed-delay schedules. Ordering is bit-for-bit
// identical to a (when, seq) priority queue regardless of which structure
// a key lands in: the wheel drains one granularity tick at a time into a
// sorted buffer that is merged against the heap strictly by (when, seq).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "sim/inline_task.hpp"

namespace neutrino::sim {

// Cache-line aligned: sharded runs keep one loop per shard in a dense
// vector, and the hot scalar block (now_/pending_/drain cursor) of one
// shard must not false-share with its neighbor's.
class alignas(64) EventLoop {
 public:
  using Callback = InlineTask;

  struct Config {
    /// Bucket near-future events by time tick instead of pushing them
    /// through the heap. Pure optimization: ordering is unaffected.
    bool use_timer_wheel = true;
    /// Width of one wheel tick. Events within the same tick are sorted
    /// on drain, so granularity only trades bucket count vs sort size.
    std::int64_t wheel_granularity_ns = 1'000;
    /// Number of ticks the wheel spans (must be a power of two). Events
    /// beyond `granularity * slots` from the cursor go to the heap.
    std::size_t wheel_slots = 4096;
  };

  EventLoop() : EventLoop(Config{}) {}

  explicit EventLoop(const Config& config)
      : wheel_enabled_(config.use_timer_wheel),
        granule_(config.wheel_granularity_ns),
        slots_(config.wheel_slots) {
    assert(granule_ > 0);
    assert(slots_ >= 2 && (slots_ & (slots_ - 1)) == 0);
    if (wheel_enabled_) {
      buckets_.resize(slots_);
      occupancy_.assign((slots_ + 63) / 64, 0);
    }
  }

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` (any void() callable, or a Callback) to run at `when`.
  template <typename F>
  void schedule_at(SimTime when, F&& cb) {
    const std::uint32_t slot = alloc_slot();
    task(slot).emplace(std::forward<F>(cb));
    const Key ev{when, next_seq_++, slot};
    ++pending_;
    if (wheel_enabled_) {
      if (wheel_count_ == 0 && drain_pos_ >= drain_.size()) {
        // Wheel idle: snap the cursor forward so the window covers the
        // near future again (it can never move backwards — events below
        // the cursor would desync from the drained-tick invariant).
        cursor_tick_ = std::max(cursor_tick_, tick_of(now_));
      }
      const std::int64_t tick = tick_of(when);
      if (tick >= cursor_tick_ &&
          static_cast<std::uint64_t>(tick - cursor_tick_) < slots_) {
        const std::size_t bucket =
            static_cast<std::size_t>(tick) & (slots_ - 1);
        buckets_[bucket].push_back(ev);
        occupancy_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
        ++wheel_count_;
        return;
      }
    }
    heap_push(ev);
  }

  template <typename F>
  void schedule_after(SimTime delay, F&& cb) {
    schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Run events until the queue drains or the horizon passes. Events at
  /// exactly `horizon` still run. Fused peek+pop: the (drain, heap) front
  /// comparison runs once per event instead of once in next_when() and
  /// again in pop_next() — this is the sharded-dispatch hot loop.
  void run_until(SimTime horizon) {
    while (pending_ > 0) {
      maybe_refill();
      if (drain_pos_ < drain_.size() &&
          (heap_.empty() || before(drain_[drain_pos_], heap_[0]))) {
        const Key front = drain_[drain_pos_];
        if (front.when > horizon) break;
        ++drain_pos_;
        dispatch(front);
      } else {
        if (heap_[0].when > horizon) break;
        dispatch(heap_pop());
      }
    }
    if (now_ < horizon) now_ = horizon;
  }

  /// Run until no events remain.
  void run() {
    while (pending_ > 0) step();
  }

  /// Timestamp of the earliest pending event, or SimTime::max() when the
  /// queue is empty. The conservative-window scheduler in sim/parallel
  /// keys its fast-forward off this (drain-until probe); may sort a wheel
  /// tick into the drain buffer, hence non-const.
  [[nodiscard]] SimTime next_time() {
    return pending_ == 0 ? SimTime::max() : next_when();
  }

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  /// Total events dispatched over the loop's lifetime (throughput counter).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  /// What the heap and wheel order: the callback itself stays in its slab
  /// slot from schedule to dispatch.
  struct Key {
    SimTime when;
    std::uint64_t seq;   // deterministic FIFO tie-break at equal times
    std::uint32_t slot;  // index into the task slab
  };
  static_assert(sizeof(Key) <= 24, "event key size budget");

  // Slab geometry: 1024 tasks (64 KiB) per chunk.
  static constexpr unsigned kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  [[nodiscard]] std::int64_t tick_of(SimTime t) const {
    // Floor division; negative times (never scheduled in practice) would
    // round toward zero, so route them through the < cursor heap path.
    return t.ns() / granule_;
  }

  void step() { dispatch(pop_next()); }

  InlineTask& task(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot() {
    if (free_slots_.empty()) grow_slab();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  void grow_slab() {
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() << kChunkShift);
    chunks_.push_back(std::make_unique<InlineTask[]>(kChunkSize));
    // Room for every slot, so freeing a slot never allocates.
    const std::size_t slots = chunks_.size() << kChunkShift;
    if (free_slots_.capacity() < slots) {
      free_slots_.reserve(std::max(slots, 2 * free_slots_.capacity()));
    }
    for (std::uint32_t i = kChunkSize; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }

  /// Run one event in place. Chunks never move, so `cb` stays valid even
  /// if it schedules enough to grow the slab; its slot is freed only after
  /// it returns.
  void dispatch(Key ev) {
    now_ = ev.when;
    --pending_;
    ++executed_;
    InlineTask& cb = task(ev.slot);
    cb();
    cb.reset();
    free_slots_.push_back(ev.slot);
  }

  /// Timestamp of the next event; only valid when pending_ > 0.
  SimTime next_when() {
    maybe_refill();
    const bool have_drain = drain_pos_ < drain_.size();
    if (!have_drain) return heap_[0].when;
    if (heap_.empty() || before(drain_[drain_pos_], heap_[0]))
      return drain_[drain_pos_].when;
    return heap_[0].when;
  }

  Key pop_next() {
    maybe_refill();
    if (drain_pos_ < drain_.size() &&
        (heap_.empty() || before(drain_[drain_pos_], heap_[0]))) {
      return drain_[drain_pos_++];
    }
    return heap_pop();
  }

  /// Lazy wheel drain: refill only when the wheel's next occupied tick
  /// can actually precede the heap front. Draining eagerly would advance
  /// the cursor across empty ticks while earlier heap events still run,
  /// and their near-future successors would then land below the cursor
  /// and be exiled to the heap for good — the wheel starves. Acute in
  /// sharded runs, whose per-shard wheels are ~N× sparser (the cursor
  /// used to overshoot now_ by ~66 ticks on the 8-shard storm).
  void maybe_refill() {
    if (drain_pos_ < drain_.size() || wheel_count_ == 0) return;
    if (!heap_.empty() && tick_of(heap_[0].when) < wheel_next_tick()) {
      return;  // heap front strictly precedes any wheel event
    }
    refill_drain();
  }

  /// Tick of the earliest occupied wheel slot (wheel_count_ > 0 only);
  /// does not move the cursor.
  [[nodiscard]] std::int64_t wheel_next_tick() const {
    const std::size_t start =
        static_cast<std::size_t>(cursor_tick_) & (slots_ - 1);
    return cursor_tick_ + static_cast<std::int64_t>(next_occupied_offset(start));
  }

  /// Advance the cursor to the next non-empty bucket and sort its events
  /// into the drain buffer. New inserts for the drained tick fail the
  /// `tick >= cursor` window check and go to the heap, so the (when, seq)
  /// merge in pop_next() keeps global ordering exact.
  /// The wheel keeps a one-bit-per-slot occupancy bitmap so this is a
  /// ctz word scan, not a walk over empty bucket vectors — sharded runs
  /// leave each shard's wheel ~N× sparser than the legacy loop's, and the
  /// walk used to dominate per-event dispatch cost there.
  void refill_drain() {
    assert(wheel_count_ > 0);
    drain_.clear();
    drain_pos_ = 0;
    const std::size_t start =
        static_cast<std::size_t>(cursor_tick_) & (slots_ - 1);
    cursor_tick_ += static_cast<std::int64_t>(next_occupied_offset(start));
    const std::size_t slot =
        static_cast<std::size_t>(cursor_tick_) & (slots_ - 1);
    ++cursor_tick_;
    occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    drain_.swap(buckets_[slot]);
    wheel_count_ -= drain_.size();
    std::sort(drain_.begin(), drain_.end(), before);
  }

  /// Distance (in slots, circular) from `start` to the first occupied
  /// slot. Only called when wheel_count_ > 0, so a set bit exists; the
  /// wheel invariant (every live tick within [cursor, cursor + slots))
  /// makes slot order equal tick order, so the first set bit from the
  /// cursor is the next non-empty tick.
  [[nodiscard]] std::size_t next_occupied_offset(std::size_t start) const {
    std::size_t word = start >> 6;
    std::uint64_t bits =
        occupancy_[word] & (~std::uint64_t{0} << (start & 63));
    for (;;) {
      if (bits != 0) {
        const std::size_t slot =
            (word << 6) | static_cast<std::size_t>(std::countr_zero(bits));
        return (slot + slots_ - start) & (slots_ - 1);
      }
      word = word + 1 == occupancy_.size() ? 0 : word + 1;
      bits = occupancy_[word];
    }
  }

  void heap_push(Key ev) {
    std::size_t i = heap_.size();
    heap_.push_back(ev);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(ev, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  Key heap_pop() {
    assert(!heap_.empty());
    const Key top = heap_[0];
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  // Hot scalar block first: the per-event loop touches now_/pending_/
  // executed_/drain_pos_/wheel_count_ on every step, so they share the
  // object's first cache line (the class itself is 64-aligned).
  SimTime now_;
  std::size_t pending_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t drain_pos_ = 0;  // consumed prefix of drain_
  std::size_t wheel_count_ = 0;
  std::int64_t cursor_tick_ = 0;

  std::vector<Key> drain_;  // current tick, sorted by (when, seq)

  // 4-ary implicit heap: shallower than binary (better for the sift-down
  // on pop), and a node's 4 children are 96 contiguous bytes of keys.
  std::vector<Key> heap_;

  // Task slab: fixed-size chunks (stable addresses) plus a LIFO free list
  // of slot indices, so a freed slot is reused while still cache-hot.
  std::vector<std::unique_ptr<InlineTask[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;

  // Timer wheel state. Invariant: every bucket holds events of at most one
  // tick value, and that tick is in [cursor_tick_, cursor_tick_ + slots_);
  // occupancy_ bit s is set iff buckets_[s] is non-empty.
  bool wheel_enabled_;
  std::int64_t granule_;
  std::size_t slots_;
  std::vector<std::vector<Key>> buckets_;
  std::vector<std::uint64_t> occupancy_;
};

}  // namespace neutrino::sim
