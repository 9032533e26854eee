// Sharded discrete-event runtime: conservative time windows over N shards.
//
// Each shard owns a full EventLoop (and, at the core layer, its slice of
// the topology, a MsgPool, an RNG stream, and per-shard metrics). Shards
// advance in lock-step windows
//
//     [W, W + lookahead]   where W = min over shards of next_time()
//
// with `lookahead` strictly smaller than the minimum latency of any
// cross-shard link. An event executing at time t during the window sends
// across shards with arrival = t + link; t ≥ W and link > lookahead give
// arrival > W + lookahead, i.e. strictly after the window end (asserted
// in post()). No shard can receive a message for a time it has already
// executed past, so intra-window execution needs no synchronization at
// all: plain single-threaded EventLoop runs, plain vector appends for
// cross-shard sends, and one barrier per window.
//
// Adaptive lookahead (Config::adaptive_lookahead, DESIGN.md §16) keeps
// that invariant but sizes each shard's horizon individually from the
// earliest *possible* cross-shard arrival instead of the worst case:
//
//     end(dst) = min over src≠dst of (next_time(src) + link_floor(src,dst))
//                − 1ns
//
// A message from src reaches dst no earlier than src's first pending
// event plus the cheapest src→dst link — unless mail sent to src inside
// the same window creates an earlier event there, a chain this bound does
// not cover yet (DESIGN.md §16, known defect). Because next_time(src) ≥ W
// and link_floor ≥ lookahead + 1ns, end(dst) is never narrower than the
// static window — and when the other shards are quiet (their next events
// far away), dst's horizon widens to match, collapsing entire idle
// stretches into one window. The bound is computed from sim state alone (no wall clock, no
// thread identity), so schedules — and therefore all results — remain
// bit-identical across runs and worker-thread counts.
//
// Mail: each ordered shard pair (src, dst) has two outboxes, indexed by
// window parity. During a window, src appends to the current parity and
// lowers its per-pair minimum arrival; at the start of the next window,
// the thread that owns dst delivers the previous parity's boxes in
// (src, FIFO) order before dst runs anything else. The barrier between
// the two windows is the only synchronization edge either side needs.
//
// Determinism (the hard requirement, see DESIGN.md §11): for a fixed
// shard count the results are bit-identical across runs *and across
// worker-thread counts* because (a) each shard's intra-window execution
// is sequential on one thread in (when, seq) order, (b) each destination
// loop receives its cross-shard deliveries in fixed (src shard, FIFO)
// order at a fixed point of its own insertion sequence — after its
// previous window, before its next — so it assigns them the same seq
// numbers no matter how threads interleaved, and (c) per-shard RNG
// streams are fixed 2^128-jumps of one seed. The scheduling step reads
// next_time(dst) as min(loop next_time, earliest pending arrival into
// dst), which is exactly the loop's next_time after delivery. With one
// shard there are no windows to split on (lookahead = ∞ ⇒ one window to
// the horizon), so the run is the legacy single-threaded loop, exactly.
//
// Thread model: run_until() spawns (threads − 1) workers; the calling
// thread is thread 0, so threads=1 spawns nothing and never touches a
// barrier. Shard i always runs on thread i % threads: its loop, inbox and
// (at the core layer) MsgPool are touched by one core only. The last
// thread to reach the window's barrier runs the scheduling step for the
// next window. Ownership affects wall-clock only, never results.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "sim/event_loop.hpp"
#include "sim/parallel/barrier.hpp"

namespace neutrino::sim::parallel {

template <class Payload>
class ShardedRuntime {
 public:
  struct Config {
    std::size_t shards = 1;
    std::size_t threads = 1;
    /// Maximum window length. Must be strictly less than the minimum
    /// cross-shard link latency (callers pass min_link − 1ns). max()
    /// means "no cross-shard traffic allowed": one window to the horizon.
    SimTime lookahead = SimTime::max();
    /// Widen each shard's window to the earliest possible cross-shard
    /// arrival (see header). Never narrower than the static window, and
    /// deterministic; off by default so bare-runtime tests keep the
    /// classic fixed-width window schedule.
    bool adaptive_lookahead = false;
    /// Minimum src→dst message latency, indexed [src * shards + dst]
    /// (diagonal unused). Empty means "uniform": every pair floors at
    /// lookahead + 1ns, which is the tightest bound consistent with the
    /// static-lookahead contract. Only read when adaptive_lookahead.
    std::vector<SimTime> link_floor;
    EventLoop::Config loop;
    std::uint64_t rng_seed = 1;
    int spin_budget = -1;  ///< −1: auto (parks immediately if oversubscribed)
  };

  struct Stats {
    std::uint64_t windows = 0;          ///< barrier-bounded windows executed
    std::uint64_t cross_messages = 0;   ///< envelopes posted across shards
    /// Shard-windows whose adaptive horizon exceeded the static bound.
    std::uint64_t adaptive_extensions = 0;
    /// Shard-windows skipped entirely (no event before the shard's end).
    std::uint64_t dispatches_skipped = 0;
  };

  /// One conservative window as seen by the scheduler (sim-time bounds,
  /// cross-shard traffic, and per-shard events executed). Deterministic —
  /// derived purely from sim state — so it is safe to export (the Perfetto
  /// shard tracks in obs/trace_export.hpp) and to compare across thread
  /// counts. Collected only after enable_window_log().
  struct WindowRecord {
    SimTime start;
    SimTime end;
    std::uint64_t cross_messages = 0;       ///< posted during this window
    std::vector<std::uint64_t> executed;    ///< per-shard events this window
  };

  explicit ShardedRuntime(const Config& config)
      : n_(config.shards),
        threads_(config.threads == 0 ? 1 : config.threads),
        lookahead_(config.lookahead),
        adaptive_(config.adaptive_lookahead),
        link_floor_(config.link_floor),
        lines_per_row_((n_ + kPerLine - 1) / kPerLine),
        barrier_(threads_, config.spin_budget >= 0
                               ? config.spin_budget
                               : PhaseBarrier::default_spin_budget(threads_)) {
    assert(n_ >= 1);
    assert(lookahead_.ns() > 0);
    assert(link_floor_.empty() || link_floor_.size() == n_ * n_);
    next_times_.assign(n_, SimTime{});
    shard_ends_.assign(n_, SimTime{});
    inbox_min_.assign(n_, SimTime::max());
    loops_.reserve(n_);
    rngs_.reserve(n_);
    Rng stream(config.rng_seed);
    for (std::size_t i = 0; i < n_; ++i) {
      loops_.emplace_back(config.loop);
      rngs_.push_back(stream);  // shard i = seed jumped i times
      stream.jump();
    }
    for (std::vector<Outbox>& boxes : outboxes_) boxes.resize(n_ * n_);
    min_arrival_.resize(n_ * lines_per_row_);
    for (ArrivalLine& line : min_arrival_) line.min.fill(SimTime::max());
    posted_.resize(n_);
  }

  [[nodiscard]] std::size_t shards() const { return n_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }
  EventLoop& loop(std::size_t shard) { return loops_[shard]; }
  Rng& rng(std::size_t shard) { return rngs_[shard]; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attach a wall-clock phase profiler (null detaches). Lanes: dispatch
  /// and inbox drains are attributed to the shard's lane; barrier waits,
  /// and the scheduling step, to the thread's lane (caller = 0, workers =
  /// 1..threads−1). The profiler must have ≥ max(shards, threads) lanes
  /// and outlive run_until(). Wall-clock only — never feeds any
  /// deterministic output (DESIGN.md §15).
  void set_profiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }

  /// Start recording per-window activity (bounded: recording stops after
  /// `max_windows`; window_log_truncated() tells).
  void enable_window_log(std::size_t max_windows = 2048) {
    window_log_max_ = max_windows;
    window_log_.clear();
    window_log_.reserve(max_windows < 256 ? max_windows : 256);
    prev_executed_.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) prev_executed_[i] = loops_[i].executed();
  }
  [[nodiscard]] const std::vector<WindowRecord>& window_log() const {
    return window_log_;
  }
  [[nodiscard]] bool window_log_truncated() const {
    return window_log_max_ > 0 && stats_.windows > window_log_.size();
  }

  /// Total events dispatched across all shard loops.
  [[nodiscard]] std::uint64_t events_executed() const {
    std::uint64_t total = 0;
    for (const EventLoop& l : loops_) total += l.executed();
    return total;
  }

  /// Producer-side cross-shard send; called from shard `from`'s events
  /// during a window. `arrival` must land strictly after the current
  /// window (guaranteed when the link latency exceeds the lookahead).
  void post(std::size_t from, std::size_t to, SimTime arrival,
            Payload payload) {
    assert(from < n_ && to < n_ && from != to);
    // The destination's own horizon is the safety line: with adaptive
    // windows a shard may run far past other shards' ends, but nothing may
    // arrive at `to` at or before the point `to` executes to this window.
    assert(!in_window_ || arrival > shard_ends_[to]);
    // Plain writes: the row, the count and the box have a single writer
    // (the thread that owns shard `from`), and the window's barrier
    // publishes them to the scheduler and to the owner of `to`.
    outboxes_[parity_][from * n_ + to].entries.push_back(
        Entry{arrival, std::move(payload)});
    SimTime& floor = min_arrival(from, to);
    floor = std::min(floor, arrival);
    ++posted_[from].count;
  }

  /// Run all shards to `horizon` (events at exactly `horizon` still run).
  /// `deliver(dst_shard, arrival, Payload&&)` is invoked on the thread
  /// that owns dst_shard, at the start of the window after the send, for
  /// every cross-shard message in deterministic (src, FIFO) order; it
  /// must schedule the payload onto loop(dst_shard) at `arrival`, and may
  /// touch only dst_shard's state.
  template <class Deliver>
  void run_until(SimTime horizon, Deliver&& deliver) {
    horizon_ = horizon;
    {
      auto sched =
          obs::PhaseProfiler::scoped(profiler_, 0, obs::Phase::kSchedule);
      stats_.cross_messages += collect_mail();
      running_ = schedule();
    }
    if (running_) {
      std::vector<std::thread> workers;
      workers.reserve(threads_ - 1);
      for (std::size_t t = 1; t < threads_; ++t) {
        workers.emplace_back([this, t, &deliver] { thread_loop(t, deliver); });
      }
      thread_loop(0, deliver);
      for (std::thread& w : workers) w.join();
    }
    // Mail sent in the last window is due past the horizon: deliver it in
    // fixed (dst, src, FIFO) order, so the next run_until finds it queued.
    for (std::size_t dst = 0; dst < n_; ++dst) drain_inbox(dst, deliver);
    // Clock parity with a plain run_until on a single loop: every shard's
    // now() advances to the horizon (events beyond it stay pending).
    for (EventLoop& l : loops_) l.run_until(horizon);
  }

 private:
  struct Entry {
    SimTime arrival;
    Payload payload;
  };
  // One box per (src, dst) pair and parity, each on its own cache line:
  // the producer appends to the current parity while the destination's
  // owner clears the previous one.
  struct alignas(64) Outbox {
    std::vector<Entry> entries;
  };
  static constexpr std::size_t kPerLine = 64 / sizeof(SimTime);
  struct alignas(64) ArrivalLine {
    std::array<SimTime, kPerLine> min;
  };
  struct alignas(64) PostCount {
    std::uint64_t count = 0;
  };

  /// Earliest arrival src posted to dst this window (max() = none). Each
  /// source's row spans whole cache lines.
  SimTime& min_arrival(std::size_t src, std::size_t dst) {
    return min_arrival_[src * lines_per_row_ + dst / kPerLine]
        .min[dst % kPerLine];
  }

  /// One thread's share of the run: shards t, t + threads, ... every
  /// window, then the window's barrier.
  template <class Deliver>
  void thread_loop(std::size_t t, Deliver& deliver) {
    do {
      for (std::size_t i = t; i < n_; i += threads_) {
        drain_inbox(i, deliver);
        // Idle skip: nothing to run before this shard's horizon (counted
        // by the scheduler, so the loop stays write-free).
        if (next_times_[i] > shard_ends_[i]) continue;
        auto dispatch =
            obs::PhaseProfiler::scoped(profiler_, i, obs::Phase::kDispatch);
        loops_[i].run_until(shard_ends_[i]);
      }
    } while (end_window(t));
  }

  /// Deliver the previous window's mail into `dst`, in (src, FIFO) order.
  template <class Deliver>
  void drain_inbox(std::size_t dst, Deliver& deliver) {
    if (inbox_min_[dst] == SimTime::max()) return;  // nothing was sent
    auto drain =
        obs::PhaseProfiler::scoped(profiler_, dst, obs::Phase::kChannelDrain);
    std::vector<Outbox>& boxes = outboxes_[parity_ ^ 1];
    for (std::size_t src = 0; src < n_; ++src) {
      std::vector<Entry>& entries = boxes[src * n_ + dst].entries;
      for (Entry& e : entries) deliver(dst, e.arrival, std::move(e.payload));
      entries.clear();
    }
  }

  /// Thread t's arrival at the window's single barrier; the last arriver
  /// closes the window and schedules the next. Returns whether another
  /// window runs.
  bool end_window(std::size_t t) {
    using Clock = std::chrono::steady_clock;
    if (threads_ == 1) {
      auto sched =
          obs::PhaseProfiler::scoped(profiler_, t, obs::Phase::kSchedule);
      close_window();
      return running_;
    }
    if (profiler_ == nullptr) {
      barrier_.arrive_and_wait([this] { close_window(); });
      return running_;
    }
    // The completion step runs inside the wait: attribute it to kSchedule
    // and only the remainder to kBarrierWait.
    Clock::duration sched{};
    const Clock::time_point start = Clock::now();
    barrier_.arrive_and_wait([&] {
      const Clock::time_point s = Clock::now();
      close_window();
      sched = Clock::now() - s;
    });
    const Clock::duration total = Clock::now() - start;
    const auto ns = [](Clock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    if (sched != Clock::duration{}) {
      profiler_->add(t, obs::Phase::kSchedule, ns(sched));
    }
    profiler_->add(t, obs::Phase::kBarrierWait, ns(total - sched));
    return running_;
  }

  /// Serial step between windows (every thread is parked at the barrier).
  void close_window() {
    const std::uint64_t posted = collect_mail();
    stats_.cross_messages += posted;
    if (window_log_max_ > 0 && window_log_.size() < window_log_max_) {
      WindowRecord rec;
      rec.start = window_start_;
      rec.end = window_end_;
      rec.cross_messages = posted;
      rec.executed.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        const std::uint64_t now_exec = loops_[i].executed();
        rec.executed[i] = now_exec - prev_executed_[i];
        prev_executed_[i] = now_exec;
      }
      window_log_.push_back(std::move(rec));
    }
    running_ = schedule();
  }

  /// Fold the mail posted since the last flip into each destination's
  /// earliest arrival, and flip the outbox parity so that mail becomes
  /// the inboxes the next window drains. Returns the entries posted.
  std::uint64_t collect_mail() {
    std::fill(inbox_min_.begin(), inbox_min_.end(), SimTime::max());
    std::uint64_t posted = 0;
    for (std::size_t src = 0; src < n_; ++src) {
      if (posted_[src].count == 0) continue;  // row untouched
      posted += posted_[src].count;
      posted_[src].count = 0;
      for (std::size_t dst = 0; dst < n_; ++dst) {
        SimTime& floor = min_arrival(src, dst);
        inbox_min_[dst] = std::min(inbox_min_[dst], floor);
        floor = SimTime::max();
      }
    }
    parity_ ^= 1;
    return posted;
  }

  /// Plan the next window from sim state alone: each shard's next event
  /// (its loop's, or the earliest mail waiting for it), the window start,
  /// and every shard's end. Returns false when nothing is left to run
  /// before the horizon.
  bool schedule() {
    in_window_ = false;
    SimTime window_start = SimTime::max();
    for (std::size_t i = 0; i < n_; ++i) {
      // Mail lands at max(arrival, now()), as deliver() schedules it
      // (core::System::deliver_envelope). The max is a no-op while every
      // arrival lies past the destination's clock; the adaptive bound does
      // not guarantee that yet (ROADMAP item 3).
      const SimTime mail = std::max(inbox_min_[i], loops_[i].now());
      next_times_[i] = std::min(loops_[i].next_time(), mail);
      window_start = std::min(window_start, next_times_[i]);
    }
    if (window_start == SimTime::max() || window_start > horizon_) {
      return false;
    }
    const SimTime static_end = window_end_for(window_start, horizon_);
    window_start_ = window_start;
    window_end_ = static_end;
    if (adaptive_ && lookahead_ != SimTime::max()) {
      for (std::size_t dst = 0; dst < n_; ++dst) {
        // Earliest instant a cross-shard message could reach dst: some
        // other shard's first pending event plus the cheapest link in.
        SimTime bound = SimTime::max();
        for (std::size_t src = 0; src < n_; ++src) {
          if (src == dst) continue;
          bound = std::min(bound, arrival_floor(src, dst));
        }
        SimTime end =
            bound == SimTime::max()
                ? horizon_
                : std::min(horizon_, bound - SimTime::nanoseconds(1));
        // Provably ≥ static_end (next_time ≥ W, floor ≥ lookahead+1ns);
        // the max() guards against a caller-supplied floor below the
        // static lookahead contract.
        end = std::max(end, static_end);
        shard_ends_[dst] = end;
        if (end > static_end) ++stats_.adaptive_extensions;
        if (next_times_[dst] > end) ++stats_.dispatches_skipped;
        window_end_ = std::max(window_end_, end);
      }
    } else {
      for (std::size_t dst = 0; dst < n_; ++dst) {
        shard_ends_[dst] = static_end;
        if (next_times_[dst] > static_end) ++stats_.dispatches_skipped;
      }
    }
    in_window_ = true;
    ++stats_.windows;
    return true;
  }

  [[nodiscard]] SimTime window_end_for(SimTime start, SimTime horizon) const {
    if (lookahead_ == SimTime::max()) return horizon;
    if (start.ns() > SimTime::max().ns() - lookahead_.ns()) return horizon;
    return std::min(start + lookahead_, horizon);
  }

  /// Earliest sim time a message from `src` could arrive at `dst` given
  /// src's current next_time — saturating, so quiet shards (next_time at
  /// or near max()) impose no bound instead of wrapping.
  [[nodiscard]] SimTime arrival_floor(std::size_t src, std::size_t dst) const {
    const SimTime floor = link_floor_.empty()
                              ? lookahead_ + SimTime::nanoseconds(1)
                              : link_floor_[src * n_ + dst];
    const SimTime t = next_times_[src];
    if (t.ns() > SimTime::max().ns() - floor.ns()) return SimTime::max();
    return t + floor;
  }

  const std::size_t n_;
  const std::size_t threads_;
  const SimTime lookahead_;
  const bool adaptive_;
  const std::vector<SimTime> link_floor_;  // [src * n_ + dst], may be empty
  const std::size_t lines_per_row_;
  std::vector<EventLoop> loops_;
  std::vector<Rng> rngs_;

  // Mail. Producers write outboxes_[parity_] and their own rows of
  // min_arrival_ / posted_; owners drain outboxes_[parity_ ^ 1].
  std::array<std::vector<Outbox>, 2> outboxes_;  // [parity][src * n_ + dst]
  std::vector<ArrivalLine> min_arrival_;         // per src: lines_per_row_
  std::vector<PostCount> posted_;                // per src
  std::size_t parity_ = 0;

  PhaseBarrier barrier_;
  // Written only by the scheduling step, while every other thread is
  // parked; the barrier publishes them to the next window.
  SimTime horizon_;
  SimTime window_start_;
  SimTime window_end_;                // max over shard_ends_ (window log)
  std::vector<SimTime> next_times_;   // per-shard next event or mail
  std::vector<SimTime> shard_ends_;   // per-shard inclusive run horizon
  std::vector<SimTime> inbox_min_;    // per-shard earliest waiting mail
  bool running_ = false;
  bool in_window_ = false;

  Stats stats_;

  // Observability (scheduler-only state; workers touch only profiler_,
  // whose cells are atomic).
  obs::PhaseProfiler* profiler_ = nullptr;
  std::size_t window_log_max_ = 0;
  std::vector<WindowRecord> window_log_;
  std::vector<std::uint64_t> prev_executed_;
};

}  // namespace neutrino::sim::parallel
