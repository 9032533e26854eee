// Differential determinism proof for the event loop: the keyed 4-ary heap
// + timer wheel over a task slab must dispatch in the exact (when, seq)
// order the seed's std::priority_queue produced — first on adversarial
// synthetic schedules (slab growth mid-callback, same-nanosecond
// re-entrant schedules, slot reuse across run_until horizons), then on a
// full core workload with crash + replay, where any ordering divergence
// would surface as different counters, latency distributions, or trace
// hop timelines.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "core/msg_pool.hpp"
#include "core/system.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "trace/workload.hpp"

namespace neutrino {
namespace {

/// The seed's event loop, reproduced as the ordering oracle.
class LegacyLoop {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  void schedule_at(SimTime when, std::function<void()> cb) {
    queue_.push(Event{when, next_seq_++, std::move(cb)});
  }
  void schedule_after(SimTime delay, std::function<void()> cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  void run() { run_until(SimTime::max()); }

  void run_until(SimTime horizon) {
    while (!queue_.empty() && queue_.top().when <= horizon) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.callback();
    }
    if (now_ < horizon) now_ = horizon;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> callback;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
};

struct Plan {
  std::int64_t at_ns;
  int id;
};

/// Adversarial schedule: times quantized to force ties (seq tie-breaks),
/// clustered near zero (wheel buckets) with a far-future tail (heap
/// overflow), plus callback-scheduled children landing on already-drained
/// ticks.
std::vector<Plan> make_plans(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Plan> plans;
  plans.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::int64_t at;
    const double dice = rng.next_double();
    if (dice < 0.6) {  // dense near-future cluster, 500ns quanta
      at = static_cast<std::int64_t>(rng.next_below(4'000)) * 500;
    } else if (dice < 0.9) {  // mid-range, still inside the wheel span
      at = static_cast<std::int64_t>(rng.next_below(4'000'000));
    } else {  // beyond the default wheel horizon: heap path
      at = static_cast<std::int64_t>(rng.next_below(400'000'000));
    }
    plans.push_back({at, i});
  }
  return plans;
}

template <typename Loop>
std::vector<int> dispatch_order(Loop& loop, const std::vector<Plan>& plans,
                                const std::vector<std::int64_t>& child_delay) {
  std::vector<int> order;
  order.reserve(plans.size() * 2);
  for (const Plan& p : plans) {
    loop.schedule_at(SimTime::nanoseconds(p.at_ns), [&loop, &order,
                                                     &child_delay, p] {
      order.push_back(p.id);
      if (p.id % 5 == 0) {
        const std::int64_t d =
            child_delay[static_cast<std::size_t>(p.id) % child_delay.size()];
        loop.schedule_after(SimTime::nanoseconds(d),
                            [&order, cid = p.id + 1'000'000] {
                              order.push_back(cid);
                            });
      }
    });
  }
  loop.run();
  return order;
}

TEST(DeterminismPureLoop, MatchesLegacyPriorityQueueOrder) {
  // Child delays include 0 (same-timestamp reschedule onto a drained
  // tick) and assorted magnitudes spanning wheel and heap placement.
  const std::vector<std::int64_t> child_delay = {0,     1,       499,
                                                 500,   12'345,  1'000'000,
                                                 3'000, 900'000, 50'000'000};
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    const std::vector<Plan> plans = make_plans(seed, 4000);

    LegacyLoop legacy;
    const std::vector<int> want =
        dispatch_order(legacy, plans, child_delay);
    ASSERT_GT(want.size(), plans.size());  // children actually ran

    for (const bool wheel : {true, false}) {
      sim::EventLoop::Config cfg;
      cfg.use_timer_wheel = wheel;
      sim::EventLoop loop(cfg);
      const std::vector<int> got = dispatch_order(loop, plans, child_delay);
      ASSERT_EQ(got, want) << "seed " << seed << " wheel " << wheel;
    }
  }
}

TEST(DeterminismPureLoop, CoarseWheelGranularityPreservesOrder) {
  // 64us ticks put many distinct timestamps in one bucket: the sorted
  // drain must still interleave them with heap events exactly.
  const std::vector<std::int64_t> child_delay = {0, 100, 64'000, 7'777'777};
  const std::vector<Plan> plans = make_plans(99, 3000);
  LegacyLoop legacy;
  const std::vector<int> want = dispatch_order(legacy, plans, child_delay);

  sim::EventLoop::Config cfg;
  cfg.wheel_granularity_ns = 64'000;
  cfg.wheel_slots = 64;
  sim::EventLoop loop(cfg);
  EXPECT_EQ(dispatch_order(loop, plans, child_delay), want);
}

/// Runs `script` on the legacy oracle and on the keyed loop with the
/// wheel on and off; all three must record the same dispatch order.
template <typename Script>
void expect_matches_legacy(Script script) {
  LegacyLoop legacy;
  const std::vector<int> want = script(legacy);
  ASSERT_FALSE(want.empty());
  for (const bool wheel : {true, false}) {
    sim::EventLoop::Config cfg;
    cfg.use_timer_wheel = wheel;
    sim::EventLoop loop(cfg);
    EXPECT_EQ(script(loop), want) << "wheel " << wheel;
  }
}

TEST(DeterminismPureLoop, SlabGrowthInsideACallbackPreservesOrder) {
  // One callback schedules 12K events from inside itself, growing the
  // task slab by several chunks while it runs, then reads its own
  // (48-byte, inline) captures: they live in the slab, so a slab that
  // moved its tasks would fail here (and under ASan).
  expect_matches_legacy([](auto& loop) {
    std::vector<int> order;
    const std::vector<std::int64_t> delays = {0, 1, 700, 1'000, 65'000,
                                              5'000'000};
    loop.schedule_at(SimTime::nanoseconds(3'000), [&order] {
      order.push_back(-1);
    });
    loop.schedule_at(
        SimTime::nanoseconds(3'000),
        [&loop, &order, &delays, tag = 7, pad = std::array<int, 4>{1, 2, 3, 4}] {
          for (int i = 0; i < 12'000; ++i) {
            const std::int64_t d =
                delays[static_cast<std::size_t>(i) % delays.size()] + i % 3;
            loop.schedule_after(SimTime::nanoseconds(d), [&order, i] {
              order.push_back(i);
            });
          }
          order.push_back(-tag * 100 - pad[0] - pad[3]);
        });
    loop.schedule_at(SimTime::nanoseconds(3'000), [&order] {
      order.push_back(-2);
    });
    loop.run();
    return order;
  });
}

TEST(DeterminismPureLoop, SameNanosecondReentrantSchedulesPreserveOrder) {
  // Events at one timestamp schedule children at now() — a tick the wheel
  // has already drained — which schedule grandchildren at now() again,
  // interleaved with pre-scheduled peers at the same and the next ns.
  expect_matches_legacy([](auto& loop) {
    std::vector<int> order;
    std::function<void(int, int)> spawn = [&](int id, int depth) {
      order.push_back(id);
      if (depth == 0) return;
      for (int k = 0; k < 3; ++k) {
        loop.schedule_after(SimTime{}, [&spawn, id, depth, k] {
          spawn(id * 4 + k + 1, depth - 1);
        });
      }
    };
    for (int i = 0; i < 40; ++i) {
      const SimTime at = SimTime::nanoseconds(5'000 + i % 2);
      loop.schedule_at(at, [&spawn, i] { spawn(10'000 * (i + 1), 4); });
    }
    loop.run();
    return order;
  });
}

TEST(DeterminismPureLoop, SlotReuseAcrossRunUntilHorizonsPreservesOrder) {
  // Rounds of run_until with fresh schedules in between: every round
  // frees slots that the next round's schedules reuse while older keys
  // (some far past the horizon, on the heap) are still queued.
  expect_matches_legacy([](auto& loop) {
    std::vector<int> order;
    Rng rng(42);
    int next_id = 0;
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 150; ++i) {
        const int id = next_id++;
        const double dice = rng.next_double();
        const std::int64_t ahead =
            dice < 0.7   ? static_cast<std::int64_t>(rng.next_below(50'000))
            : dice < 0.9 ? static_cast<std::int64_t>(rng.next_below(5'000'000))
                         : static_cast<std::int64_t>(rng.next_below(90'000'000));
        loop.schedule_after(SimTime::nanoseconds(ahead), [&loop, &order, id] {
          order.push_back(id);
          if (id % 7 == 0) {
            loop.schedule_after(SimTime::nanoseconds(id % 3 * 1'000),
                                [&order, id] { order.push_back(-id - 1); });
          }
        });
      }
      loop.run_until(loop.now() + SimTime::nanoseconds(20'000));
    }
    loop.run();
    return order;
  });
}

TEST(DeterminismPureLoop, DestroyingLoopWithPendingHandlesReturnsSlots) {
  // A loop torn down mid-run while its pending tasks still hold MsgPool
  // handles: every slot goes back to the (still live) pool, and each of
  // those handles counts as abandoned (neither taken nor discarded).
  for (const bool wheel : {true, false}) {
    core::MsgPool pool;
    std::uint64_t delivered = 0;
    std::size_t pending = 0;
    {
      sim::EventLoop::Config cfg;
      cfg.use_timer_wheel = wheel;
      sim::EventLoop loop(cfg);
      for (int i = 0; i < 3'000; ++i) {
        core::Msg m;
        m.proc_seq = static_cast<std::uint64_t>(i);
        loop.schedule_at(SimTime::nanoseconds(i % 50 * 97'000 + i),
                         [&delivered, h = pool.acquire(std::move(m))]() mutable {
                           (void)h.take();
                           ++delivered;
                         });
      }
      loop.run_until(SimTime::nanoseconds(2'000'000));
      pending = loop.pending();
      ASSERT_GT(pending, 0u);
      ASSERT_GT(delivered, 0u);
      EXPECT_EQ(pool.outstanding(), pending) << "wheel " << wheel;
    }
    EXPECT_EQ(pool.outstanding(), 0u) << "wheel " << wheel;
    EXPECT_EQ(pool.abandoned(), pending) << "wheel " << wheel;
    EXPECT_EQ(delivered + pending, 3'000u);
  }
}

// ---------------------------------------------------------------------------
// Core workload differential: wheel on vs off across a crash + replay
// scenario. The wheel is a pure optimization; if it reordered anything,
// the protocol's message interleaving — and with it the counters, the
// latency distributions, and each procedure's hop timeline — would drift.

struct CoreRun {
  core::Metrics metrics;
  std::string trace_dump;
};

CoreRun run_core_workload(bool use_wheel) {
  sim::EventLoop::Config cfg;
  cfg.use_timer_wheel = use_wheel;
  sim::EventLoop loop(cfg);
  core::Metrics metrics;
  core::FixedCostModel costs{SimTime::microseconds(10)};
  core::TopologyConfig topo;
  topo.l1_per_l2 = 2;  // two regions: handovers are part of the mix
  core::ProtocolConfig proto;
  proto.ack_timeout = SimTime::milliseconds(500);
  proto.log_scan_interval = SimTime::milliseconds(100);
  core::System system(loop, core::neutrino_policy(), topo, proto, costs,
                      metrics);

  obs::TracerConfig tc;
  tc.record_events = true;
  tc.keep_all = true;
  obs::ProcTracer tracer(tc, &metrics.registry);
  system.attach_tracer(tracer);

  trace::ProcedureMix mix;
  mix.service_request = 0.5;
  mix.handover = 0.1;
  trace::UniformWorkload workload(/*rate_pps=*/1000,
                                  SimTime::milliseconds(500), mix,
                                  /*seed=*/11);
  const auto t = workload.generate(/*ue_population=*/120, /*regions=*/2);
  trace::replay(system, t);

  // Mid-storm crash of a loaded CPF, restored shortly after: exercises
  // replay recovery and checkpoint retransmission under both loops.
  const CpfId doomed = system.primary_cpf_for(UeId{0}, 0);
  loop.schedule_at(SimTime::milliseconds(120),
                   [&system, doomed] { system.crash_cpf(doomed); });
  loop.schedule_at(SimTime::milliseconds(320),
                   [&system, doomed] { system.restore_cpf(doomed); });

  loop.run_until(SimTime::seconds(5));
  return {std::move(metrics), tracer.dump_json().dump(0)};
}

TEST(DeterminismCoreWorkload, WheelOnAndOffProduceIdenticalRuns) {
  CoreRun wheel = run_core_workload(true);
  CoreRun heap = run_core_workload(false);

  // Sanity: the scenario actually exercised the interesting paths.
  EXPECT_GT(wheel.metrics.procedures_completed, 400u);
  EXPECT_GT(wheel.metrics.replays + wheel.metrics.failovers +
                wheel.metrics.reattaches,
            0u);
  EXPECT_EQ(wheel.metrics.ryw_violations, 0u);

  EXPECT_EQ(wheel.metrics.procedures_started,
            heap.metrics.procedures_started);
  EXPECT_EQ(wheel.metrics.procedures_completed,
            heap.metrics.procedures_completed);
  EXPECT_EQ(wheel.metrics.replays, heap.metrics.replays);
  EXPECT_EQ(wheel.metrics.failovers, heap.metrics.failovers);
  EXPECT_EQ(wheel.metrics.reattaches, heap.metrics.reattaches);
  EXPECT_EQ(wheel.metrics.checkpoints_sent, heap.metrics.checkpoints_sent);
  EXPECT_EQ(wheel.metrics.checkpoint_acks, heap.metrics.checkpoint_acks);
  EXPECT_EQ(wheel.metrics.log_appends, heap.metrics.log_appends);
  EXPECT_EQ(wheel.metrics.ryw_violations, heap.metrics.ryw_violations);

  // Latency distributions must match to the last bit: same samples in
  // the same order.
  for (std::size_t i = 0; i < core::Metrics::kProcTypes; ++i) {
    const auto a = wheel.metrics.pct[i].summary();
    const auto b = heap.metrics.pct[i].summary();
    EXPECT_EQ(a.count, b.count) << "proc " << i;
    EXPECT_EQ(a.mean, b.mean) << "proc " << i;
    EXPECT_EQ(a.p50, b.p50) << "proc " << i;
    EXPECT_EQ(a.p99, b.p99) << "proc " << i;
    EXPECT_EQ(a.max, b.max) << "proc " << i;
  }

  // And every traced procedure's hop-by-hop timeline is identical.
  EXPECT_EQ(wheel.trace_dump, heap.trace_dump);
}

}  // namespace
}  // namespace neutrino
