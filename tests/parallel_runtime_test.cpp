// sim/parallel: ShardedRuntime window scheduling, cross-shard mail
// ordering and determinism, independent of the core model.
#include "sim/parallel/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace neutrino::sim::parallel {
namespace {

// ---------------------------------------------------------------------------
// ShardedRuntime: a ring of shards passing a hop counter around. The link
// latency is 1ms and the lookahead 1ms − 1ns, so every hop crosses a
// window boundary.
// ---------------------------------------------------------------------------

struct HopPayload {
  int hops_left = 0;
};

struct RingRun {
  // Per shard: (sim time ns, hops_left, rng draw) for every hop executed.
  std::vector<std::vector<std::tuple<std::int64_t, int, std::uint64_t>>> logs;
  std::uint64_t windows = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t events = 0;
};

RingRun run_ring(std::size_t shards, std::size_t threads, int hops) {
  using Runtime = ShardedRuntime<HopPayload>;
  Runtime::Config config;
  config.shards = shards;
  config.threads = threads;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  config.rng_seed = 7;
  Runtime rt(config);

  RingRun run;
  run.logs.resize(shards);
  const SimTime link = SimTime::milliseconds(1);

  // The hop body: log, then forward to the next shard in the ring.
  auto hop = [&](std::size_t shard, int hops_left, auto&& self) -> void {
    run.logs[shard].emplace_back(rt.loop(shard).now().ns(), hops_left,
                                 rt.rng(shard).next_u64());
    if (hops_left > 0) {
      rt.post(shard, (shard + 1) % shards, rt.loop(shard).now() + link,
              HopPayload{hops_left - 1});
    }
    (void)self;
  };

  // Every shard starts one token at a slightly different time.
  for (std::size_t s = 0; s < shards; ++s) {
    rt.loop(s).schedule_at(
        SimTime::microseconds(static_cast<std::int64_t>(10 * s)),
        [&, s] { hop(s, hops, hop); });
  }

  rt.run_until(SimTime::seconds(60), [&](std::size_t dst, SimTime arrival,
                                         HopPayload&& p) {
    const int hops_left = p.hops_left;
    rt.loop(dst).schedule_at(arrival, [&, dst, hops_left] {
      hop(dst, hops_left, hop);
    });
  });

  run.windows = rt.stats().windows;
  run.cross_messages = rt.stats().cross_messages;
  run.events = rt.events_executed();
  return run;
}

TEST(ShardedRuntime, RingCompletesAndCrosses) {
  const RingRun run = run_ring(/*shards=*/4, /*threads=*/2, /*hops=*/16);
  // 4 tokens × 17 hop executions (16 forwards each).
  EXPECT_EQ(run.events, 4u * 17u);
  EXPECT_EQ(run.cross_messages, 4u * 16u);
  EXPECT_GT(run.windows, 0u);
  for (const auto& log : run.logs) EXPECT_EQ(log.size(), 17u);
}

TEST(ShardedRuntime, BitIdenticalAcrossThreadCounts) {
  const RingRun one = run_ring(4, 1, 32);
  // 3 threads own shards {0, 3}, {1}, {2}; 8 threads leave four lanes
  // with no shard that still take part in every window's barrier.
  for (const std::size_t threads : {2, 3, 4, 8}) {
    const RingRun other = run_ring(4, threads, 32);
    EXPECT_EQ(one.logs, other.logs) << threads;
    EXPECT_EQ(one.windows, other.windows) << threads;
    EXPECT_EQ(one.cross_messages, other.cross_messages) << threads;
    EXPECT_EQ(one.events, other.events) << threads;
  }
}

TEST(ShardedRuntime, SingleShardRunsOneWindow) {
  // lookahead = max() (no cross traffic possible): the whole horizon is
  // one window — the legacy single-threaded loop with extra bookkeeping.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;  // shards = threads = 1, lookahead = max
  Runtime rt(config);
  std::vector<int> order;
  rt.loop(0).schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  rt.loop(0).schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  rt.run_until(SimTime::seconds(10),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rt.stats().windows, 1u);
  EXPECT_EQ(rt.stats().cross_messages, 0u);
  EXPECT_EQ(rt.loop(0).now(), SimTime::seconds(10));
}

TEST(ShardedRuntime, FastForwardSkipsIdleGaps) {
  // Two event clusters 10s apart with a 1ms lookahead: the window start
  // fast-forwards over the gap instead of stepping 10,000 empty windows.
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 2;
  config.lookahead = SimTime::milliseconds(1);
  Runtime rt(config);
  int ran = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    rt.loop(s).schedule_at(SimTime::nanoseconds(0), [&] { ++ran; });
    rt.loop(s).schedule_at(SimTime::seconds(10), [&] { ++ran; });
  }
  rt.run_until(SimTime::seconds(20),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(rt.stats().windows, 2u);
}

TEST(ShardedRuntime, ChannelOverflowBurstStaysOrdered) {
  // Two sources each post a burst to shard 1 in the same window; the
  // outboxes are unbounded, and shard 1's owner must deliver them in
  // (src, FIFO) order whichever thread ran each source.
  using Runtime = ShardedRuntime<int>;
  constexpr int kBurst = 1000;
  for (const std::size_t threads : {1, 2, 3}) {
    Runtime::Config config;
    config.shards = 3;
    config.threads = threads;
    config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
    Runtime rt(config);
    for (const std::size_t src : {2, 0}) {
      rt.loop(src).schedule_at(SimTime::nanoseconds(0), [&rt, src] {
        for (int i = 0; i < kBurst; ++i) {
          rt.post(src, 1, rt.loop(src).now() + SimTime::milliseconds(1),
                  static_cast<int>(src) * kBurst + i);
        }
      });
    }
    std::vector<int> delivered;
    rt.run_until(SimTime::seconds(1),
                 [&](std::size_t dst, SimTime arrival, int&& v) {
                   EXPECT_EQ(dst, 1u);
                   delivered.push_back(v);
                   rt.loop(dst).schedule_at(arrival, [] {});
                 });
    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(2 * kBurst));
    for (int i = 0; i < kBurst; ++i) {
      EXPECT_EQ(delivered[i], i) << threads;                  // src 0 first
      EXPECT_EQ(delivered[kBurst + i], 2 * kBurst + i) << threads;  // src 2
    }
    EXPECT_EQ(rt.stats().cross_messages, 2u * kBurst);
  }
}

TEST(ShardedRuntime, PerShardRngStreamsAreJumps) {
  using Runtime = ShardedRuntime<int>;
  Runtime::Config config;
  config.shards = 3;
  config.rng_seed = 123;
  Runtime rt(config);
  Rng expect(123);
  for (std::size_t s = 0; s < 3; ++s) {
    Rng copy = expect;
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(rt.rng(s).next_u64(), copy.next_u64());
    }
    expect.jump();
  }
}

}  // namespace
}  // namespace neutrino::sim::parallel
