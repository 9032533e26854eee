// Adaptive lookahead window math (DESIGN.md §16), at the bare runtime
// layer: horizon clamping, quiet-channel widening, overflow saturation
// near SimTime::max(), and thread-count independence with adaptation on.
//
// The contract under test: adaptive windows are never narrower than the
// static schedule, never admit a cross-shard message at or before a
// shard's horizon, and are a pure function of sim state — so outcomes
// (not just aggregates) are bit-identical across worker-thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/parallel/runtime.hpp"

namespace neutrino::sim::parallel {
namespace {

using Runtime = ShardedRuntime<int>;

Runtime::Config two_shard_config(bool adaptive) {
  Runtime::Config config;
  config.shards = 2;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  config.adaptive_lookahead = adaptive;
  return config;
}

// ---------------------------------------------------------------------------
// Quiet-channel widening: when the only other shard has no pending work,
// the adaptive bound disappears and the whole horizon collapses into one
// window. The static schedule pays one window per event cluster.
// ---------------------------------------------------------------------------

TEST(AdaptiveLookahead, QuietShardCollapsesWindows) {
  constexpr int kClusters = 50;
  auto run = [&](bool adaptive) {
    Runtime rt(two_shard_config(adaptive));
    std::vector<std::int64_t> fired;
    for (int i = 0; i < kClusters; ++i) {
      // Clusters 10ms apart, far beyond the 1ms static lookahead.
      rt.loop(0).schedule_at(SimTime::milliseconds(10 * i), [&] {
        fired.push_back(rt.loop(0).now().ns());
      });
    }
    rt.run_until(SimTime::seconds(1),
                 [](std::size_t, SimTime, int&&) { FAIL(); });
    return std::pair{fired, rt.stats()};
  };
  const auto [static_fired, static_stats] = run(false);
  const auto [adaptive_fired, adaptive_stats] = run(true);

  EXPECT_EQ(static_fired, adaptive_fired);  // same events, same times
  EXPECT_EQ(static_stats.windows, static_cast<std::uint64_t>(kClusters));
  // Shard 1 is empty for the whole run: no arrival bound, one window.
  EXPECT_EQ(adaptive_stats.windows, 1u);
  EXPECT_GT(adaptive_stats.adaptive_extensions, 0u);
  // The empty shard never dispatches.
  EXPECT_GT(adaptive_stats.dispatches_skipped, 0u);
}

// ---------------------------------------------------------------------------
// The adaptive end is clamped to the horizon even when the bound computes
// past it: events beyond run_until()'s horizon stay pending.
// ---------------------------------------------------------------------------

TEST(AdaptiveLookahead, ClampsToHorizon) {
  Runtime rt(two_shard_config(true));
  int ran = 0;
  rt.loop(0).schedule_at(SimTime::milliseconds(5), [&] { ++ran; });
  rt.loop(0).schedule_at(SimTime::milliseconds(500), [&] { ++ran; });
  rt.run_until(SimTime::milliseconds(100),
               [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(ran, 1);  // the 500ms event sits past the horizon
  EXPECT_EQ(rt.stats().windows, 1u);
  EXPECT_EQ(rt.loop(0).now(), SimTime::milliseconds(100));
}

// ---------------------------------------------------------------------------
// Overflow: next_time near SimTime::max() must saturate in the arrival
// floor instead of wrapping into a bound in the past.
// ---------------------------------------------------------------------------

TEST(AdaptiveLookahead, SaturatesNearMaxSimTime) {
  Runtime rt(two_shard_config(true));
  const SimTime late = SimTime::max() - SimTime::nanoseconds(1);
  int ran = 0;
  rt.loop(0).schedule_at(late, [&] { ++ran; });
  rt.loop(1).schedule_at(late, [&] { ++ran; });
  rt.run_until(SimTime::max(), [](std::size_t, SimTime, int&&) { FAIL(); });
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(rt.stats().windows, 1u);
}

// ---------------------------------------------------------------------------
// A caller-supplied link_floor below lookahead + 1ns must not narrow the
// window below the static contract (the max() guard in run_until).
// ---------------------------------------------------------------------------

TEST(AdaptiveLookahead, FloorNeverNarrowsBelowStatic) {
  Runtime::Config config = two_shard_config(true);
  // Degenerate floor: 1ns everywhere — tighter than the static contract
  // allows, so the guard must win.
  config.link_floor.assign(4, SimTime::nanoseconds(1));
  Runtime rt(config);
  Runtime rt_static(two_shard_config(false));
  for (auto* r : {&rt, &rt_static}) {
    for (int i = 0; i < 20; ++i) {
      r->loop(0).schedule_at(SimTime::microseconds(100 * i), [] {});
      r->loop(1).schedule_at(SimTime::microseconds(100 * i + 50), [] {});
    }
    r->run_until(SimTime::milliseconds(100),
                 [](std::size_t, SimTime, int&&) { FAIL(); });
  }
  // Both shards stay busy inside one static window, so the degenerate
  // floor cannot shrink anything: same schedule as static.
  EXPECT_EQ(rt.stats().windows, rt_static.stats().windows);
  EXPECT_EQ(rt.events_executed(), rt_static.events_executed());
}

// ---------------------------------------------------------------------------
// Cross-traffic with adaptation on: the ring workload from
// parallel_runtime_test, with per-hop logs compared across thread counts
// {1, 2, 3, 4, 8}. Window schedules may differ from static — outcomes, hop
// times and RNG draws may not differ across threads.
// ---------------------------------------------------------------------------

struct HopPayload {
  int hops_left = 0;
};

using HopLog = std::vector<std::vector<std::tuple<std::int64_t, int,
                                                  std::uint64_t>>>;

std::pair<HopLog, std::uint64_t> run_adaptive_ring(std::size_t threads) {
  using RingRuntime = ShardedRuntime<HopPayload>;
  RingRuntime::Config config;
  config.shards = 4;
  config.threads = threads;
  config.lookahead = SimTime::milliseconds(1) - SimTime::nanoseconds(1);
  config.adaptive_lookahead = true;
  // Uniform floor at the true link latency: every hop is exactly 1ms.
  config.link_floor.assign(16, SimTime::milliseconds(1));
  config.rng_seed = 7;
  RingRuntime rt(config);

  HopLog logs(4);
  const SimTime link = SimTime::milliseconds(1);
  auto hop = [&](std::size_t shard, int hops_left, auto&& self) -> void {
    logs[shard].emplace_back(rt.loop(shard).now().ns(), hops_left,
                             rt.rng(shard).next_u64());
    if (hops_left > 0) {
      rt.post(shard, (shard + 1) % 4, rt.loop(shard).now() + link,
              HopPayload{hops_left - 1});
    }
    (void)self;
  };
  for (std::size_t s = 0; s < 4; ++s) {
    rt.loop(s).schedule_at(
        SimTime::microseconds(static_cast<std::int64_t>(10 * s)),
        [&, s] { hop(s, 32, hop); });
  }
  rt.run_until(SimTime::seconds(60), [&](std::size_t dst, SimTime arrival,
                                         HopPayload&& p) {
    const int hops_left = p.hops_left;
    rt.loop(dst).schedule_at(arrival, [&, dst, hops_left] {
      hop(dst, hops_left, hop);
    });
  });
  return {logs, rt.stats().windows};
}

TEST(AdaptiveLookahead, RingIdenticalAcrossThreadCounts) {
  const auto [one, w1] = run_adaptive_ring(1);
  for (const std::size_t threads : {2, 3, 4, 8}) {  // 8: oversubscribed
    const auto [other, w] = run_adaptive_ring(threads);
    EXPECT_EQ(one, other) << threads;
    // The window schedule itself is sim-state-only, hence also identical.
    EXPECT_EQ(w1, w) << threads;
  }
  for (const auto& log : one) EXPECT_EQ(log.size(), 33u);
}

}  // namespace
}  // namespace neutrino::sim::parallel
