// Simulation-core primitives: InlineTask small-buffer behaviour, the
// event loop's allocation profile on the hot path, MsgPool recycling, and
// the core's heap allocations per completed procedure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/msg_pool.hpp"
#include "core/system.hpp"
#include "sim/event_loop.hpp"
#include "trace/workload.hpp"

// Global allocation counter for the zero-allocation guarantees. The
// default operator new[] forwards here, so array news are counted too.
namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

// GCC can't see that this new/delete pair is internally consistent
// (malloc in, free out) and warns at inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace neutrino {
namespace {

// --- InlineTask -------------------------------------------------------------

TEST(InlineTask, SmallCapturesStoreInline) {
  int hits = 0;
  std::uint64_t pad[4] = {1, 2, 3, 4};  // 8 + 32 = 40 bytes, under the 48 cap
  sim::InlineTask t([&hits, pad] { hits += static_cast<int>(pad[0]); });
  EXPECT_TRUE(t.stores_inline());
  EXPECT_TRUE(static_cast<bool>(t));
  t();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, OversizedCapturesFallBackToHeap) {
  int hits = 0;
  std::uint64_t pad[8] = {};  // 64-byte capture: over the inline cap
  sim::InlineTask t([&hits, pad] { hits += 1 + static_cast<int>(pad[0]); });
  EXPECT_FALSE(t.stores_inline());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, MoveTransfersOwnershipAndDestroysCapture) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  {
    sim::InlineTask a([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(alive.expired());  // capture holds the last reference
    sim::InlineTask b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(alive.expired());
    sim::InlineTask c;
    c = std::move(b);
    c();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());  // destructor ran exactly once
}

TEST(InlineTask, SizeBudget) {
  static_assert(sizeof(sim::InlineTask) <= 64);
  static_assert(sim::InlineTask::kInlineCapacity == 48);
}

// --- EventLoop allocation profile -------------------------------------------

// The ISSUE acceptance bar: zero heap allocations per event for callbacks
// within the 48-byte inline capacity, once the loop's own vectors have
// warmed up. Heap-only config makes the steady state exact (the wheel's
// per-bucket vectors warm per bucket index, which depends on the time
// pattern; the 4-ary heap's storage is a single vector).
TEST(EventLoopAlloc, SteadyStateScheduleDispatchIsAllocationFree) {
  sim::EventLoop::Config cfg;
  cfg.use_timer_wheel = false;
  sim::EventLoop loop(cfg);
  std::uint64_t sink = 0;
  std::uint64_t pad[3] = {1, 2, 3};  // 32-byte capture, inline

  constexpr int kBatch = 512;
  const auto round = [&](std::int64_t base) {
    for (int i = 0; i < kBatch; ++i) {
      loop.schedule_at(SimTime::nanoseconds(base + kBatch - i),
                       [&sink, pad] { sink += pad[0]; });
    }
    loop.run();
  };

  round(0);  // warm-up: grows the heap vector to kBatch capacity
  const std::uint64_t before = g_alloc_count;
  round(1'000'000);
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(sink, 2u * kBatch);
  EXPECT_EQ(loop.executed(), 2u * kBatch);
}

TEST(EventLoopAlloc, MsgPoolSteadyStateIsAllocationFree) {
  core::MsgPool pool;
  {
    auto warm = pool.acquire(core::Msg{});
    (void)warm.take();
  }
  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 1000; ++i) {
    core::Msg m;
    m.proc_seq = static_cast<std::uint64_t>(i);
    auto h = pool.acquire(std::move(m));
    core::Msg back = h.take();
    ASSERT_EQ(back.proc_seq, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(g_alloc_count, before);
  EXPECT_EQ(pool.reused(), 1000u);
}

// --- EventLoop semantics ----------------------------------------------------

TEST(EventLoopCore, EqualTimesDispatchInScheduleOrder) {
  for (const bool wheel : {false, true}) {
    sim::EventLoop::Config cfg;
    cfg.use_timer_wheel = wheel;
    sim::EventLoop loop(cfg);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      loop.schedule_at(SimTime::microseconds(5), [&order, i] {
        order.push_back(i);
      });
    }
    loop.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopCore, RunUntilStopsAtHorizonAndAdvancesNow) {
  sim::EventLoop loop;
  int ran = 0;
  loop.schedule_at(SimTime::milliseconds(1), [&ran] { ++ran; });
  loop.schedule_at(SimTime::milliseconds(2), [&ran] { ++ran; });  // boundary
  loop.schedule_at(SimTime::milliseconds(3), [&ran] { ++ran; });  // beyond
  loop.run_until(SimTime::milliseconds(2));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.now().ns(), SimTime::milliseconds(2).ns());
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(ran, 3);
}

TEST(EventLoopCore, CallbacksCanScheduleIntoPastTicksOfTheWheel) {
  // An event that schedules another event at its own timestamp: the tick
  // was already drained, so the insert must route to the heap and still
  // run before anything later.
  sim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime::microseconds(10), [&] {
    order.push_back(0);
    loop.schedule_at(SimTime::microseconds(10), [&] { order.push_back(1); });
  });
  loop.schedule_at(SimTime::microseconds(500), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopCore, FarFutureEventsBeyondWheelSpanStillOrder) {
  sim::EventLoop::Config cfg;
  cfg.wheel_granularity_ns = 1'000;
  cfg.wheel_slots = 4;  // 4 us span: almost everything overflows to heap
  sim::EventLoop loop(cfg);
  std::vector<int> order;
  loop.schedule_at(SimTime::milliseconds(10), [&] { order.push_back(2); });
  loop.schedule_at(SimTime::microseconds(2), [&] { order.push_back(0); });
  loop.schedule_at(SimTime::microseconds(100), [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- EventLoop streams ------------------------------------------------------

struct StreamRec {
  SimTime at;
  int id = 0;
};

struct LoopState {
  std::size_t pending;
  bool empty;
  std::int64_t next_ns;
  bool operator==(const LoopState&) const = default;
};

// One scripted run: events scheduled before, between and after two
// replays, with records that schedule follow-ups (some at their own
// nanosecond, some on a later record's). `streamed` replays through
// schedule_stream; otherwise through one schedule_at per record, the
// order schedule_stream must reproduce exactly. The run is sliced by
// run_until at `stops`, and the queue state is logged at every stop.
struct ScriptResult {
  std::vector<int> order;
  std::vector<LoopState> states;
};

ScriptResult run_script(bool streamed, const sim::EventLoop::Config& cfg,
                        const std::vector<StreamRec>& first,
                        const std::vector<StreamRec>& second,
                        const std::vector<SimTime>& stops) {
  sim::EventLoop loop(cfg);
  ScriptResult r;
  const auto fire = [&loop, &r](const StreamRec& rec) {
    r.order.push_back(rec.id);
    if (rec.id % 3 == 0) {
      loop.schedule_after(SimTime{}, [&r, id = rec.id] {
        r.order.push_back(10'000 + id);
      });
    } else if (rec.id % 3 == 1) {
      loop.schedule_after(SimTime::microseconds(3), [&r, id = rec.id] {
        r.order.push_back(20'000 + id);
      });
    }
  };
  const auto replay = [&](const std::vector<StreamRec>& recs) {
    if (streamed) {
      loop.schedule_stream(recs, fire);
    } else {
      for (const StreamRec& rec : recs) {
        loop.schedule_at(rec.at, [&fire, rec] { fire(rec); });
      }
    }
  };
  const auto mark = [&](std::int64_t us, int id) {
    loop.schedule_at(SimTime::microseconds(us),
                     [&r, id] { r.order.push_back(id); });
  };
  mark(4, -1);  // ties with records, scheduled before the replay
  mark(9, -2);
  replay(first);
  mark(4, -3);  // ties again, scheduled after it
  mark(12, -4);
  replay(second);
  mark(9, -5);
  const auto snapshot = [&] {
    r.states.push_back({loop.pending(), loop.empty(), loop.next_time().ns()});
  };
  snapshot();
  for (const SimTime stop : stops) {
    loop.run_until(stop);
    snapshot();
  }
  loop.run();
  snapshot();
  return r;
}

std::vector<StreamRec> stream_records(int n, int id_base, std::uint64_t seed,
                                      bool sorted) {
  Rng rng(seed);
  std::vector<StreamRec> recs;
  for (int i = 0; i < n; ++i) {
    // Few distinct microseconds, so same-nanosecond ties are common; a
    // few records lie far beyond any wheel span.
    std::int64_t us = static_cast<std::int64_t>(rng.next_u64() % 16);
    if (i % 17 == 5) us += 50'000;
    recs.push_back({SimTime::microseconds(us), id_base + i});
  }
  if (sorted) {
    // Ids rise with input position, so this is a stable sort by time.
    std::sort(recs.begin(), recs.end(),
              [](const StreamRec& a, const StreamRec& b) {
                return a.at != b.at ? a.at < b.at : a.id < b.id;
              });
  }
  return recs;
}

TEST(EventLoopStream, DispatchOrderMatchesPerRecordScheduleAt) {
  sim::EventLoop::Config narrow;
  narrow.wheel_slots = 4;  // 4 us span: most keys overflow to the heap
  sim::EventLoop::Config no_wheel;
  no_wheel.use_timer_wheel = false;
  const std::vector<sim::EventLoop::Config> configs = {
      sim::EventLoop::Config{}, narrow, no_wheel};
  std::vector<SimTime> stops;
  for (std::int64_t us = 0; us <= 16; ++us) {
    stops.push_back(SimTime::microseconds(us));  // record times
    stops.push_back(SimTime::nanoseconds(us * 1'000 + 500));
  }
  for (const bool sorted : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto first = stream_records(200, 0, seed, sorted);
      const auto second = stream_records(60, 1'000, seed + 100, sorted);
      for (const auto& cfg : configs) {
        for (const bool sliced : {false, true}) {
          const std::vector<SimTime> at = sliced ? stops : std::vector<SimTime>{};
          const ScriptResult want = run_script(false, cfg, first, second, at);
          const ScriptResult got = run_script(true, cfg, first, second, at);
          // 260 records, 174 follow-ups, 5 marks.
          ASSERT_EQ(got.order.size(), 439u);
          EXPECT_EQ(got.order, want.order)
              << "sorted=" << sorted << " seed=" << seed
              << " wheel=" << cfg.use_timer_wheel << " sliced=" << sliced;
          EXPECT_EQ(got.states, want.states);
        }
      }
    }
  }
}

TEST(EventLoopStream, QueueStateCountsItemsNotYetArmed) {
  sim::EventLoop loop;
  std::vector<int> fired;
  loop.schedule_stream(
      std::vector<StreamRec>{{SimTime::microseconds(2), 0},
                             {SimTime::microseconds(5), 1},
                             {SimTime::microseconds(5), 2},
                             {SimTime::milliseconds(900), 3}},
      [&fired](const StreamRec& rec) { fired.push_back(rec.id); });
  EXPECT_EQ(loop.pending(), 4u);
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.next_time().ns(), SimTime::microseconds(2).ns());
  loop.run_until(SimTime::microseconds(2));
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_EQ(loop.next_time().ns(), SimTime::microseconds(5).ns());
  loop.run_until(SimTime::milliseconds(1));
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.next_time().ns(), SimTime::milliseconds(900).ns());
  loop.run();
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.next_time(), SimTime::max());
  EXPECT_EQ(loop.executed(), 4u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoopStream, DestroyingLoopWithUnfiredItemsReleasesThem) {
  struct Held {
    SimTime at;
    std::shared_ptr<int> token;
  };
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> alive = token;
  {
    sim::EventLoop loop;
    std::vector<Held> recs;
    for (int i = 0; i < 3'000; ++i) {
      recs.push_back({SimTime::microseconds(i), token});
    }
    int fired = 0;
    loop.schedule_stream(std::move(recs),
                         [&fired, token](const Held&) { ++fired; });
    token.reset();
    loop.run_until(SimTime::microseconds(999));
    EXPECT_EQ(fired, 1'000);
    EXPECT_EQ(loop.pending(), 2'000u);
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());  // records and the fire functor are gone
}

// A replay costs a constant number of heap blocks however long the
// trace is: one copy of the records plus the stream, not a slab slot,
// key and free-list entry per record (100K records grew ~98 slab chunks).
TEST(EventLoopStream, ReplayAllocatesConstantBlocks) {
  constexpr std::uint64_t kRecords = 100'000;
  std::vector<trace::TraceRecord> records;
  records.reserve(kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    trace::TraceRecord rec;
    rec.at = SimTime::microseconds(static_cast<std::int64_t>(10 * i));
    rec.ue = UeId(i);
    records.push_back(rec);
  }
  sim::EventLoop loop;
  core::Metrics metrics;
  core::FixedCostModel costs{SimTime::microseconds(10)};
  core::System system(loop, core::neutrino_policy(), core::TopologyConfig{},
                      core::ProtocolConfig{}, costs, metrics);
  const std::uint64_t before = g_alloc_count;
  trace::replay(system, records);
  const std::uint64_t blocks = g_alloc_count - before;
  EXPECT_EQ(loop.pending(), kRecords);
  EXPECT_LE(blocks, 8u) << blocks << " allocations for one replay";
}

// --- MsgPool ----------------------------------------------------------------

TEST(MsgPool, RoundTripPreservesMessage) {
  core::MsgPool pool;
  core::Msg m;
  m.kind = core::MsgKind::kAttachRequest;
  m.ue = UeId{42};
  m.proc_seq = 9;
  auto h = pool.acquire(std::move(m));
  ASSERT_TRUE(static_cast<bool>(h));
  EXPECT_EQ(h->proc_seq, 9u);
  core::Msg back = h.take();
  EXPECT_FALSE(static_cast<bool>(h));
  EXPECT_EQ(back.kind, core::MsgKind::kAttachRequest);
  EXPECT_EQ(back.ue.value(), 42u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(MsgPool, SlotsAreRecycledWithinOneBlock) {
  core::MsgPool pool;
  for (int i = 0; i < 10'000; ++i) {
    auto h = pool.acquire(core::Msg{});
    (void)h.take();
  }
  EXPECT_EQ(pool.capacity(), 256u);  // one block serves sequential traffic
  EXPECT_EQ(pool.acquired(), 10'000u);
  EXPECT_EQ(pool.reused(), 9'999u);
}

TEST(MsgPool, GrowsByBlocksUnderConcurrentHandles) {
  core::MsgPool pool;
  std::vector<core::MsgPool::Handle> held;
  for (int i = 0; i < 600; ++i) held.push_back(pool.acquire(core::Msg{}));
  EXPECT_EQ(pool.capacity(), 768u);  // three 256-slot blocks
  EXPECT_EQ(pool.outstanding(), 600u);
  for (auto& h : held) (void)h.take();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(MsgPool, DroppedHandleReturnsSlotWhilePoolLives) {
  // A Handle destroyed without take() while its pool is still alive — a
  // crashed node's ServerPool dropping queued jobs — returns the slot:
  // without this, every crash permanently leaked the in-service messages
  // (caught by the chaos checker's pool-conservation invariant).
  core::MsgPool pool;
  {
    auto h = pool.acquire(core::Msg{});
  }  // dropped without take(), pool alive
  EXPECT_EQ(pool.outstanding(), 0u);
  auto h2 = pool.acquire(core::Msg{});
  (void)h2.take();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.reused(), 1u);  // the dropped slot went back on the list
}

TEST(MsgPool, HandleOutlivingPoolAbandonsSafely) {
  // The bench-teardown ordering: the pool dies while an undelivered event
  // still holds a Handle. The destructor must not touch the dead pool.
  auto pool = std::make_unique<core::MsgPool>();
  auto h = pool->acquire(core::Msg{});
  pool.reset();  // pool gone first
}  // h destroyed here: must not crash

TEST(MsgPool, MoveAssignReleasesOverwrittenSlot) {
  core::MsgPool pool;
  auto a = pool.acquire(core::Msg{});
  auto b = pool.acquire(core::Msg{});
  EXPECT_EQ(pool.outstanding(), 2u);
  a = std::move(b);  // a's original slot is released, not stranded
  EXPECT_EQ(pool.outstanding(), 1u);
  (void)a.take();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(MsgPool, DiscardReturnsSlotWithoutAbandoning) {
  core::MsgPool pool;
  auto h = pool.acquire(core::Msg{});
  h.discard();
  EXPECT_FALSE(static_cast<bool>(h));
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.discarded(), 1u);
  EXPECT_EQ(pool.abandoned(), 0u);
  (void)pool.acquire(core::Msg{}).take();
  EXPECT_EQ(pool.discarded(), 1u);  // take() is not a discard
}

TEST(MsgPool, DropOutsideAFlushCountsAsAbandoned) {
  core::MsgPool pool;
  { auto h = pool.acquire(core::Msg{}); }
  EXPECT_EQ(pool.abandoned(), 1u);
  {
    const core::MsgPool::Flush flush(pool);  // a crash dropping its queue
    auto h = pool.acquire(core::Msg{});
  }
  EXPECT_EQ(pool.abandoned(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(MsgPool, HandleMoveTransfersSlot) {
  core::MsgPool pool;
  auto a = pool.acquire(core::Msg{});
  auto b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  (void)b.take();
  EXPECT_EQ(pool.outstanding(), 0u);
}

// --- Core allocations per procedure -----------------------------------------

// perfbench's two-wave attach + service-request storm, shrunk. After a
// warm-up that grows the event slab, MsgPool, service-pool slots and the
// CTA/CPF tables, what each further procedure allocates is per-procedure
// state (UE state snapshots, the CTA log, checkpoint payloads), not
// plumbing. The bound is the measured 4.21 per procedure; it was 12.2
// with hash-set/hash-map ACK bookkeeping in the CTA, a fresh backup vector
// per checkpoint and service-pool jobs parked in a hash map.
TEST(CoreAllocBudget, StormProceduresStayWithinBudget) {
  constexpr std::uint64_t kUes = 4'000;
  const SimTime window = SimTime::milliseconds(240);  // ~16.7K attaches/s
  const SimTime sr_base = window + SimTime::seconds(1);
  std::vector<trace::TraceRecord> records =
      trace::BurstyWorkload(kUes, window, /*seed=*/1).generate();
  for (std::uint64_t ue = 0; ue < kUes; ++ue) {
    trace::TraceRecord rec;
    rec.at = sr_base + SimTime::nanoseconds(static_cast<std::int64_t>(
                           ue * static_cast<std::uint64_t>(window.ns()) / kUes));
    rec.ue = UeId(ue);
    rec.type = core::ProcedureType::kServiceRequest;
    records.push_back(rec);
  }

  sim::EventLoop loop;
  core::Metrics metrics;
  core::FixedCostModel costs{SimTime::microseconds(10)};
  core::System system(loop, core::neutrino_policy(), core::TopologyConfig{},
                      core::ProtocolConfig{}, costs, metrics);
  trace::replay(system, records);

  loop.run_until(SimTime::nanoseconds(window.ns() / 2));  // warm-up
  const std::uint64_t done_before = metrics.procedures_completed.value();
  const std::uint64_t allocs_before = g_alloc_count;
  loop.run_until(sr_base + window + SimTime::seconds(2));
  const std::uint64_t allocs = g_alloc_count - allocs_before;
  const std::uint64_t done =
      metrics.procedures_completed.value() - done_before;

  ASSERT_EQ(metrics.procedures_completed.value(), 2 * kUes);
  ASSERT_GT(done, kUes);
  const double per_proc =
      static_cast<double>(allocs) / static_cast<double>(done);
  RecordProperty("allocs_per_procedure", std::to_string(per_proc));
  EXPECT_LE(per_proc, 4.25) << allocs << " allocations, " << done
                           << " procedures";
}

}  // namespace
}  // namespace neutrino
