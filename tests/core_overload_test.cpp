// Overload control end-to-end (DESIGN.md §13): bounded CTA/CPF queues
// shed new attaches first, NAS retransmission re-drives dropped uplinks
// with exponential backoff, budget exhaustion falls back to Re-Attach,
// and none of it may cost a Read-your-Writes violation or a stuck UE.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "trace/workload.hpp"

namespace neutrino::core {
namespace {

struct Harness {
  explicit Harness(ProtocolConfig p, CorePolicy policy = neutrino_policy(),
                   TopologyConfig topo = {}) {
    proto = p;
    proto.ack_timeout = SimTime::milliseconds(500);
    proto.log_scan_interval = SimTime::milliseconds(100);
    system =
        std::make_unique<System>(loop, policy, topo, proto, costs, metrics);
  }

  void run_to(SimTime horizon) { loop.run_until(horizon); }

  sim::EventLoop loop;
  FixedCostModel costs{SimTime::microseconds(10)};
  ProtocolConfig proto;
  Metrics metrics;
  std::unique_ptr<System> system;
};

ProtocolConfig overload_proto(std::size_t cta_cap, std::size_t cpf_cap,
                              double attach_fraction = 0.75) {
  ProtocolConfig p;
  p.cta_queue_capacity = cta_cap;
  p.cpf_queue_capacity = cpf_cap;
  p.attach_admission_fraction = attach_fraction;
  p.nas_retx_timeout = SimTime::milliseconds(20);
  p.nas_retx_budget = 8;
  return p;
}

TEST(CoreOverload, ShedAttachStormIsRedrivenToCompletion) {
  // Six simultaneous attaches against a CTA queue that admits one new
  // attach at a time: most first sends are shed, and every UE must still
  // end up attached via retransmission (or budget-exhaustion re-attach).
  Harness h(overload_proto(/*cta_cap=*/2, /*cpf_cap=*/0,
                           /*attach_fraction=*/0.5));
  constexpr int kUes = 6;
  for (int u = 0; u < kUes; ++u) {
    h.system->frontend().start_procedure(UeId{static_cast<std::uint64_t>(u)},
                                         ProcedureType::kAttach);
  }
  h.run_to(SimTime::seconds(30));
  for (int u = 0; u < kUes; ++u) {
    EXPECT_TRUE(h.system->frontend().is_attached(
        UeId{static_cast<std::uint64_t>(u)}))
        << "ue " << u;
  }
  EXPECT_GT(h.metrics.attach_sheds, 0u);
  EXPECT_GT(h.metrics.nas_retransmissions, 0u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  EXPECT_EQ(h.metrics.stale_serves, 0u);
}

TEST(CoreOverload, BoundedCpfQueueAlsoRecovers) {
  Harness h(overload_proto(/*cta_cap=*/0, /*cpf_cap=*/1));
  constexpr int kUes = 4;
  for (int u = 0; u < kUes; ++u) {
    h.system->frontend().start_procedure(UeId{static_cast<std::uint64_t>(u)},
                                         ProcedureType::kAttach);
  }
  h.run_to(SimTime::seconds(30));
  for (int u = 0; u < kUes; ++u) {
    EXPECT_TRUE(h.system->frontend().is_attached(
        UeId{static_cast<std::uint64_t>(u)}))
        << "ue " << u;
  }
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

TEST(CoreOverload, ZeroAttachHeadroomExhaustsBudgetAndReattaches) {
  // attach_fraction 0 starves the initial attach completely: the retx
  // budget must run out and the UE fall back to Re-Attach. Recovery
  // traffic is deliberately not attach-class (Fig. 5 guarantees survive
  // overload), so the Re-Attach is admitted past the closed gate and the
  // UE still ends up attached — liveness over latency.
  Harness h(overload_proto(/*cta_cap=*/2, /*cpf_cap=*/0,
                           /*attach_fraction=*/0.0));
  h.system->frontend().start_procedure(UeId{7}, ProcedureType::kAttach);
  h.run_to(SimTime::seconds(12));
  EXPECT_GE(h.metrics.retx_exhausted, 1u);
  EXPECT_GT(h.metrics.attach_sheds, 0u);
  EXPECT_GT(h.metrics.nas_retransmissions, 0u);
  EXPECT_TRUE(h.system->frontend().is_attached(UeId{7}));
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

TEST(CoreOverload, InFlightServiceRequestsSurviveAttachStorm) {
  // §3's sensitivity ordering: with the queue full of a new-attach storm,
  // service requests from already-attached UEs keep their headroom and
  // complete promptly.
  Harness h(overload_proto(/*cta_cap=*/4, /*cpf_cap=*/0,
                           /*attach_fraction=*/0.25));
  constexpr int kAttached = 3;
  for (int u = 0; u < kAttached; ++u) {
    h.system->frontend().preattach(UeId{static_cast<std::uint64_t>(100 + u)},
                                   0);
  }
  constexpr int kStorm = 20;
  for (int u = 0; u < kStorm; ++u) {
    h.system->frontend().start_procedure(UeId{static_cast<std::uint64_t>(u)},
                                         ProcedureType::kAttach);
  }
  for (int u = 0; u < kAttached; ++u) {
    h.system->frontend().start_procedure(
        UeId{static_cast<std::uint64_t>(100 + u)},
        ProcedureType::kServiceRequest);
  }
  h.run_to(SimTime::seconds(30));
  EXPECT_EQ(h.metrics.pct_for(ProcedureType::kServiceRequest).count(),
            static_cast<std::size_t>(kAttached));
  EXPECT_GT(h.metrics.attach_sheds, 0u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

TEST(CoreOverload, CrashDuringRetransmitRecoversExactlyOnce) {
  // The overload path's scariest interleaving: the primary dies while a
  // shed uplink is waiting on its retransmission timer. The re-driven
  // message must land on the recovered serving CPF without double
  // completion (the per-UE monotonicity guard absorbs duplicates).
  Harness h(overload_proto(/*cta_cap=*/2, /*cpf_cap=*/0,
                           /*attach_fraction=*/0.5));
  const UeId ue{42};
  h.system->frontend().start_procedure(ue, ProcedureType::kAttach);
  const CpfId primary = h.system->primary_cpf_for(ue, 0);
  h.loop.schedule_at(SimTime::microseconds(40),
                     [&] { h.system->crash_cpf(primary); });
  h.run_to(SimTime::seconds(30));
  EXPECT_TRUE(h.system->frontend().is_attached(ue));
  EXPECT_EQ(h.metrics.pct_for(ProcedureType::kAttach).count(), 1u);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
}

TEST(CoreOverload, KnobsOffChangesNothing) {
  // Guard the default path: with every overload knob at its default the
  // new counters stay zero and a batch of procedures behaves as before.
  Harness h(ProtocolConfig{});
  for (int u = 0; u < 4; ++u) {
    h.system->frontend().start_procedure(UeId{static_cast<std::uint64_t>(u)},
                                         ProcedureType::kAttach);
  }
  h.run_to(SimTime::seconds(5));
  EXPECT_EQ(h.metrics.procedures_completed, 4u);
  EXPECT_EQ(h.metrics.attach_sheds, 0u);
  EXPECT_EQ(h.metrics.overload_drops, 0u);
  EXPECT_EQ(h.metrics.nas_retransmissions, 0u);
  EXPECT_EQ(h.metrics.retx_exhausted, 0u);
}

// --- MsgPool slot accounting under overload + crash -------------------------

/// Two regions, bounded CTA and CPF queues: an attach burst, then a
/// service-request burst, with a CPF crashing mid-burst and coming back.
struct SlotAccountingRun {
  static constexpr std::uint64_t kUes = 120;
  static ProtocolConfig proto() {
    ProtocolConfig p = overload_proto(/*cta_cap=*/4, /*cpf_cap=*/2, 0.5);
    p.ack_timeout = SimTime::milliseconds(500);
    p.log_scan_interval = SimTime::milliseconds(100);
    return p;
  }
  static TopologyConfig topo() {
    TopologyConfig t;
    t.l1_per_l2 = 2;
    return t;
  }
  static std::vector<trace::TraceRecord> records() {
    std::vector<trace::TraceRecord> out;
    for (std::uint64_t ue = 0; ue < kUes; ++ue) {
      trace::TraceRecord rec;
      rec.at = SimTime::microseconds(static_cast<std::int64_t>(ue % 40));
      rec.ue = UeId(ue);
      rec.type = ProcedureType::kAttach;
      out.push_back(rec);
    }
    for (std::uint64_t ue = 0; ue < kUes; ++ue) {
      trace::TraceRecord rec;
      rec.at = SimTime::milliseconds(400) +
               SimTime::microseconds(static_cast<std::int64_t>(ue % 30));
      rec.ue = UeId(ue);
      rec.type = ProcedureType::kServiceRequest;
      out.push_back(rec);
    }
    trace::sort_records(out);
    return out;
  }
  static constexpr SimTime crash_at() { return SimTime::microseconds(150); }
  static constexpr SimTime restore_at() { return SimTime::milliseconds(60); }
  static constexpr SimTime horizon() { return SimTime::seconds(30); }
};

/// Every hop in `sys` ended with take() or discard(), and none is left.
void expect_slots_accounted(System& sys) {
  const MsgPool& pool = sys.msg_pool();
  EXPECT_GT(pool.acquired(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.abandoned(), 0u);
}

TEST(CoreOverloadSlots, ShedsAndCrashDropsReturnEverySlot) {
  Harness h(SlotAccountingRun::proto(), neutrino_policy(),
            SlotAccountingRun::topo());
  trace::replay(*h.system, SlotAccountingRun::records());
  const CpfId doomed = h.system->primary_cpf_for(UeId{0}, 0);
  h.loop.schedule_at(SlotAccountingRun::crash_at(),
                     [&] { h.system->crash_cpf(doomed); });
  h.loop.schedule_at(SlotAccountingRun::restore_at(),
                     [&] { h.system->restore_cpf(doomed); });
  h.run_to(SlotAccountingRun::horizon());
  ASSERT_TRUE(h.loop.empty());

  std::uint64_t cta_sheds = 0;
  std::uint64_t cpf_sheds = 0;
  for (std::size_t c = 0; c < sim::kJobClasses; ++c) {
    const auto cls = static_cast<sim::JobClass>(c);
    for (std::uint32_t r = 0; r < 2; ++r) {
      cta_sheds += h.system->cta(r).pool_drops(cls);
    }
    for (int cpf = 0; cpf < h.system->topo().total_cpfs(); ++cpf) {
      cpf_sheds += h.system->cpf(CpfId(static_cast<std::uint32_t>(cpf)))
                       .request_drops(cls);
    }
  }
  EXPECT_GT(cta_sheds, 0u);
  EXPECT_GT(cpf_sheds, 0u);
  EXPECT_EQ(h.metrics.attach_sheds + h.metrics.overload_drops,
            cta_sheds + cpf_sheds);
  expect_slots_accounted(*h.system);
  // Discards beyond the admission sheds are dead-node drops.
  EXPECT_GT(h.system->msg_pool().discarded(), cta_sheds + cpf_sheds);
  EXPECT_EQ(h.metrics.ryw_violations, 0u);
  for (std::uint64_t ue = 0; ue < SlotAccountingRun::kUes; ++ue) {
    EXPECT_TRUE(h.system->frontend().is_attached(UeId{ue})) << "ue " << ue;
  }
}

TEST(CoreOverloadSlots, ShardedRunReturnsEverySlotOnEveryShard) {
  ShardedSystem::Config cfg;
  cfg.policy = neutrino_policy();
  cfg.topo = SlotAccountingRun::topo();
  cfg.proto = SlotAccountingRun::proto();
  cfg.shards = 2;
  cfg.threads = 2;
  FixedCostModel costs{SimTime::microseconds(10)};
  ShardedSystem sharded(cfg, costs);
  sharded.replay(SlotAccountingRun::records());
  const CpfId doomed = sharded.system(0).primary_cpf_for(UeId{0}, 0);
  sharded.schedule_crash(SlotAccountingRun::crash_at(), doomed);
  sharded.schedule_restore(SlotAccountingRun::restore_at(), doomed);
  sharded.run_until(SlotAccountingRun::horizon());

  std::uint64_t sheds = 0;
  std::uint64_t discards = 0;
  for (std::uint32_t shard = 0; shard < sharded.shards(); ++shard) {
    SCOPED_TRACE(shard);
    ASSERT_TRUE(sharded.system(shard).loop().empty());
    expect_slots_accounted(sharded.system(shard));
    const Metrics& m = sharded.metrics(shard);
    EXPECT_EQ(m.ryw_violations, 0u);
    sheds += m.attach_sheds + m.overload_drops;
    discards += sharded.system(shard).msg_pool().discarded();
  }
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(discards, sheds);  // dead-node drops too
}

}  // namespace
}  // namespace neutrino::core
