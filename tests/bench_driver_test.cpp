// The bench experiment driver (bench/bench_util.hpp) against the steps it
// replaced:
//
//  1. at one shard, run_experiment matches a System built and driven by
//     hand — the former single-thread driver, written out here as the
//     oracle — with a CPF crash + restore hook, decomposition tracing,
//     telemetry and pre-attached UEs all on;
//  2. at two shards, outcomes are identical for one and two threads.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/system.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "trace/workload.hpp"

namespace neutrino {
namespace {

constexpr SimTime kCrashAt = SimTime::milliseconds(120);
constexpr SimTime kRestoreAt = SimTime::milliseconds(220);

bench::ExperimentConfig driver_config() {
  bench::ExperimentConfig cfg;
  cfg.policy = core::neutrino_policy();
  cfg.topo.l1_per_l2 = 4;
  cfg.topo.latency = bench::testbed_latencies();
  cfg.preattached_ues = 300;
  cfg.drain = SimTime::seconds(1);
  cfg.trace_decomposition = true;
  cfg.telemetry_window = SimTime::milliseconds(50);
  return cfg;
}

/// A 400 ms mixed storm over four regions. `inter_region` adds
/// inter-region handovers, which only a one-shard run supports.
std::vector<trace::TraceRecord> make_trace(bool inter_region) {
  trace::ProcedureMix mix;
  mix.service_request = 0.5;
  mix.intra_handover = 0.1;
  mix.handover = inter_region ? 0.2 : 0.0;
  trace::UniformWorkload workload(/*rate_pps=*/1500,
                                  SimTime::milliseconds(400), mix,
                                  /*seed=*/17);
  return workload.generate(/*ue_population=*/400, /*regions=*/4);
}

CpfId victim(const bench::ExperimentConfig& cfg) {
  return cfg.topo.cpf_at(0, 0);
}

/// Everything deterministic a report row carries, plus the per-procedure
/// PCT summaries, serialized for exact comparison.
struct Outcome {
  std::uint64_t events = 0;
  std::string counters;
  std::vector<std::string> pct;
  std::string decomposition;
  std::string timeseries;
  std::string slo;
};

Outcome outcome(const core::Metrics& m, std::uint64_t events) {
  Outcome o;
  o.events = events;
  o.counters = obs::counters_json(m.registry).dump(0);
  for (std::size_t i = 0; i < core::Metrics::kProcTypes; ++i) {
    o.pct.push_back(obs::summary_json(m.pct[i]).dump(0));
    o.pct.push_back(obs::summary_json(m.pct_under_failure[i]).dump(0));
  }
  o.decomposition = bench::Report::decomposition_json(m.registry).dump(0);
  o.timeseries = obs::windowed_series_json(m.registry).dump(0);
  o.slo = m.slo() != nullptr ? m.slo()->json().dump(0) : "";
  return o;
}

void expect_same(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.pct.size(), b.pct.size());
  for (std::size_t i = 0; i < a.pct.size(); ++i) {
    EXPECT_EQ(a.pct[i], b.pct[i]) << "pct summary " << i;
  }
  EXPECT_EQ(a.decomposition, b.decomposition);
  EXPECT_EQ(a.timeseries, b.timeseries);
  EXPECT_EQ(a.slo, b.slo);
}

TEST(BenchDriver, OneShardMatchesHandBuiltSystem) {
  const bench::ExperimentConfig cfg = driver_config();
  const std::vector<trace::TraceRecord> t = make_trace(/*inter_region=*/true);

  // Oracle: build the System, tracer and telemetry by hand, in the order
  // the single-thread driver used: tracer, pre-attach, injections,
  // replay, telemetry, run.
  sim::EventLoop loop;
  core::Metrics metrics;
  core::System system(loop, cfg.policy, cfg.topo, cfg.proto,
                      bench::measured_costs(), metrics);
  obs::TracerConfig tc;
  tc.keep_slowest = 8;
  tc.keep_failed = 0;
  obs::ProcTracer tracer(tc, &metrics.registry);
  system.attach_tracer(tracer);
  for (std::uint64_t ue = 0; ue < cfg.preattached_ues; ++ue) {
    system.frontend().preattach(UeId(ue), static_cast<std::uint32_t>(ue % 4));
  }
  const CpfId doomed = victim(cfg);
  loop.schedule_at(kCrashAt, [&system, doomed] { system.crash_cpf(doomed); });
  loop.schedule_at(kRestoreAt,
                   [&system, doomed] { system.restore_cpf(doomed); });
  trace::replay(system, t);
  const SimTime horizon = t.back().at + cfg.drain;
  system.arm_telemetry(cfg.telemetry_window, horizon);
  metrics.arm_slo(cfg.telemetry_window, bench::default_slo_targets());
  loop.run_until(horizon);
  const Outcome expected = outcome(metrics, loop.executed());
  std::uint64_t outages = 0;
  for (std::uint64_t ue = 0; ue < 400; ++ue) {
    outages += system.frontend().outages(UeId(ue)).size();
  }

  // The driver: the same injections through the setup hook, the same
  // outage query through the post hook.
  std::uint64_t driver_outages = 0;
  const bench::ExperimentResult result = bench::run_experiment(
      cfg, t,
      [&](core::ShardedSystem& sys) {
        sys.schedule_crash(kCrashAt, doomed);
        sys.schedule_restore(kRestoreAt, doomed);
      },
      [&](core::ShardedSystem& sys) {
        for (std::uint64_t ue = 0; ue < 400; ++ue) {
          driver_outages += sys.system(0).frontend().outages(UeId(ue)).size();
        }
      });

  // Sanity: the run exercised recovery, handovers and every section.
  EXPECT_GT(metrics.procedures_completed, 500u);
  EXPECT_GT(metrics.replays + metrics.failovers + metrics.reattaches, 0u);
  EXPECT_GT(metrics.fast_handovers + metrics.state_fetches, 0u);
  EXPECT_EQ(metrics.ryw_violations, 0u);
  EXPECT_NE(expected.decomposition, "null");
  EXPECT_NE(expected.slo, "");
  EXPECT_GT(outages, 0u);

  EXPECT_EQ(result.shards, 1u);
  EXPECT_EQ(result.cross_shard_messages, 0u);
  ASSERT_NE(result.tracer, nullptr);
  expect_same(outcome(result.metrics, result.events_executed), expected);
  EXPECT_EQ(driver_outages, outages);

  // A one-shard row is a single-thread row.
  obs::Json row;
  bench::Report::attach_result(row, result);
  EXPECT_EQ(row["mode"].dump(0), "\"single-thread\"");
}

TEST(BenchDriver, TwoShardsIdenticalAcrossThreadCounts) {
  bench::ExperimentConfig cfg = driver_config();
  cfg.shards = 2;
  const std::vector<trace::TraceRecord> t = make_trace(/*inter_region=*/false);
  const auto run = [&](std::uint32_t threads) {
    cfg.threads = threads;
    return bench::run_experiment(cfg, t, [&](core::ShardedSystem& sys) {
      sys.schedule_crash(kCrashAt, victim(cfg));
      sys.schedule_restore(kRestoreAt, victim(cfg));
    });
  };
  const bench::ExperimentResult one = run(1);
  const bench::ExperimentResult two = run(2);

  EXPECT_GT(one.metrics.procedures_completed, 500u);
  EXPECT_GT(one.metrics.replays + one.metrics.failovers +
                one.metrics.reattaches,
            0u);
  EXPECT_EQ(one.metrics.ryw_violations, 0u);
  EXPECT_GT(one.cross_shard_messages, 0u);
  // Multi-shard runs are not traced.
  EXPECT_EQ(one.tracer, nullptr);

  expect_same(outcome(one.metrics, one.events_executed),
              outcome(two.metrics, two.events_executed));
  EXPECT_EQ(one.windows, two.windows);
  EXPECT_EQ(one.cross_shard_messages, two.cross_shard_messages);
  EXPECT_EQ(one.shard_events, two.shard_events);
  EXPECT_EQ(two.threads, 2u);

  obs::Json row;
  bench::Report::attach_result(row, two);
  EXPECT_EQ(row["mode"].dump(0), "\"sharded\"");
}

}  // namespace
}  // namespace neutrino
