// Simulator workloads: storm, storm-sharded and mobility-failover.
//
// Each repetition builds everything from scratch (cost table, traffic,
// System, replay schedule) so set-up time is measured as often as the
// run itself. Simulated time is fully determined by (workload, seed): the
// fingerprint of one repetition must equal every other's, traced or not.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hashing.hpp"
#include "common/stats.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "frozen_costs.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "trace/workload.hpp"
#include "traffic/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace neutrino;
using PT = core::ProcedureType;
using Clock = std::chrono::steady_clock;

enum class Kind { kStorm, kStormSharded, kMobility };

constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kDefaultThreads = 4;
/// Storm offered load: ~17K procedures/s, below the modeled EPC knee
/// (Fig. 8), the rate the repo's scale bench has always used.
constexpr std::uint64_t kStormPps = 16'667;
/// Sized against the ROADMAP's 1M-UE storm, not only so that >= 10 attach
/// and SR samples lie beyond p99.9: at 20K the core's tables fit in cache
/// and the per-event cost reads 18% below 1M's, at 100K 7% (README).
constexpr std::uint64_t kStormUes = 100'000;
/// Sized so that >= 10 inter-region handovers lie beyond p99.9.
constexpr std::uint64_t kMobilityUes = 60'000;
constexpr double kMobilityPps = 500;
constexpr SimTime kMobilityDuration = SimTime::seconds(60);
/// The benchmark reads the global CTA log size and pending-event count
/// every this much simulated time, between run_until calls. Splitting
/// run_until changes nothing on a single event loop, so storm and
/// mobility-failover are stepped this way. The sharded runtime starts its
/// worker threads and cuts its adaptive windows at every run_until
/// horizon (which can reorder same-nanosecond events and so change the
/// outcome), so storm-sharded makes one call per slice and is not sampled.
constexpr SimTime kStep = SimTime::milliseconds(25);
/// Host seconds one repetition (set-up plus run) takes at the workload's
/// own size on the reference host (README). A run makes
/// round(--seconds / this) repetitions: a fixed number for a given
/// --seconds, whatever the speed of the code, so the pooled minimum is
/// always taken over the same number of samples.
constexpr double kStormRep_s = 3.0;
constexpr double kShardedRep_s = 2.5;
constexpr double kMobilityRep_s = 1.25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Spec {
  Kind kind = Kind::kStorm;
  std::uint64_t ues = 0;
  std::uint32_t threads = kDefaultThreads;
  std::uint64_t seed = 1;
  bool inject_ryw = false;
  std::string cost_table;

  [[nodiscard]] core::TopologyConfig topology() const {
    core::TopologyConfig t;  // the paper's 1-region testbed
    if (kind == Kind::kStormSharded) t.l1_per_l2 = kShards;
    if (kind == Kind::kMobility) {
      t.l2_regions = 4;  // 4x4 geohash grid
      t.l1_per_l2 = 4;
    }
    return t;
  }
  [[nodiscard]] SimTime attach_window() const {
    return SimTime::nanoseconds(
        static_cast<std::int64_t>(ues * 1'000'000'000 / kStormPps));
  }
};

/// One run_until slice and the span it is recorded under.
struct Slice {
  SimTime until;
  const char* span;
};

/// Everything the run replays, plus where its phases begin and end.
struct Plan {
  std::vector<trace::TraceRecord> records;
  std::uint64_t mobility_records = 0;
  std::vector<Slice> slices;
  SimTime active_end;  // last arrival: busy shares are taken over [0, this]
  SimTime crash_at;
  SimTime restore_at;
};

Plan make_plan(const Spec& s) {
  Plan p;
  if (s.kind == Kind::kMobility) {
    traffic::ScenarioRequest req;
    req.target_pps = kMobilityPps;
    req.duration = kMobilityDuration;
    req.population = s.ues;
    req.regions = s.topology().total_regions();
    req.seed = s.seed;
    auto gen = traffic::generate_scenario("commuter-crossing", req);
    if (!gen) throw std::logic_error("commuter-crossing scenario missing");
    p.records = std::move(gen->records);
    for (const trace::TraceRecord& r : p.records) {
      if (r.type == PT::kHandover) ++p.mobility_records;
    }
    // fig_mobility's plan: CPFs go down as departures peak and come back
    // empty mid-wave, so later crossings into them take the slow path.
    p.crash_at = SimTime::nanoseconds(kMobilityDuration.ns() / 5);
    p.restore_at = SimTime::nanoseconds(kMobilityDuration.ns() * 7 / 20);
    p.active_end = p.records.empty() ? SimTime{} : p.records.back().at;
    p.slices = {{p.crash_at, "run.commute_wave"},
                {p.restore_at, "run.crash_window"},
                {std::max(p.active_end, p.restore_at), "run.commute_wave"},
                {std::max(p.active_end, p.restore_at) + SimTime::seconds(10),
                 "run.drain"}};
    return p;
  }
  // The two-wave storm: every UE attaches in a bursty window, then issues
  // one service request in a second window after a gap.
  const SimTime window = s.attach_window();
  const SimTime sr_base = window + SimTime::seconds(5);
  trace::BurstyWorkload attaches(s.ues, window, s.seed);
  p.records = attaches.generate();
  const std::size_t n_attach = p.records.size();
  p.records.reserve(2 * n_attach);
  Rng rng(s.seed ^ 0x5e7c1ce5eed5ULL);
  for (std::uint64_t ue = 0; ue < s.ues; ++ue) {
    trace::TraceRecord rec;
    rec.at = sr_base + SimTime::nanoseconds(static_cast<std::int64_t>(
                           rng.next_double() *
                           static_cast<double>(window.ns())));
    rec.ue = UeId(ue);
    rec.type = PT::kServiceRequest;
    p.records.push_back(rec);
  }
  std::sort(p.records.begin() + static_cast<std::ptrdiff_t>(n_attach),
            p.records.end(), trace::record_before);
  p.active_end = p.records.back().at;
  p.slices = {{sr_base, "run.attach_wave"},
              {sr_base + window, "run.sr_wave"},
              {sr_base + window + SimTime::seconds(30), "run.drain"}};
  return p;
}

/// The simulated core: one System on one loop, or a ShardedSystem.
struct Sim {
  // Declared first so they outlive the systems that point at them.
  std::unique_ptr<obs::PhaseProfiler> profiler;
  std::vector<std::unique_ptr<obs::ProcTracer>> tracers;
  core::TopologyConfig topo;
  /// Peaks of the global totals read by sample(); 0 if never sampled.
  std::size_t log_bytes_peak = 0;
  std::size_t pending_peak = 0;
  std::unique_ptr<sim::EventLoop> loop;
  std::unique_ptr<core::Metrics> metrics;
  std::unique_ptr<core::System> system;
  std::unique_ptr<core::ShardedSystem> sharded;

  [[nodiscard]] std::vector<core::System*> systems() {
    std::vector<core::System*> out;
    if (system) out.push_back(system.get());
    if (sharded) {
      for (std::uint32_t i = 0; i < sharded->shards(); ++i) {
        out.push_back(&sharded->system(i));
      }
    }
    return out;
  }
  /// The System that executes `region`'s nodes.
  core::System& owner(std::uint32_t region) {
    return sharded ? sharded->system(sharded->shard_of_region(region))
                   : *system;
  }
  void run_until(SimTime t) {
    if (sharded) {
      sharded->run_until(t);
    } else {
      loop->run_until(t);
    }
  }
  [[nodiscard]] std::uint64_t events() const {
    return sharded ? sharded->events_executed() : loop->executed();
  }
  /// Reads the CTA log bytes of every region and the pending events of
  /// every loop at the current simulated time (never from inside a loop,
  /// so it schedules nothing and perturbs nothing).
  void sample() {
    std::size_t log = 0;
    const auto regions = static_cast<std::uint32_t>(topo.total_regions());
    for (std::uint32_t r = 0; r < regions; ++r) {
      log += owner(r).cta(r).log_bytes();
    }
    std::size_t pending = 0;
    for (core::System* sys : systems()) pending += sys->loop().pending();
    log_bytes_peak = std::max(log_bytes_peak, log);
    pending_peak = std::max(pending_peak, pending);
  }
};

void build(Sim& sim, const Spec& s, const core::CostModel& costs,
           const Plan& plan, bool traced) {
  sim.topo = s.topology();
  const auto regions = static_cast<std::uint32_t>(sim.topo.total_regions());
  if (s.kind == Kind::kStormSharded) {
    core::ShardedSystem::Config cfg;
    cfg.policy = core::neutrino_policy();
    cfg.topo = sim.topo;
    cfg.shards = kShards;
    cfg.threads = s.threads;
    cfg.adaptive_lookahead = true;  // the benches' default window policy
    sim.sharded = std::make_unique<core::ShardedSystem>(cfg, costs);
    if (traced) {
      sim.profiler = std::make_unique<obs::PhaseProfiler>(
          std::max<std::size_t>(kShards, s.threads));
      sim.sharded->set_profiler(sim.profiler.get());
    }
  } else {
    sim.loop = std::make_unique<sim::EventLoop>();
    sim.metrics = std::make_unique<core::Metrics>();
    sim.system = std::make_unique<core::System>(
        *sim.loop, core::neutrino_policy(), sim.topo, core::ProtocolConfig{},
        costs, *sim.metrics);
    if (s.kind == Kind::kMobility) {
      for (std::uint64_t ue = 0; ue < s.ues; ++ue) {
        sim.system->frontend().preattach(
            UeId(ue), static_cast<std::uint32_t>(ue % regions));
      }
      for (const std::uint32_t region :
           {0u, 1u, regions / 2, regions / 2 + 1}) {
        const CpfId cpf = sim.system->primary_cpf_for(UeId{0}, region);
        core::System* sys = sim.system.get();
        sim.loop->schedule_at(plan.crash_at,
                              [sys, cpf] { sys->crash_cpf(cpf); });
        sim.loop->schedule_at(plan.restore_at,
                              [sys, cpf] { sys->restore_cpf(cpf); });
      }
    }
  }
  for (core::System* sys : sim.systems()) {
    if (s.inject_ryw) sys->faults().cpf_stale_serves = 1;
    if (traced) {
      obs::TracerConfig tc;
      tc.record_events = false;
      tc.keep_slowest = 0;
      tc.keep_failed = 0;
      sim.tracers.push_back(
          std::make_unique<obs::ProcTracer>(tc, &sys->metrics().registry));
      sys->attach_tracer(*sim.tracers.back());
    }
  }
}

void replay(Sim& sim, const Plan& plan) {
  if (sim.sharded) {
    sim.sharded->replay(plan.records);
  } else {
    trace::replay(*sim.system, plan.records);
  }
}

/// FNV-1a over a canonical text rendering of the simulated outputs.
class Fingerprint {
 public:
  void add(std::string_view key, std::uint64_t v) {
    text_ += key;
    text_ += '=';
    text_ += std::to_string(v);
    text_ += ';';
  }
  void add_bits(std::string_view key, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(key, bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, fnv1a64(text_));
    return buf;
  }

 private:
  std::string text_;
};

struct Pct {
  std::size_t n = 0;
  double mean = 0;
  double tail = 0;  ///< mean of the slowest 1%
  double p50 = 0;
  double p999 = 0;
};

Pct pct_of(const core::Metrics& m, PT type) {
  const LatencyRecorder& r = m.pct[static_cast<std::size_t>(type)];
  if (r.empty()) return {};
  return {r.count(), r.mean(),
          tail_mean([&](double q) { return r.percentile(q); }),
          r.percentile(0.5), r.percentile(0.999)};
}

/// One repetition's results.
struct Rep {
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t ryw = 0;
  Pct primary;
  Pct secondary;
  std::string fingerprint;  ///< hash of the simulated outputs
  /// Host time of each slice; the same simulated work in every repetition.
  std::vector<double> slice_s;
  double peak_rss_mb = 0;  // process peak right after this repetition
  /// Per-layer metrics the same in every repetition (simulated) ...
  std::map<std::string, double> layer;
  /// ... per-layer host timings (reported as medians) ...
  std::map<std::string, double> host;
  /// ... and RSS readings (taken only when RepMode::measure_mem).
  std::map<std::string, double> mem;
  SpanRecorder spans;
};

const char* proc_metric_name(PT t) {
  switch (t) {
    case PT::kAttach: return "attach";
    case PT::kServiceRequest: return "sr";
    case PT::kHandover: return "handover";
    default: return "?";
  }
}

void collect_core(Sim& sim, const core::Metrics& m, const Plan& plan,
                  Rep& rep) {
  auto& L = rep.layer;
  const double active_ns =
      static_cast<double>(std::max<std::int64_t>(plan.active_end.ns(), 1));
  const auto regions = static_cast<std::uint32_t>(sim.topo.total_regions());
  double cta_busy = 0, cta_cores = 0, cta_depth = 0, log_end = 0;
  double upf_sessions = 0;
  for (std::uint32_t r = 0; r < regions; ++r) {
    core::System& sys = sim.owner(r);
    const core::Cta& cta = sys.cta(r);
    cta_busy += static_cast<double>(cta.pool_busy_time().ns());
    cta_cores += cta.pool_cores();
    cta_depth = std::max(cta_depth, static_cast<double>(cta.pool_peak_depth()));
    log_end += static_cast<double>(cta.log_bytes());
    upf_sessions += static_cast<double>(sys.upf(r).session_count());
  }
  double cpf_busy = 0, cpf_cores = 0, cpf_depth = 0;
  for (int c = 0; c < sim.topo.total_cpfs(); ++c) {
    const CpfId id(static_cast<std::uint32_t>(c));
    core::Cpf& cpf = sim.owner(sim.topo.region_of_cpf(id)).cpf(id);
    cpf_busy += static_cast<double>(cpf.request_busy_time().ns());
    cpf_cores += cpf.request_cores();
    cpf_depth = std::max(cpf_depth,
                         static_cast<double>(cpf.request_peak_depth()));
  }
  double pool_capacity = 0, pool_acquired = 0, pool_reused = 0;
  for (core::System* sys : sim.systems()) {
    pool_capacity += static_cast<double>(sys->msg_pool().capacity());
    pool_acquired += static_cast<double>(sys->msg_pool().acquired());
    pool_reused += static_cast<double>(sys->msg_pool().reused());
  }
  auto count = [](const obs::Counter& c) {
    return static_cast<double>(c.value());
  };
  L["cta.busy_share"] = cta_busy / (cta_cores * active_ns);
  L["cta.peak_depth"] = cta_depth;
  L["cta.log_appends"] = count(m.log_appends);
  L["cta.log_prunes"] = count(m.log_prunes);
  L["cta.log_bytes_peak"] = static_cast<double>(sim.log_bytes_peak);
  L["cta.log_bytes_end"] = log_end;
  L["cta.replays"] = count(m.replays);
  L["cpf.busy_share"] = cpf_busy / (cpf_cores * active_ns);
  L["cpf.peak_depth"] = cpf_depth;
  L["cpf.checkpoints_sent"] = count(m.checkpoints_sent);
  L["cpf.checkpoint_acks"] = count(m.checkpoint_acks);
  L["cpf.fast_handovers"] = count(m.fast_handovers);
  L["cpf.state_fetches"] = count(m.state_fetches);
  const double handovers = count(m.fast_handovers) + count(m.state_fetches);
  L["cpf.fast_handover_ratio"] =
      handovers > 0 ? count(m.fast_handovers) / handovers : 0.0;
  L["cpf.failovers"] = count(m.failovers);
  L["core.reattaches"] = count(m.reattaches);
  const double started = std::max(count(m.procedures_started), 1.0);
  L["core.reattach_ratio"] = count(m.reattaches) / started;
  L["frontend.failed_ratio"] =
      (count(m.procedures_started) - count(m.procedures_completed)) / started;
  L["frontend.nas_retransmissions"] = count(m.nas_retransmissions);
  L["frontend.retx_exhausted"] = count(m.retx_exhausted);
  for (std::size_t t = 0; t < core::Metrics::kProcTypes; ++t) {
    const auto type = static_cast<PT>(t);
    const obs::Counter* c = m.registry.find_counter(
        "frontend.completions", {{"proc", std::string{core::to_string(type)}}});
    L["frontend.completions." + std::string{core::to_string(type)}] =
        c != nullptr ? count(*c) : 0.0;
  }
  L["msg_pool.capacity"] = pool_capacity;
  L["msg_pool.acquired"] = pool_acquired;
  L["msg_pool.reused"] = pool_reused;
  L["upf.sessions_end"] = upf_sessions;
  L["sim.pending_peak"] = static_cast<double>(sim.pending_peak);

  // PCT decomposition (present only when a tracer folded it in).
  for (const PT type : {PT::kAttach, PT::kServiceRequest, PT::kHandover}) {
    for (const char* comp :
         {"propagation", "queueing", "service", "serialization"}) {
      const LatencyRecorder* h = m.registry.find_histogram(
          "core.pct_decomp_ms", {{"proc", std::string{core::to_string(type)}},
                                 {"component", comp}});
      L[std::string{"pct."} + proc_metric_name(type) + "." + comp + "_ms"] =
          h != nullptr && !h->empty() ? h->mean() : 0.0;
    }
  }
}

std::string fingerprint_of(const Sim& sim, const core::Metrics& m) {
  Fingerprint fp;
  fp.add("events", sim.events());
  if (sim.sharded) {
    fp.add("windows", sim.sharded->stats().windows);
    fp.add("cross", sim.sharded->stats().cross_messages);
    fp.add("adaptive", sim.sharded->stats().adaptive_extensions);
    fp.add("skipped", sim.sharded->stats().dispatches_skipped);
  }
  m.registry.for_each_counter([&](const std::string& key,
                                  const obs::Counter& c) {
    fp.add(key, c.value());
  });
  for (std::size_t t = 0; t < core::Metrics::kProcTypes; ++t) {
    const Pct p = pct_of(m, static_cast<PT>(t));
    const std::string name{core::to_string(static_cast<PT>(t))};
    fp.add(name + ".n", p.n);
    fp.add_bits(name + ".mean", p.mean);
    fp.add_bits(name + ".tail", p.tail);
    fp.add_bits(name + ".p50", p.p50);
    fp.add_bits(name + ".p999", p.p999);
  }
  return fp.hex();
}

/// What one repetition does besides the run itself.
struct RepMode {
  bool traced = false;       ///< spans, ProcTracer, PhaseProfiler
  bool measure_mem = false;  ///< RSS at phase boundaries (fresh process)
  /// Pins slice k to CPU `first_cpu` + k (single-loop workloads only).
  CpuRotation* cpus = nullptr;
  std::size_t first_cpu = 0;
};

Rep run_rep(const Spec& s, const RepMode& mode) {
  Rep rep;
  rep.traced = mode.traced;
  SpanRecorder* spans = mode.traced ? &rep.spans : nullptr;
  const auto setup_t0 = Clock::now();

  std::optional<FrozenCostModel> costs;
  {
    SpanRecorder::Scope span(spans, "setup.cost_table");
    costs.emplace(s.cost_table);
  }
  Plan plan;
  {
    SpanRecorder::Scope span(spans, "setup.traffic.generate");
    const auto t0 = Clock::now();
    plan = make_plan(s);
    rep.host["traffic.generate_s"] = seconds_since(t0);
  }
  // bytes_per_ue counts what the core holds, not the cost table or the
  // generated records.
  const double rss_before_core = mode.measure_mem ? current_rss_mb() : 0.0;
  Sim sim;
  {
    SpanRecorder::Scope span(spans, "setup.core.build");
    const auto t0 = Clock::now();
    build(sim, s, *costs, plan, mode.traced);
    rep.host["core.build_s"] = seconds_since(t0);
  }
  {
    SpanRecorder::Scope span(spans, "setup.trace.replay");
    const auto t0 = Clock::now();
    replay(sim, plan);
    rep.host["trace.replay_s"] = seconds_since(t0);
  }
  rep.setup_s = seconds_since(setup_t0);
  if (mode.measure_mem) rep.mem["mem.rss_after_setup_mb"] = current_rss_mb();
  const bool stepped = !sim.sharded;
  if (stepped) sim.sample();

  const auto run_t0 = Clock::now();
  double attach_wave_s = 0, sr_wave_s = 0, drain_s = 0;
  SimTime now;
  for (std::size_t i = 0; i < plan.slices.size(); ++i) {
    const Slice& slice = plan.slices[i];
    if (mode.cpus != nullptr) mode.cpus->pin(mode.first_cpu + i);
    const auto t0 = Clock::now();
    {
      SpanRecorder::Scope span(spans, slice.span);
      while (now < slice.until) {
        now = stepped ? std::min(now + kStep, slice.until) : slice.until;
        sim.run_until(now);
        if (stepped) sim.sample();
      }
    }
    const double dt = seconds_since(t0);
    rep.slice_s.push_back(dt);
    const std::string_view name = slice.span;
    if (name == "run.attach_wave") attach_wave_s += dt;
    if (name == "run.sr_wave") sr_wave_s += dt;
    if (name == "run.drain") drain_s += dt;
    if (i == 0 && mode.measure_mem) {
      const double rss = current_rss_mb();
      rep.mem["mem.rss_after_attach_wave_mb"] = rss;
      rep.mem["mem.bytes_per_ue"] = (rss - rss_before_core) * 1024.0 *
                                    1024.0 / static_cast<double>(s.ues);
    }
  }
  rep.run_s = seconds_since(run_t0);
  rep.peak_rss_mb = peak_rss_mb();

  std::optional<core::Metrics> merged;
  if (sim.sharded) merged.emplace(sim.sharded->merged_metrics());
  const core::Metrics& m = merged ? *merged : *sim.metrics;
  rep.started = m.procedures_started.value();
  rep.completed = m.procedures_completed.value();
  rep.ryw = m.ryw_violations.value();
  if (s.kind == Kind::kMobility) {
    rep.primary = pct_of(m, PT::kHandover);
  } else {
    rep.primary = pct_of(m, PT::kAttach);
  }
  rep.secondary = pct_of(m, PT::kServiceRequest);
  rep.fingerprint = fingerprint_of(sim, m);

  auto& L = rep.layer;
  auto& H = rep.host;
  const auto events = static_cast<double>(sim.events());
  L["sim.events"] = events;
  H["sim.ns_per_event"] = events > 0 ? rep.run_s * 1e9 / events : 0.0;
  const double storm_ues =
      s.kind == Kind::kMobility ? 0.0 : static_cast<double>(s.ues);
  H["sim.attach_wave_ns_per_proc"] =
      storm_ues > 0 ? attach_wave_s * 1e9 / storm_ues : 0.0;
  H["sim.sr_wave_ns_per_proc"] =
      storm_ues > 0 ? sr_wave_s * 1e9 / storm_ues : 0.0;
  H["sim.drain_s"] = drain_s;
  L["traffic.records"] = static_cast<double>(plan.records.size());
  L["traffic.mobility_records"] = static_cast<double>(plan.mobility_records);
  collect_core(sim, m, plan, rep);

  if (sim.sharded) {
    const auto& st = sim.sharded->stats();
    L["parallel.windows"] = static_cast<double>(st.windows);
    L["parallel.events_per_window"] =
        st.windows > 0 ? events / static_cast<double>(st.windows) : 0.0;
    L["parallel.cross_shard_messages"] =
        static_cast<double>(st.cross_messages);
    L["parallel.adaptive_extensions"] =
        static_cast<double>(st.adaptive_extensions);
    L["parallel.dispatches_skipped"] =
        static_cast<double>(st.dispatches_skipped);
    const std::vector<std::uint64_t> per_shard = sim.sharded->shard_events();
    double max_ev = 0, sum_ev = 0;
    for (const std::uint64_t e : per_shard) {
      max_ev = std::max(max_ev, static_cast<double>(e));
      sum_ev += static_cast<double>(e);
    }
    L["parallel.shard_imbalance"] =
        sum_ev > 0 ? max_ev / (sum_ev / static_cast<double>(per_shard.size()))
                   : 0.0;
    if (sim.profiler) {
      double grand = 0;
      for (std::size_t p = 0; p < obs::kPhases; ++p) {
        grand += static_cast<double>(
            sim.profiler->total_ns(static_cast<obs::Phase>(p)));
      }
      auto share = [&](obs::Phase p) {
        return grand > 0
                   ? static_cast<double>(sim.profiler->total_ns(p)) / grand
                   : 0.0;
      };
      H["parallel.dispatch_share"] = share(obs::Phase::kDispatch);
      H["parallel.barrier_wait_share"] = share(obs::Phase::kBarrierWait);
      H["parallel.channel_drain_share"] = share(obs::Phase::kChannelDrain);
      H["parallel.schedule_share"] = share(obs::Phase::kSchedule);
    }
  }
  if (mode.traced) {
    H["span.setup_coverage"] =
        rep.setup_s > 0 ? rep.spans.total_s("setup.") / rep.setup_s : 0.0;
    H["span.run_coverage"] =
        rep.run_s > 0 ? rep.spans.total_s("run.") / rep.run_s : 0.0;
  }
  return rep;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "storm" || name == "storm-sharded" ||
         name == "mobility-failover";
}

Outcome run_sim_workload(const Options& opts) {
  Spec s;
  s.kind = opts.workload == "storm"           ? Kind::kStorm
           : opts.workload == "storm-sharded" ? Kind::kStormSharded
                                              : Kind::kMobility;
  s.ues = opts.ues != 0 ? opts.ues
                        : (s.kind == Kind::kMobility ? kMobilityUes
                                                     : kStormUes);
  s.threads = opts.threads != 0 ? opts.threads : kDefaultThreads;
  s.seed = opts.seed;
  s.inject_ryw = opts.inject == "ryw";
  s.cost_table = opts.cost_table;
  const bool sharded = s.kind == Kind::kStormSharded;

  // A fixed number of repetitions for the given --seconds. A traced run
  // alternates untraced and traced ones (so host drift hits both alike)
  // and needs at least one of each for obs.trace_overhead. The first is
  // untraced in both modes: it runs in a fresh process and reads memory.
  const double rep_s = s.kind == Kind::kStorm   ? kStormRep_s
                       : sharded                ? kShardedRep_s
                                                : kMobilityRep_s;
  const auto n_reps = std::max<std::size_t>(
      opts.trace ? 2 : 1,
      static_cast<std::size_t>(std::lround(opts.seconds / rep_s)));
  std::vector<Rep> reps;
  CpuRotation cpus;
  for (std::size_t i = 0; i < n_reps; ++i) {
    RepMode mode;
    mode.traced = opts.trace && i % 2 == 1;
    mode.measure_mem = i == 0;
    // Each slice of each repetition starts on the next CPU, so every
    // slice is sampled on every CPU. The sharded runtime's workers would
    // inherit a one-CPU mask, so storm-sharded runs unpinned.
    mode.cpus = sharded ? nullptr : &cpus;
    mode.first_cpu = i;
    reps.push_back(run_rep(s, mode));
    const Rep& r = reps.back();
    std::fprintf(stderr, "rep %zu%s setup_s=%.4f run_s=%.4f ops_per_s=%.0f\n",
                 i, mode.traced ? " traced" : "", r.setup_s, r.run_s,
                 static_cast<double>(r.completed) / r.run_s);
  }

  Outcome out;
  const Rep& ref = reps.front();
  out.attempted = ref.started;
  out.failed = ref.started - ref.completed;
  out.fingerprint = ref.fingerprint;
  for (const Rep& r : reps) {
    if (r.fingerprint != ref.fingerprint) {
      out.correct = false;
      out.errors.push_back(
          std::string{"simulated outputs differ between repetitions ("} +
          (r.traced ? "traced " : "untraced ") + r.fingerprint + " vs " +
          ref.fingerprint + ")");
      break;
    }
  }
  if (ref.ryw != 0) {
    out.correct = false;
    out.errors.push_back(std::to_string(ref.ryw) +
                         " Read-your-Writes violations");
  }

  // Run-phase host time by the pooled minimum: every repetition runs the
  // same slices of identical simulated work, so the fastest time seen for
  // each slice bounds what the code needs for it. Co-tenant contention on
  // a shared host only ever adds time, and it comes in bursts about as
  // long as a slice, so this is far steadier than a median of whole runs.
  std::vector<double> best_slice;
  std::vector<double> untraced_setup, untraced_wall, traced_wall;
  for (const Rep& r : reps) {
    if (r.traced) {
      traced_wall.push_back(r.setup_s + r.run_s);
      continue;
    }
    if (best_slice.empty()) best_slice = r.slice_s;
    for (std::size_t k = 0; k < best_slice.size(); ++k) {
      best_slice[k] = std::min(best_slice[k], r.slice_s[k]);
    }
    untraced_setup.push_back(r.setup_s);
    untraced_wall.push_back(r.setup_s + r.run_s);
  }
  double best_run_s = 0;
  for (const double t : best_slice) best_run_s += t;
  auto& M = out.metrics;
  M["ops_per_s"] = static_cast<double>(ref.completed) / best_run_s;
  M["setup_s"] = median(untraced_setup);
  // The first repetition runs in a fresh process; later ones inherit the
  // allocator's retained pages, so their peak depends on how many ran.
  M["peak_rss_mb"] = ref.peak_rss_mb;
  M["primary_mean_ms"] = ref.primary.mean;
  M["primary_tail_ms"] = ref.primary.tail;
  M["secondary_mean_ms"] = ref.secondary.mean;
  M["secondary_tail_ms"] = ref.secondary.tail;
  M["completed_ratio"] = ref.started > 0
                             ? static_cast<double>(ref.completed) /
                                   static_cast<double>(ref.started)
                             : 0.0;
  if (!opts.trace) return out;

  // Per-layer: simulated values from the first traced repetition (the
  // PCT decomposition exists only there), memory from the first one, host
  // timings as medians over the traced repetitions.
  const Rep& traced_ref = reps[1];
  M.insert(traced_ref.layer.begin(), traced_ref.layer.end());
  for (const auto& [name, value] : ref.mem) M[name] = value;
  for (const auto& [name, value] : traced_ref.host) {
    std::vector<double> values;
    for (const Rep& r : reps) {
      if (r.traced) values.push_back(r.host.at(name));
    }
    M[name] = median(values);
  }
  M["obs.trace_overhead"] = median(traced_wall) / median(untraced_wall) - 1.0;
  for (Rep& r : reps) {
    if (r.traced) out.spans.push_back(std::move(r.spans));
  }
  return out;
}

}  // namespace perfbench
