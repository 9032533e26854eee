// Synthetic control-traffic workloads standing in for the ng4T traces [45]
// (DESIGN.md §2): the paper uses the commercial traces as (a) an arrival
// process and (b) a procedure mix; both are published properties that these
// generators reproduce.
#pragma once

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"

namespace neutrino::trace {

/// One control-procedure arrival.
struct TraceRecord {
  SimTime at;
  UeId ue;
  core::ProcedureType type = core::ProcedureType::kAttach;
  std::uint32_t target_region = 0;  // handovers
};

/// The documented total order over trace records: (at, ue, type). Streams
/// produced by independent generators (one per device class, one per
/// shard, ...) merge deterministically under this order regardless of
/// generation order — the same construction as the flight recorder's
/// (time, shard, seq) merge. Records identical in all three keys are
/// interchangeable arrivals, so any tie-break among them is immaterial.
inline bool record_before(const TraceRecord& a, const TraceRecord& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.ue.value() != b.ue.value()) return a.ue.value() < b.ue.value();
  return static_cast<int>(a.type) < static_cast<int>(b.type);
}

/// Sort a record stream into the (at, ue, type) total order.
inline void sort_records(std::vector<TraceRecord>& records) {
  std::sort(records.begin(), records.end(), record_before);
}

/// K-way merge of streams each already sorted by record_before; the
/// result is the (at, ue, type)-sorted concatenation. Pairwise std::merge
/// keeps this O(n log k) without a heap.
inline std::vector<TraceRecord> merge_sorted_records(
    std::vector<std::vector<TraceRecord>> streams) {
  while (streams.size() > 1) {
    std::vector<std::vector<TraceRecord>> next;
    next.reserve(streams.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < streams.size(); i += 2) {
      std::vector<TraceRecord> merged;
      merged.reserve(streams[i].size() + streams[i + 1].size());
      std::merge(streams[i].begin(), streams[i].end(),
                 streams[i + 1].begin(), streams[i + 1].end(),
                 std::back_inserter(merged), record_before);
      next.push_back(std::move(merged));
    }
    if (streams.size() % 2 == 1) next.push_back(std::move(streams.back()));
    streams = std::move(next);
  }
  return streams.empty() ? std::vector<TraceRecord>{} : std::move(streams[0]);
}

/// Procedure mix (fractions; attach gets the remainder).
struct ProcedureMix {
  double service_request = 0.0;
  double handover = 0.0;
  double intra_handover = 0.0;
};

/// §6.1 "uniform traffic to emulate a pre-specified number of control
/// procedure requests per second": Poisson arrivals at `rate_pps`, each
/// from a distinct UE of a cycling population.
///
/// Mix contract: the fractions apply as configured whenever the topology
/// can express them. Inter-region handover needs `regions > 1`; on a
/// single-region topology the handover mass is *renormalized into
/// intra-handover* (the nearest expressible procedure) rather than
/// silently falling through to whatever branch the dice land in — the
/// effective mix is therefore {service_request, 0, handover +
/// intra_handover} with attach keeping exactly its configured remainder.
class UniformWorkload {
 public:
  UniformWorkload(double rate_pps, SimTime duration, ProcedureMix mix,
                  std::uint64_t seed = 1)
      : rate_pps_(rate_pps), duration_(duration), mix_(mix), rng_(seed) {}

  std::vector<TraceRecord> generate(std::uint64_t ue_population,
                                    int regions) {
    // Renormalize the mix for the topology (see the class comment).
    ProcedureMix mix = mix_;
    if (regions <= 1) {
      mix.intra_handover += mix.handover;
      mix.handover = 0.0;
    }
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(rate_pps_ * duration_.sec() * 1.1));
    double t = 0.0;
    std::uint64_t next_ue = 0;
    while (true) {
      t += rng_.next_exponential(1.0 / rate_pps_);
      const auto at = SimTime::nanoseconds(static_cast<std::int64_t>(t * 1e9));
      if (at > duration_) break;
      TraceRecord rec;
      rec.at = at;
      rec.ue = UeId(next_ue);
      next_ue = (next_ue + 1) % ue_population;
      const double dice = rng_.next_double();
      const auto r = static_cast<std::uint32_t>(regions);
      const auto home = static_cast<std::uint32_t>(rec.ue.value() % r);
      if (dice < mix.service_request) {
        rec.type = core::ProcedureType::kServiceRequest;
      } else if (dice < mix.service_request + mix.handover) {
        rec.type = core::ProcedureType::kHandover;
        rec.target_region = (home + 1) % r;
      } else if (dice < mix.service_request + mix.handover +
                            mix.intra_handover) {
        rec.type = core::ProcedureType::kIntraHandover;
        rec.target_region = home;
      } else {
        rec.type = core::ProcedureType::kAttach;
      }
      out.push_back(rec);
    }
    return out;
  }

 private:
  double rate_pps_;
  SimTime duration_;
  ProcedureMix mix_;
  Rng rng_;
};

/// §6.1 "bursty traffic to emulate a large number of IoT devices sending
/// requests in a synchronized pattern": `n_users` distinct UEs all issue an
/// attach within a short window (e.g. a power-restoration or periodic
/// report synchronization event).
class BurstyWorkload {
 public:
  BurstyWorkload(std::uint64_t n_users, SimTime window,
                 std::uint64_t seed = 1)
      : n_users_(n_users), window_(window), rng_(seed) {}

  std::vector<TraceRecord> generate() {
    std::vector<TraceRecord> out;
    out.reserve(n_users_);
    for (std::uint64_t ue = 0; ue < n_users_; ++ue) {
      TraceRecord rec;
      rec.at = SimTime::nanoseconds(static_cast<std::int64_t>(
          rng_.next_double() * static_cast<double>(window_.ns())));
      rec.ue = UeId(ue);
      rec.type = core::ProcedureType::kAttach;
      out.push_back(rec);
    }
    // Total (at, ue, type) order, not a bare non-stable sort on `at`:
    // equal-timestamp records must land in a deterministic order for the
    // bitwise-determinism contract to hold.
    sort_records(out);
    return out;
  }

 private:
  std::uint64_t n_users_;
  SimTime window_;
  Rng rng_;
};

/// Per-device behaviour over a long horizon, following the §2.2 statistics:
/// a device issues a session establishment (service request) every 106.9 s
/// on average, with attaches and mobility events mixed in.
class DeviceModelWorkload {
 public:
  DeviceModelWorkload(std::uint64_t n_devices, SimTime horizon,
                      std::uint64_t seed = 7)
      : n_devices_(n_devices), horizon_(horizon), rng_(seed) {}

  static constexpr double kMeanSessionGapSec = 106.9;  // §2.2 [37]

  std::vector<TraceRecord> generate(int regions) {
    std::vector<TraceRecord> out;
    for (std::uint64_t d = 0; d < n_devices_; ++d) {
      Rng dev_rng(rng_.next_u64());
      double t = dev_rng.next_double() * kMeanSessionGapSec;
      const auto home = static_cast<std::uint32_t>(
          d % static_cast<std::uint64_t>(regions));
      while (t * 1e9 < static_cast<double>(horizon_.ns())) {
        TraceRecord rec;
        rec.at = SimTime::nanoseconds(static_cast<std::int64_t>(t * 1e9));
        rec.ue = UeId(d);
        const double dice = dev_rng.next_double();
        if (dice < 0.85) {
          rec.type = core::ProcedureType::kServiceRequest;
        } else if (dice < 0.95 && regions > 1) {
          rec.type = core::ProcedureType::kHandover;
          rec.target_region =
              (home + 1) % static_cast<std::uint32_t>(regions);
        } else {
          rec.type = core::ProcedureType::kAttach;
        }
        out.push_back(rec);
        t += dev_rng.next_exponential(kMeanSessionGapSec);
      }
    }
    sort_records(out);
    return out;
  }

 private:
  std::uint64_t n_devices_;
  SimTime horizon_;
  Rng rng_;
};

/// Replay a trace into the system as one lazily armed stream on its event
/// loop (System::replay). Pre-attached UEs are the caller's responsibility.
inline void replay(core::System& system, const std::vector<TraceRecord>& trace) {
  system.replay(trace);
}

}  // namespace neutrino::trace
