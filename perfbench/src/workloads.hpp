// The benchmark's workloads and what each one hands back to main.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Population override (0 = the workload's own size). Tests use it to
  /// run small; the recorded benchmark never sets it.
  std::uint64_t ues = 0;
  /// storm-sharded worker threads (0 = 4).
  std::uint32_t threads = 0;
  std::string cost_table = "perfbench/data/cost_table.tsv";
  /// Where the traced run writes its spans ("" = .bench_build default).
  std::string spans_out;
  /// Planted fault for the correctness gates' own tests: "ryw" makes one
  /// CPF reply from stale state, "codec" corrupts one encoded message.
  std::string inject;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every metric this workload measured, by name.
  std::map<std::string, double> metrics;
  /// Hash of every simulated output (simulator workloads only).
  std::string fingerprint;
  std::vector<std::string> errors;
  /// One recorder per traced repetition.
  std::vector<SpanRecorder> spans;
};

bool is_sim_workload(const std::string& name);

/// storm, storm-sharded or mobility-failover. Repeats the whole
/// set-up + run a fixed number of times for `seconds` (at least once; in
/// a traced run at least once with and once without tracing).
Outcome run_sim_workload(const Options& opts);

/// s1ap-codec: round trips of the s1ap::samples messages in every wire
/// format, a fixed number of rounds for `seconds`.
Outcome run_codec_workload(const Options& opts);

/// Moves the calling thread from CPU to CPU between pieces of timed work.
///
/// On a shared host one CPU can run at half the speed of the others for
/// minutes, and the scheduler has no reason to move a lone thread off it.
/// Pinning the i-th piece of work to the i-th allowed CPU (round robin)
/// makes every CPU contribute samples to the pooled minimum, so one slow
/// CPU cannot slow a whole run. The destructor restores the original
/// mask. Do not use it around threads that must spread out: threads
/// started while pinned inherit the single-CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void pin(std::size_t i);

 private:
  std::vector<int> cpus_;
};

/// Current and peak resident set size of this process, in MiB.
double current_rss_mb();
double peak_rss_mb();

/// Median of `v` (0 if empty), interpolated as LatencyRecorder does.
double median(const std::vector<double>& v);

/// Mean of the slowest 1%: the integral of the quantile function over
/// [0.99, 1], by the midpoint rule. Unlike a single high percentile it
/// moves when the share of slow samples moves, also when the simulated
/// latencies take only a few distinct values.
template <class QuantileFn>
double tail_mean(QuantileFn&& quantile_at) {
  constexpr int kSteps = 1000;
  double sum = 0;
  for (int k = 0; k < kSteps; ++k) {
    sum += quantile_at(0.99 + 0.01 * (k + 0.5) / kSteps);
  }
  return sum / kSteps;
}

}  // namespace perfbench
