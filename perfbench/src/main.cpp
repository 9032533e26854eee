// perfbench: the repo's benchmark binary. One process runs one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ues N] [--threads N] [--cost-table PATH]
//             [--spans-out PATH] [--inject ryw|codec]
//   perfbench --regen-cost-table PATH
//
// Prints every metric as "metric NAME VALUE UNIT", the simulated-output
// fingerprint, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exit codes: 0 ok, 1 wrong output (RYW violation, codec mismatch,
// non-repeating simulation) or I/O failure, 2 bad command line.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/stats.hpp"
#include "core/cost_model.hpp"
#include "frozen_costs.hpp"
#include "workloads.hpp"

namespace perfbench {

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::pin(std::size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[i % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(const std::vector<double>& v) {
  neutrino::LatencyRecorder r;
  for (const double x : v) r.add(x);
  return r.empty() ? 0.0 : r.median();
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's "end_to_end" metrics.
const std::vector<MetricDef> kEndToEnd = {
    {"ops_per_s", "1/s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},       {"primary_mean_ms", "ms"},
    {"primary_tail_ms", "ms"},    {"secondary_mean_ms", "ms"},
    {"secondary_tail_ms", "ms"},  {"completed_ratio", "ratio"},
};

// Must list exactly BENCHMARK.json's "per_layer" metrics. A workload that
// does not exercise a layer reports 0 for it.
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.attach_wave_ns_per_proc", "ns"},
    {"sim.sr_wave_ns_per_proc", "ns"},
    {"sim.drain_s", "s"},
    {"sim.pending_peak", "count"},
    {"parallel.windows", "count"},
    {"parallel.events_per_window", "count"},
    {"parallel.cross_shard_messages", "count"},
    {"parallel.dispatch_share", "ratio"},
    {"parallel.barrier_wait_share", "ratio"},
    {"parallel.channel_drain_share", "ratio"},
    {"parallel.schedule_share", "ratio"},
    {"parallel.shard_imbalance", "ratio"},
    {"parallel.adaptive_extensions", "count"},
    {"parallel.dispatches_skipped", "count"},
    {"traffic.generate_s", "s"},
    {"traffic.records", "count"},
    {"traffic.mobility_records", "count"},
    {"trace.replay_s", "s"},
    {"core.build_s", "s"},
    {"cta.busy_share", "ratio"},
    {"cta.peak_depth", "count"},
    {"cta.log_appends", "count"},
    {"cta.log_prunes", "count"},
    {"cta.log_bytes_peak", "bytes"},
    {"cta.log_bytes_end", "bytes"},
    {"cta.replays", "count"},
    {"cpf.busy_share", "ratio"},
    {"cpf.peak_depth", "count"},
    {"cpf.checkpoints_sent", "count"},
    {"cpf.checkpoint_acks", "count"},
    {"cpf.fast_handovers", "count"},
    {"cpf.state_fetches", "count"},
    {"cpf.fast_handover_ratio", "ratio"},
    {"cpf.failovers", "count"},
    {"core.reattaches", "count"},
    {"core.reattach_ratio", "ratio"},
    {"frontend.nas_retransmissions", "count"},
    {"frontend.retx_exhausted", "count"},
    {"frontend.failed_ratio", "ratio"},
    {"frontend.completions.attach", "count"},
    {"frontend.completions.service_request", "count"},
    {"frontend.completions.handover", "count"},
    {"frontend.completions.intra_handover", "count"},
    {"frontend.completions.reattach", "count"},
    {"frontend.completions.detach", "count"},
    {"frontend.completions.tau", "count"},
    {"msg_pool.capacity", "count"},
    {"msg_pool.acquired", "count"},
    {"msg_pool.reused", "count"},
    {"upf.sessions_end", "count"},
    {"pct.attach.propagation_ms", "ms"},
    {"pct.attach.queueing_ms", "ms"},
    {"pct.attach.service_ms", "ms"},
    {"pct.attach.serialization_ms", "ms"},
    {"pct.sr.propagation_ms", "ms"},
    {"pct.sr.queueing_ms", "ms"},
    {"pct.sr.service_ms", "ms"},
    {"pct.sr.serialization_ms", "ms"},
    {"pct.handover.propagation_ms", "ms"},
    {"pct.handover.queueing_ms", "ms"},
    {"pct.handover.service_ms", "ms"},
    {"pct.handover.serialization_ms", "ms"},
    {"mem.rss_after_setup_mb", "MiB"},
    {"mem.rss_after_attach_wave_mb", "MiB"},
    {"mem.bytes_per_ue", "bytes"},
    {"serialize.asn1_per.roundtrip_ns", "ns"},
    {"serialize.asn1_per.bytes", "bytes"},
    {"serialize.flatbuffers.roundtrip_ns", "ns"},
    {"serialize.flatbuffers.bytes", "bytes"},
    {"serialize.optimized_flatbuffers.roundtrip_ns", "ns"},
    {"serialize.optimized_flatbuffers.bytes", "bytes"},
    {"serialize.protobuf.roundtrip_ns", "ns"},
    {"serialize.protobuf.bytes", "bytes"},
    {"serialize.fast_cdr.roundtrip_ns", "ns"},
    {"serialize.fast_cdr.bytes", "bytes"},
    {"serialize.lcm.roundtrip_ns", "ns"},
    {"serialize.lcm.bytes", "bytes"},
    {"serialize.flexbuffers.roundtrip_ns", "ns"},
    {"serialize.flexbuffers.bytes", "bytes"},
    {"serialize.optfb_speedup_vs_asn1", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"span.setup_coverage", "ratio"},
    {"span.run_coverage", "ratio"},
};

const char* const kWorkloads[] = {"storm", "storm-sharded",
                                  "mobility-failover", "s1ap-codec"};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload {storm|storm-sharded|"
               "mobility-failover|s1ap-codec} --seed N --seconds S "
               "--trace 0|1 [--ues N] [--threads N] [--cost-table PATH] "
               "[--spans-out PATH] [--inject ryw|codec]\n"
               "       perfbench --regen-cost-table PATH\n");
  std::exit(2);
}

std::uint64_t parse_uint(std::string_view flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
    usage_error(std::string{flag} + " needs a whole number, got '" + v + "'");
  }
  return x;
}

struct Parsed {
  Options opts;
  std::string regen_path;
};

Parsed parse(int argc, char** argv) {
  Parsed p;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool inline_value = false;
    if (const auto eq = arg.find('='); arg.rfind("--", 0) == 0 &&
                                       eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      inline_value = true;
    }
    auto next = [&]() -> std::string {
      if (inline_value) return value;
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      p.opts.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      p.opts.seed = parse_uint(arg, next());
    } else if (arg == "--seconds") {
      const std::string v = next();
      char* end = nullptr;
      p.opts.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(p.opts.seconds > 0) ||
          p.opts.seconds > 3600) {
        usage_error("--seconds needs a positive number, got '" + v + "'");
      }
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      p.opts.trace = v == "1";
    } else if (arg == "--ues") {
      p.opts.ues = parse_uint(arg, next());
    } else if (arg == "--threads") {
      p.opts.threads = static_cast<std::uint32_t>(parse_uint(arg, next()));
      if (p.opts.threads == 0 || p.opts.threads > 64) {
        usage_error("--threads takes 1..64");
      }
    } else if (arg == "--cost-table") {
      p.opts.cost_table = next();
    } else if (arg == "--spans-out") {
      p.opts.spans_out = next();
    } else if (arg == "--inject") {
      p.opts.inject = next();
      if (p.opts.inject != "ryw" && p.opts.inject != "codec") {
        usage_error("--inject takes ryw or codec");
      }
    } else if (arg == "--regen-cost-table") {
      p.regen_path = next();
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (!p.regen_path.empty()) return p;
  if (!have_workload) usage_error("--workload is required");
  bool known = false;
  for (const char* w : kWorkloads) known = known || p.opts.workload == w;
  if (!known) usage_error("unknown workload '" + p.opts.workload + "'");
  return p;
}

std::string host_description() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown CPU";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return model + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads";
}

int regen(const std::string& path) {
  const neutrino::core::MeasuredCostModel model;
  if (!write_cost_table(path, model, host_description())) {
    std::fprintf(stderr, "perfbench: cannot write cost table %s\n",
                 path.c_str());
    return 1;
  }
  // Round-trip through the loader so a table the benchmark cannot read is
  // never left behind.
  FrozenCostModel check(path);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Parsed parsed = parse(argc, argv);
  try {
    if (!parsed.regen_path.empty()) return regen(parsed.regen_path);
    Options opts = parsed.opts;

    // Fail before the run, not after it, when the spans cannot be written.
    if (opts.trace && opts.spans_out.empty()) {
      std::filesystem::create_directories(".bench_build/spans");
      opts.spans_out = ".bench_build/spans/" + opts.workload + "-seed" +
                       std::to_string(opts.seed) + ".json";
    }
    if (!opts.spans_out.empty()) {
      std::ofstream probe(opts.spans_out);
      if (!probe) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opts.spans_out.c_str());
        return 1;
      }
    }

    Outcome out = is_sim_workload(opts.workload) ? run_sim_workload(opts)
                                                 : run_codec_workload(opts);

    const std::vector<MetricDef>& defs = opts.trace ? kPerLayer : kEndToEnd;
    for (const auto& [name, value] : out.metrics) {
      bool listed = false;
      for (const MetricDef& d : kEndToEnd) listed = listed || name == d.name;
      for (const MetricDef& d : kPerLayer) listed = listed || name == d.name;
      if (!listed) {
        std::fprintf(stderr, "perfbench: internal error: metric %s is not "
                             "in the catalogue\n", name.c_str());
        return 1;
      }
    }
    std::string metrics_json;
    for (const MetricDef& d : defs) {
      const auto it = out.metrics.find(d.name);
      if (it == out.metrics.end() && !opts.trace) {
        std::fprintf(stderr, "perfbench: internal error: %s not measured\n",
                     d.name);
        return 1;
      }
      const double value = it == out.metrics.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) {
        out.correct = false;
        out.errors.push_back(std::string{d.name} + " is not finite");
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(value) ? value : 0.0);
      std::printf("metric %s %s %s\n", d.name, buf, d.unit);
      metrics_json += metrics_json.empty() ? "" : ", ";
      metrics_json += "\"" + std::string{d.name} + "\": {\"value\": " +
                      buf + ", \"unit\": \"" + d.unit + "\"}";
    }
    if (!out.fingerprint.empty()) {
      std::printf("fingerprint %s %s\n", opts.workload.c_str(),
                  out.fingerprint.c_str());
    }
    bool io_ok = true;
    if (!opts.spans_out.empty()) {
      // All traced repetitions, each recorder's spans with their parents
      // re-based into one list.
      std::string doc = "{\"spans\": [";
      std::size_t base = 0;
      bool first_span = true;
      for (const SpanRecorder& r : out.spans) {
        for (const SpanRecorder::Span& s : r.spans()) {
          char buf[256];
          std::snprintf(buf, sizeof buf,
                        "%s\n {\"name\": \"%s\", \"start_s\": %.9f, "
                        "\"end_s\": %.9f, \"parent\": %lld}",
                        first_span ? "" : ",", s.name.c_str(), s.start_s,
                        s.end_s,
                        s.parent < 0 ? -1LL
                                     : static_cast<long long>(base) + s.parent);
          doc += buf;
          first_span = false;
        }
        base += r.spans().size();
      }
      doc += "\n]}\n";
      std::ofstream f(opts.spans_out);
      f << doc;
      f.flush();
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opts.spans_out.c_str());
        io_ok = false;
      }
    }
    for (const std::string& e : out.errors) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics_json.c_str());
    std::fflush(stdout);
    return out.correct && io_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
