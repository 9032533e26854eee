// s1ap-codec: encode plus decode/access round trips of the s1ap::samples
// messages (the 19 MeasuredCostModel times) in all seven wire formats.
//
// Once the simulator runs on the frozen cost table it never calls a
// codec, so this is the only workload that measures the serialize layer.
// Each format is exercised the way its applications use it: sequential
// formats parse into the message struct (and the result is compared with
// the input), FlatBuffers are read through accessors without
// materializing (and the accessor checksum is compared with the one a
// full, compared decode produced during set-up).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "s1ap/samples.hpp"
#include "serialize/codec.hpp"
#include "serialize/flatbuf.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace neutrino;
using Clock = std::chrono::steady_clock;
using ser::WireFormat;

constexpr std::size_t kFormats = ser::kAllWireFormats.size();
/// Round trips per timed (format, message) batch: long enough that two
/// clock reads are noise, short enough for thousands of batches a run.
constexpr std::size_t kBatch = 32;
/// Host seconds one round (every format once) takes on the reference
/// host (README). A run makes round(--seconds / this) rounds: a fixed
/// number for a given --seconds, whatever the speed of the code, so the
/// pooled minimum is always taken over the same number of batches.
constexpr double kRound_s = 0.005;
/// Set-up is re-measured every this many rounds, so its median spans the
/// whole run rather than the host's state in its first milliseconds.
constexpr std::size_t kSetupEveryRounds = 100;
/// The run moves to the next CPU every this many rounds (CpuRotation).
constexpr std::size_t kRoundsPerCpu = 50;

/// The seed picks the identifiers carried by the messages; each stays in
/// the same magnitude band, so every encoding keeps its length.
auto make_samples(std::uint64_t seed) {
  namespace s = s1ap::samples;
  const std::uint64_t h = (seed + 1) * 0x9e3779b97f4a7c15ULL;
  const auto enb_id =
      static_cast<std::uint32_t>(0x100000 + (h >> 44) % 0xfffff);
  const auto mme_id = static_cast<std::uint32_t>(512 + (h >> 20) % 1024);
  return std::make_tuple(
      s::initial_ue_message(enb_id), s::downlink_nas(), s::uplink_nas(),
      s::initial_context_setup(), s::initial_context_setup_response(),
      s::handover_required(mme_id), s::handover_request(mme_id),
      s::handover_request_ack(), s::handover_command(), s::handover_notify(),
      s::ue_context_release_command(), s::ue_context_release_complete(),
      s::create_session_request(), s::create_session_response(),
      s::modify_bearer_request(), s::modify_bearer_response(),
      s::tracking_area_update(), s::paging(), s::ue_context_checkpoint());
}
using Samples = decltype(make_samples(0));
constexpr std::size_t kMessages = std::tuple_size_v<Samples>;

/// Calls f(index, message) for every sample.
template <class F>
void for_each_sample(Samples& samples, F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(I, std::get<I>(samples)), ...);
  }(std::make_index_sequence<kMessages>{});
}

bool is_flatbuf(WireFormat f) {
  return f == WireFormat::kFlatBuffers ||
         f == WireFormat::kOptimizedFlatBuffers;
}

ser::FlatBufMode flatbuf_mode(WireFormat f) {
  return f == WireFormat::kFlatBuffers ? ser::FlatBufMode::kStandard
                                       : ser::FlatBufMode::kOptimized;
}

std::string metric_name(WireFormat f) {
  switch (f) {
    case WireFormat::kAsn1Per: return "asn1_per";
    case WireFormat::kFlatBuffers: return "flatbuffers";
    case WireFormat::kOptimizedFlatBuffers: return "optimized_flatbuffers";
    case WireFormat::kProtobuf: return "protobuf";
    case WireFormat::kFastCdr: return "fast_cdr";
    case WireFormat::kLcm: return "lcm";
    case WireFormat::kFlexBuffers: return "flexbuffers";
  }
  return "unknown";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One decode/access of `data`, checked against the message it encodes.
template <class M>
bool round_trip_ok(WireFormat f, BytesView data, const M& msg,
                   std::uint64_t expected_checksum) {
  if (is_flatbuf(f)) {
    const auto sum = ser::FlatBufAccessor::access_all<M>(data, flatbuf_mode(f));
    return sum.is_ok() && *sum == expected_checksum;
  }
  const auto decoded = ser::decode<M>(f, data);
  return decoded.is_ok() && *decoded == msg;
}

struct State {
  explicit State(std::uint64_t seed) : samples(make_samples(seed)) {}

  Samples samples;
  /// Accessor checksum of each FlatBuffers encoding, fixed at set-up.
  std::array<std::array<std::uint64_t, kMessages>, kFormats> checksum{};
  std::array<std::array<double, kMessages>, kFormats> bytes{};
  /// Per (format, message): ns per round trip of every timed batch.
  std::array<std::array<std::vector<double>, kMessages>, kFormats> batch_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool corrupt_next = false;  // planted fault: damage one encoding
};

/// Full decode of every (format, message), compared with the input; also
/// records encoded sizes and FlatBuffers accessor checksums.
void verify_all(State& st) {
  for (std::size_t fi = 0; fi < kFormats; ++fi) {
    const WireFormat f = ser::kAllWireFormats[fi];
    for_each_sample(st.samples, [&](std::size_t mi, const auto& msg) {
      using M = std::decay_t<decltype(msg)>;
      const Bytes enc = ser::encode(f, msg);
      st.bytes[fi][mi] = static_cast<double>(enc.size());
      ++st.attempted;
      bool ok = false;
      if (is_flatbuf(f)) {
        const auto decoded = ser::decode<M>(f, enc);
        const auto sum = ser::FlatBufAccessor::access_all<M>(enc,
                                                             flatbuf_mode(f));
        ok = decoded.is_ok() && *decoded == msg && sum.is_ok();
        st.checksum[fi][mi] = sum.is_ok() ? *sum : 0;
      } else {
        ok = round_trip_ok(f, enc, msg, 0);
      }
      if (!ok) ++st.failed;
    });
  }
}

/// One timed batch per (message) for format `fi`: kBatch encodes, then
/// kBatch checked decodes. Encode and decode of the whole pass are spans.
void run_format(State& st, std::size_t fi, SpanRecorder* spans,
                const std::string& encode_span,
                const std::string& decode_span) {
  const WireFormat f = ser::kAllWireFormats[fi];
  std::array<std::array<Bytes, kBatch>, kMessages> enc;
  std::array<double, kMessages> encode_ns{};
  {
    SpanRecorder::Scope span(spans, encode_span);
    for_each_sample(st.samples, [&](std::size_t mi, const auto& msg) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) enc[mi][i] = ser::encode(f, msg);
      encode_ns[mi] =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    });
  }
  if (st.corrupt_next) {
    st.corrupt_next = false;
    Bytes& victim = enc[0][0];
    victim[victim.size() / 2] ^= 0x5a;
  }
  {
    SpanRecorder::Scope span(spans, decode_span);
    for_each_sample(st.samples, [&](std::size_t mi, const auto& msg) {
      std::uint64_t bad = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        bad += round_trip_ok(f, enc[mi][i], msg, st.checksum[fi][mi]) ? 0 : 1;
      }
      const double ns =
          encode_ns[mi] +
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      st.batch_ns[fi][mi].push_back(ns / static_cast<double>(kBatch));
      st.attempted += kBatch;
      st.failed += bad;
    });
  }
}

/// Pooled minimum over batches: host contention only ever adds time, so
/// the fastest batch of identical work is the steadiest estimate of what
/// the codec itself costs.
double per_message_ns(const State& st, std::size_t fi, std::size_t mi) {
  const std::vector<double>& v = st.batch_ns[fi][mi];
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::size_t format_index(WireFormat f) { return static_cast<std::size_t>(f); }

/// One set-up: build the samples, decode every (format, message) in full
/// and compare it with its input, then one untimed warm-up pass. Returns
/// its host time; `st` receives the reference checksums and sizes (the
/// same every time) and counts the compared round trips.
double timed_setup(std::uint64_t seed, State& st, SpanRecorder* spans) {
  const auto t0 = Clock::now();
  State fresh(seed);
  {
    SpanRecorder::Scope span(spans, "setup.codec.verify");
    verify_all(fresh);
  }
  {
    SpanRecorder::Scope span(spans, "setup.codec.warmup");
    for (std::size_t fi = 0; fi < kFormats; ++fi) {
      run_format(fresh, fi, nullptr, "", "");
    }
  }
  const double dt = seconds_since(t0);
  st.checksum = fresh.checksum;
  st.bytes = fresh.bytes;
  st.attempted += fresh.attempted;
  st.failed += fresh.failed;
  return dt;
}

}  // namespace

Outcome run_codec_workload(const Options& opts) {
  Outcome out;
  State st(opts.seed);
  SpanRecorder setup_spans;
  std::vector<double> setup_s = {
      timed_setup(opts.seed, st, opts.trace ? &setup_spans : nullptr)};
  st.corrupt_next = opts.inject == "codec";

  std::array<std::string, kFormats> encode_span, decode_span;
  for (std::size_t fi = 0; fi < kFormats; ++fi) {
    const std::string name = metric_name(ser::kAllWireFormats[fi]);
    encode_span[fi] = "codec." + name + ".encode";
    decode_span[fi] = "codec." + name + ".decode";
  }

  // Rounds visit every format in turn so host drift hits them alike. A
  // traced run alternates traced and untraced rounds; per-format figures
  // come from the traced rounds, obs.trace_overhead from the pair.
  State traced_st(opts.seed);
  traced_st.checksum = st.checksum;
  SpanRecorder run_spans;
  std::vector<double> round_s[2];  // [traced]
  const auto n_rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(opts.seconds / kRound_s)));
  CpuRotation cpus;
  for (std::size_t round = 0; round < n_rounds; ++round) {
    if (round % kRoundsPerCpu == 0) cpus.pin(round / kRoundsPerCpu);
    const bool traced = opts.trace && round % 2 == 1;
    State& target = traced ? traced_st : st;
    const auto round_t0 = Clock::now();
    for (std::size_t fi = 0; fi < kFormats; ++fi) {
      run_format(target, fi, traced ? &run_spans : nullptr, encode_span[fi],
                 decode_span[fi]);
    }
    round_s[traced].push_back(seconds_since(round_t0));
    if ((round + 1) % kSetupEveryRounds == 0) {
      setup_s.push_back(timed_setup(opts.seed, st, nullptr));
    }
  }
  std::fprintf(stderr, "%zu rounds, %zu set-ups\n", n_rounds,
               setup_s.size());

  out.attempted = st.attempted + traced_st.attempted;
  out.failed = st.failed + traced_st.failed;
  if (out.failed != 0) {
    out.correct = false;
    out.errors.push_back(std::to_string(out.failed) +
                         " codec round trips did not reproduce their input");
  }

  auto& M = out.metrics;
  auto recorder = [&](WireFormat f) {
    LatencyRecorder r;
    for (std::size_t mi = 0; mi < kMessages; ++mi) {
      r.add(per_message_ns(st, format_index(f), mi));
    }
    return r;
  };
  // One round trip of every message in every format, back to back.
  double all_formats_ns = 0;
  for (const WireFormat f : ser::kAllWireFormats) {
    all_formats_ns += recorder(f).mean() * static_cast<double>(kMessages);
  }
  M["ops_per_s"] =
      static_cast<double>(kFormats * kMessages) * 1e9 / all_formats_ns;
  M["setup_s"] = median(setup_s);
  M["peak_rss_mb"] = peak_rss_mb();
  auto tail = [](const LatencyRecorder& r) {
    return tail_mean([&](double q) { return r.percentile(q); });
  };
  const LatencyRecorder opt = recorder(WireFormat::kOptimizedFlatBuffers);
  const LatencyRecorder asn1 = recorder(WireFormat::kAsn1Per);
  M["primary_mean_ms"] = opt.mean() * 1e-6;
  M["primary_tail_ms"] = tail(opt) * 1e-6;
  M["secondary_mean_ms"] = asn1.mean() * 1e-6;
  M["secondary_tail_ms"] = tail(asn1) * 1e-6;
  M["completed_ratio"] =
      static_cast<double>(out.attempted - out.failed) /
      static_cast<double>(out.attempted);
  if (!opts.trace) return out;

  double optfb_ns = 0, asn1_ns = 0;
  for (const WireFormat f : ser::kAllWireFormats) {
    const std::size_t fi = format_index(f);
    double ns = 0, bytes = 0;
    for (std::size_t mi = 0; mi < kMessages; ++mi) {
      ns += per_message_ns(traced_st, fi, mi);
      bytes += st.bytes[fi][mi];
    }
    ns /= static_cast<double>(kMessages);
    M["serialize." + metric_name(f) + ".roundtrip_ns"] = ns;
    M["serialize." + metric_name(f) + ".bytes"] =
        bytes / static_cast<double>(kMessages);
    if (f == WireFormat::kOptimizedFlatBuffers) optfb_ns = ns;
    if (f == WireFormat::kAsn1Per) asn1_ns = ns;
  }
  M["serialize.optfb_speedup_vs_asn1"] = asn1_ns / optfb_ns;
  M["obs.trace_overhead"] = median(round_s[1]) / median(round_s[0]) - 1.0;
  out.spans.push_back(std::move(setup_spans));
  out.spans.push_back(std::move(run_spans));
  return out;
}

}  // namespace perfbench
