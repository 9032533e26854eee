#!/usr/bin/env bash
# Full local gate: sanitized build, tests, bench smoke runs, and JSON
# report validation. Run from the repo root:
#
#   scripts/check.sh            # everything (Debug + ASan/UBSan)
#   FAST=1 scripts/check.sh     # reuse an existing build/ instead
set -euo pipefail
cd "$(dirname "$0")/.."
# A bare `-j` lets make start one compiler per target at once, which runs
# a sanitized build out of memory; cap the build at one job per CPU.
JOBS=$(nproc)

if [[ "${FAST:-0}" == "1" ]]; then
  BUILD=build
  EXCLUDE=()
  cmake -B "$BUILD" -S . >/dev/null
else
  BUILD=build-asan
  # Wall-clock-anchored calibration tests measure the *real* codecs;
  # sanitizer instrumentation skews the measurement, not the code under
  # test, so they only run in the un-instrumented configuration.
  EXCLUDE=(-E "MeasuredCostModel.AttachBudgetAnchored")
  cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    >/dev/null
fi
echo "== build ($BUILD)"
cmake --build "$BUILD" -j "$JOBS"

echo "== ctest"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" "${EXCLUDE[@]}"

# Every bench that runs through bench::run_experiment writes a smoke
# report, and every report must validate: a schema slip (or a leak) in
# any one bench fails here, not in a later reader. Each takes about a
# minute under the sanitizers, so they run one per CPU.
echo "== bench smoke + report validation"
SMOKE_BENCHES=(fig03_pageload_video fig07_service_request_pct
               fig08_attach_pct_uniform fig09_attach_pct_bursty
               fig10_handover_failure fig11_fast_handover fig13_selfdriving
               fig14_vr fig15_state_sync fig16_logging_overhead
               fig17_log_size ablation_backups ablation_rule4_grace
               ablation_detection fig_saturation)
printf '%s\n' "${SMOKE_BENCHES[@]}" | xargs -P "$JOBS" -I{} sh -c \
  '"$0/bench/$1" --smoke --report="$0/bench/$1.smoke-report.json" >/dev/null' \
  "$BUILD" {}
REPORTS=()
for bench in "${SMOKE_BENCHES[@]}"; do
  REPORTS+=("$BUILD/bench/$bench.smoke-report.json")
done
python3 scripts/validate_report.py "${REPORTS[@]}"

# Extended structure-aware codec fuzz under the sanitized build: ctest
# already ran the suite at its default iteration count; this pass widens
# the corpus so memory bugs in the decoders meet ASan, not production.
echo "== codec fuzz (extended, $BUILD)"
NEUTRINO_FUZZ_ITERS=1200 "$BUILD/tests/codec_fuzz_test" >/dev/null

echo "== trace demo"
"$BUILD/examples/trace_explore" >/dev/null

# Chaos smoke under the sanitized build: a handful of randomized failure
# schedules with the online invariant checker armed, elastic churn
# (drain/scale-out pairs) included so the handoff path runs under ASan.
# Seed count is small here (sanitizers are ~10x); the release stage below
# runs the wide sweep.
echo "== chaos smoke ($BUILD)"
cmake --build "$BUILD" -j "$JOBS" --target chaos_campaign
out="$BUILD/bench/chaos_campaign.smoke-report.json"
"$BUILD/bench/chaos_campaign" --smoke --seeds=10 --churn=3 \
  --repro-dir="$BUILD/bench" --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"

# ThreadSanitizer pass over the multi-threaded sharded runtime (and the
# event-loop/determinism suites it builds on): owner drains and the one
# barrier per window at threads {1, 2, 3, 4, 8}, including 3 threads that
# do not divide the shard count and 8 threads with idle lanes, plus the
# threads=3 profiler attribution. TSan and ASan cannot share a build;
# this is a separate configuration so both always run.
if [[ "${FAST:-0}" != "1" ]]; then
  echo "== build-tsan + parallel runtime tests"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    >/dev/null
  tsan_tests=(sim_core_test parallel_runtime_test parallel_adaptive_test
              parallel_determinism_test obs_telemetry_test)
  cmake --build build-tsan -j "$JOBS" --target "${tsan_tests[@]}"
  for t in "${tsan_tests[@]}"; do
    echo "-- tsan: $t"
    "build-tsan/tests/$t"
  done
fi

# Throughput gate: the 100k-UE storm must complete every procedure with
# zero RYW violations (scale_throughput exits non-zero otherwise), at
# release optimization levels — sanitized builds measure the sanitizer.
# The sharded rows re-run the storm over the partitioned topology on two
# worker threads, exercising the cross-shard path at full optimization.
echo "== release build + scale smoke (build-release)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
cmake --build build-release -j "$JOBS" --target scale_throughput sim_core_gbench
out=build-release/bench/scale_throughput.smoke-report.json
build-release/bench/scale_throughput --smoke --threads=1,2 --shards=2 \
  --report="$out"
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"

# perfbench (the repo's benchmark, perfbench/README.md): run.py builds it
# from this checkout at -O2, then the three simulator workloads run small
# and their fingerprints of the simulated outputs must equal the pinned
# ones — a speed change that moves any outcome fails here. The benchmark's
# own tests (determinism, fail-loud exits, metric catalogue) follow.
echo "== perfbench fingerprints + tests (release)"
fp_out=build-release/perfbench-fingerprints.txt
: >"$fp_out"
for w in storm storm-sharded mobility-failover; do
  python3 perfbench/run.py --workload "$w" --ues 20000 --seconds 1 \
    --seed 1 --trace 0 2>/dev/null | grep '^fingerprint ' >>"$fp_out"
done
if ! diff <(grep '^fingerprint ' scripts/perfbench_fingerprints.txt) \
    "$fp_out"; then
  echo "perfbench fingerprints differ from scripts/perfbench_fingerprints.txt"
  exit 1
fi
echo "perfbench fingerprints match scripts/perfbench_fingerprints.txt"
python3 perfbench/tests/test_perfbench.py

# Deep telemetry (DESIGN.md §15): the same storm with windowed series,
# SLO burn tracking and the phase profiler armed, the last sharded row
# exporting a Perfetto trace. validate_report.py checks the v3 report
# sections and the trace-event JSON.
echo "== telemetry sections + trace export (build-release)"
tout=build-release/bench/scale_throughput.telemetry-report.json
trace=build-release/bench/scale_throughput.trace.json
build-release/bench/scale_throughput --smoke --threads=1,2 --shards=2 \
  --telemetry --trace-out="$trace" --report="$tout" >/dev/null
python3 scripts/validate_report.py "$tout" "$trace"
python3 - "$tout" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
for section in ("timeseries", "slo", "profiler"):
    assert any(section in r for r in rows), f"no {section} section in any row"
print("telemetry sections present:", sys.argv[1])
PY

# Telemetry overhead gate: enabled (--telemetry) must cost <=10% over
# disabled — the default-off path stays effectively free. Wall-clock
# on a shared runner is noisy in one direction only (co-tenant
# contention inflates samples), so the gate compares the MINIMUM wall
# per side over >=3 interleaved runs — the same estimator as the
# shard-sync gate below. The disabled best-two drift is a loose
# sanity bound (<=10%), not the old 2% reproducibility bar: one
# extra-quiet sample lowers the min and *widens* the best-two gap, so
# a tight drift bar is anti-robust exactly when the estimate improves.
echo "== telemetry overhead gate (build-release)"
OFF_OUTS=()
ON_OUTS=()
tele_ok=0
for batch in 1 2 3; do
  for attempt in 1 2 3; do
    off="build-release/bench/scale-overhead-off$batch$attempt.json"
    on="build-release/bench/scale-overhead-on$batch$attempt.json"
    build-release/bench/scale_throughput --smoke --report="$off" >/dev/null
    build-release/bench/scale_throughput --smoke --telemetry \
      --report="$on" >/dev/null
    OFF_OUTS+=("$off")
    ON_OUTS+=("$on")
  done
  if python3 - "${OFF_OUTS[@]}" -- "${ON_OUTS[@]}" <<'PY'
import json, sys
def wall(path):
    return sum(r["wall_seconds"] for r in json.load(open(path))["rows"])
sep = sys.argv.index("--")
offs = sorted(wall(p) for p in sys.argv[1:sep])
ons = sorted(wall(p) for p in sys.argv[sep + 1:])
drift = (offs[1] - offs[0]) / offs[0]
overhead = (ons[0] - offs[0]) / offs[0]
print(f"telemetry overhead: disabled best-two drift {drift:.1%}, "
      f"enabled {overhead:+.1%} (min over {len(offs)} off / {len(ons)} on "
      f"runs; gate: 10% / 10%)")
sys.exit(0 if drift <= 0.10 and overhead <= 0.10 else 1)
PY
  then
    tele_ok=1
    break
  fi
  [[ "$batch" == 3 ]] || echo "-- batch $batch over the gate; pooling another batch"
done
[[ "$tele_ok" == 1 ]] || { echo "telemetry overhead gate failed"; exit 1; }

# Shard-sync overhead gate (DESIGN.md §16): the storm partitioned over 8
# shards on ONE worker thread must cost <=15% over the same-topology
# legacy single-thread run — this prices the window machinery itself
# (scheduling scans, barriers skipped at threads=1, boundary drains),
# not parallel speedup. Each report carries its in-process ratio
# (config.sync_overhead_threads1, from the "sharded_baseline": true row);
# the gate compares the MINIMUM wall per side over 3 fresh runs, because
# co-tenant CPU contention only ever inflates a sample — the min is the
# robust estimator of the true cost on a shared runner.
echo "== shard-sync overhead gate (build-release)"
SYNC_OUTS=()
sync_ok=0
for batch in 1 2 3; do
  for attempt in 1 2 3; do
    out="build-release/bench/scale-sync-overhead$batch$attempt.json"
    build-release/bench/scale_throughput --smoke --threads=1 --shards=8 \
      --report="$out" >/dev/null
    SYNC_OUTS+=("$out")
  done
  if python3 - "${SYNC_OUTS[@]}" <<'PY'
import json, sys
legacy, sharded = [], []
for path in sys.argv[1:]:
    text = open(path).read()
    doc = json.loads(text[text.find("{"):])
    for r in doc["rows"]:
        if r.get("sharded_baseline"):
            legacy.append(r["wall_seconds"])
        elif (r.get("mode") == "sharded" and r.get("threads") == 1
              and r.get("adaptive_lookahead")):
            sharded.append(r["wall_seconds"])
    print(f"  {path}: in-process ratio "
          f"{doc['config']['sync_overhead_threads1']:+.1%}")
assert legacy and sharded, "gate rows missing from the reports"
overhead = min(sharded) / min(legacy) - 1
print(f"shard-sync overhead at threads=1: {overhead:+.1%} "
      f"(min over {len(sharded)} runs per side; gate: 15%)")
sys.exit(0 if overhead <= 0.15 else 1)
PY
  then
    sync_ok=1
    break
  fi
  # A busy co-tenant window can inflate a whole batch, sharded side
  # hardest (it touches more memory). Pool another batch of samples —
  # the minima only ever improve — before calling it a real regression.
  [[ "$batch" == 3 ]] || echo "-- batch $batch over the gate; pooling another batch"
done
[[ "$sync_ok" == 1 ]] || { echo "shard-sync overhead gate failed"; exit 1; }

# Saturation sweep at release optimization: the full offered-load knee
# sweep with overload control armed; validate_report.py enforces the
# bounded-depth / zero-RYW / >=99%-completion acceptance surface.
echo "== saturation sweep (build-release)"
cmake --build build-release -j "$JOBS" --target fig_saturation
out=build-release/bench/fig_saturation.report.json
trace=build-release/bench/fig_saturation.trace.json
build-release/bench/fig_saturation --telemetry --trace-out="$trace" \
  --report="$out" >/dev/null
python3 scripts/validate_report.py "$out" "$trace"

# Traffic scenarios (DESIGN.md §17): the per-scenario saturation sweep
# with its calibrated acceptance gate (fig_scenarios exits non-zero when
# any scenario misses zero-RYW / >=99%-completion at its knee), then every
# named scenario through scale_throughput's legacy AND sharded runtimes
# with a bit-identical cross-thread-count comparison, and finally a chaos
# campaign with a scenario overlaid on the generated failure schedules.
echo "== traffic scenarios (build-release)"
cmake --build build-release -j "$JOBS" --target fig_scenarios scale_throughput \
  chaos_campaign
out=build-release/bench/fig_scenarios.smoke-report.json
build-release/bench/fig_scenarios --smoke --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"
rm -f build-release/bench/scale-scenario-*.json
for sc in legacy-uniform legacy-bursty commuter-morning stadium-egress \
          iot-firmware-push region-blackout-reconnect; do
  out="build-release/bench/scale-scenario-$sc.json"
  build-release/bench/scale_throughput --smoke --ues=2000 --scenario="$sc" \
    --threads=1,2 --shards=2 --report="$out" >/dev/null
  python3 scripts/validate_report.py "$out"
done
python3 - build-release/bench/scale-scenario-*.json <<'PY'
import json, sys
# Bit-identical outcomes across worker threads for every scenario: the
# threads=1 and threads=2 sharded rows must agree on everything the run
# computes (counters, windows, cross-shard traffic, per-shard events).
for path in sys.argv[1:]:
    text = open(path).read()
    doc = json.loads(text[text.find("{"):])
    sharded = {r["threads"]: r for r in doc["rows"]
               if r.get("mode") == "sharded"
               and r.get("adaptive_lookahead", True)}
    a, b = sharded[1], sharded[2]
    for k in ("counters", "windows", "cross_shard_messages", "shard_events",
              "adaptive_extensions", "dispatches_skipped", "arrivals"):
        assert a[k] == b[k], f"{path}: {k} differs across thread counts"
    print(f"  deterministic across threads: {path}")
PY
out=build-release/bench/chaos_campaign.scenario-report.json
build-release/bench/chaos_campaign --smoke --seeds=10 \
  --scenario=iot-firmware-push --shards=4 --threads=2 \
  --repro-dir=build-release/bench --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"

# City-scale mobility (DESIGN.md §18): the commuter-crossing handover
# sweep with CPF crash windows colliding with the commute wave, plus the
# edge-pingpong oscillator run. fig_mobility exits non-zero itself when
# any acceptance gate misses (zero RYW under mobility+chaos, slow-path
# coverage, the corrected closed-form crossing rate within tolerance,
# bit-identical outcomes across worker-thread counts); the validator then
# re-checks the report's v5 surface independently of the bench's own gate.
echo "== mobility (build-release)"
cmake --build build-release -j "$JOBS" --target fig_mobility
out=build-release/bench/fig_mobility.smoke-report.json
build-release/bench/fig_mobility --smoke --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"

# Elasticity (DESIGN.md §19): live scale-out/in against the diurnal
# envelope, a rolling upgrade one replica at a time, and a permanently
# lost region. fig_elastic exits non-zero itself when any acceptance
# gate misses (zero RYW across every churn, >=99% completion, planned
# drain/scale-out counts matched exactly, lost-region UEs re-homed,
# bit-identical outcomes across worker-thread counts); the validator
# then re-checks the report's v6 surface independently.
echo "== elastic (build-release)"
cmake --build build-release -j "$JOBS" --target fig_elastic
out=build-release/bench/fig_elastic.smoke-report.json
build-release/bench/fig_elastic --smoke --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"

# Release chaos campaign: 50 seeds across legacy / 1-shard / multi-shard
# runtimes, with elastic churn in the schedule grammar; any invariant
# violation shrinks to a replayable reproducer and fails the gate.
echo "== chaos campaign (build-release)"
cmake --build build-release -j "$JOBS" --target chaos_campaign
out=build-release/bench/chaos_campaign.smoke-report.json
build-release/bench/chaos_campaign --seeds=50 --shards=4 --threads=2 \
  --churn=2 --repro-dir=build-release/bench --report="$out"
python3 scripts/validate_report.py "$out"

echo "check.sh: all green"
