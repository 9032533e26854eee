#!/usr/bin/env python3
"""The benchmark's own tests: determinism, correctness gates, fail-loud
entry point, the frozen cost table's checks and the metric catalogue.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SCRATCH = os.path.join(ROOT, ".bench_build", "test")
TABLE = os.path.join(ROOT, "perfbench", "data", "cost_table.tsv")

# Small populations: the properties under test do not depend on scale.
SMALL = {"storm": "3000", "storm-sharded": "3000",
         "mobility-failover": "4000", "s1ap-codec": "0"}


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def run_small(workload, seed=1, trace=0, *extra):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace)]
    if SMALL[workload] != "0":
        args += ["--ues", SMALL[workload]]
    return run(*args, *extra)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("fingerprint "):
            return line.split()[2]
    raise AssertionError("no fingerprint line in:\n" + proc.stdout)


class Determinism(unittest.TestCase):
    def test_runs_repeat_and_tracing_does_not_perturb(self):
        for workload in ("storm", "storm-sharded", "mobility-failover"):
            with self.subTest(workload=workload):
                a = run_small(workload, 7)
                b = run_small(workload, 7)
                traced = run_small(workload, 7, 1)
                for p in (a, b, traced):
                    self.assertEqual(p.returncode, 0, p.stderr)
                self.assertEqual(fingerprint(a), fingerprint(b))
                self.assertEqual(fingerprint(a), fingerprint(traced))
                for key in ("primary_mean_ms", "primary_tail_ms",
                            "secondary_mean_ms", "secondary_tail_ms"):
                    self.assertEqual(result(a)["metrics"][key],
                                     result(b)["metrics"][key])

    def test_seed_changes_the_simulation(self):
        self.assertNotEqual(fingerprint(run_small("storm", 1)),
                            fingerprint(run_small("storm", 2)))

    def test_repetition_count_is_fixed_by_seconds(self):
        # storm's repetition time on the reference host is 3.0 s: 6.1 s
        # asks for two repetitions, however fast the small ones run.
        p = run("--workload", "storm", "--seed", "1", "--seconds", "6.1",
                "--trace", "0", "--ues", "3000")
        self.assertEqual(p.returncode, 0, p.stderr)
        reps = [l for l in p.stderr.splitlines() if l.startswith("rep ")]
        self.assertEqual(len(reps), 2, p.stderr)

    def test_sharded_thread_count_is_invisible(self):
        one = run_small("storm-sharded", 3, 0, "--threads", "1")
        four = run_small("storm-sharded", 3, 0, "--threads", "4")
        self.assertEqual(one.returncode, 0, one.stderr)
        self.assertEqual(four.returncode, 0, four.stderr)
        self.assertEqual(fingerprint(one), fingerprint(four))


class CorrectnessGates(unittest.TestCase):
    def test_clean_runs_pass(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                p = run_small(workload)
                self.assertEqual(p.returncode, 0, p.stderr)
                r = result(p)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)

    def test_planted_ryw_violation_fails_the_run(self):
        p = run_small("storm", 1, 0, "--inject", "ryw")
        self.assertEqual(p.returncode, 1, p.stderr)
        self.assertFalse(result(p)["correct"])
        self.assertIn("Read-your-Writes", p.stderr)

    def test_planted_codec_mismatch_fails_the_run(self):
        p = run_small("s1ap-codec", 1, 0, "--inject", "codec")
        self.assertEqual(p.returncode, 1, p.stderr)
        r = result(p)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)


class FailLoud(unittest.TestCase):
    def assert_usage_error(self, *args):
        p = run(*args)
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        self.assertEqual(p.stdout.strip(), "")

    def test_unknown_flag(self):
        self.assert_usage_error("--workload", "storm", "--seed", "1",
                                "--seconds", "1", "--trace", "0", "--smokee")

    def test_unknown_workload(self):
        self.assert_usage_error("--workload", "strom", "--seed", "1",
                                "--seconds", "1", "--trace", "0")

    def test_bad_values(self):
        self.assert_usage_error("--workload", "storm", "--trace", "2")
        self.assert_usage_error("--workload", "storm", "--seed", "-1")
        self.assert_usage_error("--workload", "storm", "--seconds", "0")
        self.assert_usage_error("--seed", "1")

    def test_unwritable_output_path(self):
        path = os.path.join(SCRATCH, "no", "such", "dir", "spans.json")
        p = run_small("storm", 1, 1, "--spans-out", path)
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("cannot write", p.stderr)


class FrozenCostTable(unittest.TestCase):
    def variant(self, name, edit):
        os.makedirs(SCRATCH, exist_ok=True)
        with open(TABLE) as f:
            lines = f.read().splitlines()
        path = os.path.join(SCRATCH, name)
        with open(path, "w") as f:
            f.write("\n".join(edit(lines)) + "\n")
        return run_small("storm", 1, 0, "--cost-table", path)

    def test_committed_table_loads(self):
        self.assertEqual(run_small("storm").returncode, 0)

    def test_missing_entry_is_an_error(self):
        p = self.variant("missing.tsv",
                         lambda ls: [l for l in ls if "\tPaging\t" not in l])
        self.assertEqual(p.returncode, 1)
        self.assertIn("missing entry", p.stderr)

    def test_extra_entry_is_an_error(self):
        p = self.variant("extra.tsv",
                         lambda ls: ls + ["msg\tLCM\tNoSuchKind\t1\t1"])
        self.assertEqual(p.returncode, 1)
        self.assertIn("unknown message kind", p.stderr)

    def test_duplicate_entry_is_an_error(self):
        first = lambda ls: next(l for l in ls if l.startswith("msg\t"))
        p = self.variant("dup.tsv", lambda ls: ls + [first(ls)])
        self.assertEqual(p.returncode, 1)
        self.assertIn("duplicate entry", p.stderr)


class Catalogue(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in spec_workloads(spec):
                with self.subTest(workload=workload, trace=trace):
                    p = run_small(workload, 1, trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    got = {k: v["unit"]
                           for k, v in result(p)["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, v in result(p)["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_spans_cover_setup_and_run(self):
        p = run_small("storm", 1, 1)
        m = result(p)["metrics"]
        self.assertAlmostEqual(m["span.setup_coverage"]["value"], 1, delta=0.05)
        self.assertAlmostEqual(m["span.run_coverage"]["value"], 1, delta=0.05)


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


if __name__ == "__main__":
    unittest.main(verbosity=2)
