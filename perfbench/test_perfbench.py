"""Tests of the benchmark itself: seeded inputs, repeatable traces, oracles with teeth.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from itertools import islice
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*argv: str) -> tuple[dict, str]:
    """Run the benchmark in process; returns (last-line summary, full stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    text = out.getvalue()
    assert code == 0, text
    return json.loads(text.strip().splitlines()[-1]), text


def _declared(kind: str) -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


class SeededInputs(unittest.TestCase):
    def _draw(self, workload: str, seed: int) -> list:
        count = 2 * workloads.cycle_length(workload)
        return [(job.source, job.args) for job in islice(workloads.jobs(workload, seed, "main"), count)]

    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = self._draw(workload, 5), self._draw(workload, 5)
                self.assertEqual(first, second)
                self.assertNotEqual(first, self._draw(workload, 6))

    def test_jobs_within_a_stream_are_distinct_draws(self):
        for workload in workloads.WORKLOADS:
            inputs = [i for i in self._draw(workload, 5) if i[1] != ("catalog",)]
            self.assertEqual(len(inputs), len(set(inputs)), workload)

    def test_warmup_stream_differs_from_the_measured_one(self):
        main = next(workloads.jobs("refutations", 5, "main"))
        warm = next(workloads.jobs("refutations", 5, "warmup"))
        self.assertNotEqual(main.source, warm.source)


class Oracle(unittest.TestCase):
    def test_text_round_trip(self):
        for text in ("0", "e", "-2*e*x + 3*y - 1", "x*x*y - 4"):
            poly = oracle.parse(text)
            self.assertEqual(oracle.parse(oracle.to_text(poly)), poly)

    def test_constructed_dual_matches_the_duality_total(self):
        prims = [oracle.const(1), oracle.const(0), oracle.const(3)]
        N = 7
        dual = [oracle.evaluate(b, {}) for b in oracle.dual_primitives(N, prims)]
        values = [oracle.evaluate(a, {}) for a in prims]
        self.assertEqual(oracle.center(dual), oracle.center(values))
        self.assertEqual(oracle.weighted_total(dual), oracle.duality_total(N, values))
        self.assertEqual(oracle.duality_total(N, dual), oracle.weighted_total(values))


class Trace(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in ("decl-files", "refutations"):
            with self.subTest(workload=workload):
                first, _ = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
                second, _ = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
                self.assertTrue(first["correct"])
                self.assertEqual(list(first["metrics"]), _declared("per_layer"))
                counts = {
                    name: (a["value"], second["metrics"][name]["value"])
                    for name, a in first["metrics"].items()
                    if a["unit"] in ("count", "bytes")
                }
                self.assertTrue(counts)
                for name, (a, b) in counts.items():
                    self.assertEqual(a, b, name)

    def test_witness_search_is_the_refutation_path(self):
        summary, _ = _bench("--workload", "refutations", "--seed", "3", "--seconds", "1", "--trace", "1")
        metrics = {name: m["value"] for name, m in summary["metrics"].items()}
        self.assertGreater(metrics["checks.find_witness_calls"], 0)
        self.assertGreater(metrics["checks.find_witness_ms"], 0.5 * metrics["trace.job_ms"])


class OraclesHaveTeeth(unittest.TestCase):
    """Planted faults must show up as failed jobs in the printed result."""

    def _run_with(self, workload: str, min_jobs: int, **patches) -> tuple[dict, str]:
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(run, "MIN_JOBS", min_jobs))
            for name, value in patches.items():
                owner, attr = (run, name) if hasattr(run, name) else (oracle, name)
                stack.enter_context(mock.patch.object(owner, attr, value))
            return _bench("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "0")

    def test_untampered_run_is_correct_and_prints_every_metric(self):
        summary, text = self._run_with("refutations", 5)
        self.assertEqual((summary["correct"], summary["failed"]), (True, 0))
        self.assertEqual(list(summary["metrics"]), _declared("end_to_end"))
        self.assertIn("metric error_ratio = 0.000000 ratio", text)

    def test_a_planted_wrong_witness_is_counted(self):
        real_load = run.load_report

        def zero_witness(path):
            report = real_load(path)
            for row in report["checks"]:
                if row["witness"]:
                    row["witness"] = {name: 0 for name in row["witness"]}
            return report

        summary, text = self._run_with("refutations", 5, load_report=zero_witness)
        cycle = workloads.cycle_length("refutations")
        self.assertEqual((summary["correct"], summary["attempted"], summary["failed"]), (False, cycle, cycle))
        self.assertIn("metric error_ratio = 1.000000 ratio", text)

    def test_a_planted_wrong_golden_row_is_counted(self):
        goldens = oracle.load_goldens(run.ROOT)

        def wrong_goldens(root):
            planted = copy.deepcopy(goldens)
            planted["points-line"]["checks"][0]["rhs"] = "2"
            return planted

        summary, _ = self._run_with("decl-files", workloads.cycle_length("decl-files"), load_goldens=wrong_goldens)
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["failed"], 1)  # one catalog job per cycle


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_a_result_when_src_is_missing(self):
        bare = os.path.join(run.OUT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "refutations", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
