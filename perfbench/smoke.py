"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

The file name keeps pytest from collecting it into the engine's suite.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from dataclasses import replace

import run
import worker
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def harness(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def tiny_pass(workload: workloads.Workload) -> dict:
    workdir = run.OUT / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    for key, text in workload.manifests.items():
        (workdir / f"{key}.alg").write_text(text)
    return dict(worker.run_pass(workload, workdir, trace=False), variant=0)


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_errors(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    out = harness(name, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, want)
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    if trace == 0:
                        self.assertEqual(out["metrics"]["ok_rate"]["value"], 1.0)


class ErrorRate(unittest.TestCase):
    def test_wrong_expected_verdict_counts_as_an_error(self):
        workload = workloads.build("window_sweep", 1, tiny=True)
        job = next(j for j in workload.jobs if j.name == "check_swapped")
        job.expect = [replace(e, status=workloads.PASS) for e in job.expect]
        result = tiny_pass(workload)
        metrics, attempted, failed, problems = run.summarize([result], trace=False)
        self.assertEqual(failed, 1)
        self.assertLess(metrics["ok_rate"]["value"], 1.0)
        self.assertTrue(any("jacobi" in p for p in problems))

    def test_report_text_must_repeat_across_passes(self):
        result = tiny_pass(workloads.build("extension", 1, tiny=True))
        again = copy.deepcopy(result)
        again["jobs"][0]["digest"] = "0" * 64
        _metrics, attempted, failed, _problems = run.summarize([result, again], trace=False)
        self.assertEqual((attempted, failed), (4, 1))

    def test_vacuous_pass_is_an_error(self):
        job = workloads.Job("j", "check", "m", None, [workloads.Expect("a", "pass", 0)])
        report = type("Report", (), {"name": "a", "status": "pass", "checked": 0,
                                     "escaped": 0, "witnesses": []})()
        self.assertIn("a: pass with nothing checked", workloads.judge(job, [report], 0))


if __name__ == "__main__":
    unittest.main()
