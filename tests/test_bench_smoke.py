"""The benchmark's own smoke tests (`perfbench/smoke.py`), run as part of the
suite: a change that breaks the benchmark's judge, its metric names or a
workload under the benchmark's worker process fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_tests_pass():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
