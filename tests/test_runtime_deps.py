"""The runtime needs the standard library only: importing the package, its
command line and its report writer loads no other top-level module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import conformal_kernel, conformal_kernel.cli, conformal_kernel.report
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"conformal_kernel"})))
"""


def test_runtime_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
