"""The `conformal-kernel` commands against golden report files.

Each golden file under tests/golden/ holds one command's exit code, stdout
and stderr, byte for byte.  After a deliberate change of a report, rewrite
them with

    PYTHONPATH=src python3 tests/test_report_bytes.py --regen

and review the diff.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = {
    "check_ex2_17_w4": ["check", "demos/ex2_17.alg", "--window", "4"],
    "check_ex2_17_swapped": ["check", "demos/ex2_17_swapped.alg"],
    "check_mat2": ["check", "demos/mat2.alg"],
    "coeff_ex2_17": ["coeff", "demos/ex2_17.alg", "--modes=-3..3", "--window", "4"],
    "cohomology_ex2_17": ["cohomology", "demos/ex2_17.alg", "--d2-samples", "2", "--seed", "7"],
    # capped at max 3: most bicomplex tuples escape, and the counts are pinned
    "cohomology_ex2_17_max3": ["cohomology", "tests/manifests/ex2_17_max3.alg",
                               "--d2-samples", "2", "--seed", "7"],
    "deform_ex2_17_w2": ["deform", "demos/ex2_17.alg", "--window", "2"],
    # an inconsistent ansatz system: "no extension within ansatz bounds"
    "deform_ex2_17_noext_w2": ["deform", "demos/ex2_17.alg", "--window", "2",
                               "--ansatz-ddeg", "0", "--ansatz-ldeg", "0"],
    # the series-index cross-check sweeps the family's own generators x[1..]
    "deform_ex2_17_min1_w2": ["deform", "tests/manifests/ex2_17_min1.alg", "--window", "2"],
    "nijenhuis_ex2_17_w2": ["nijenhuis", "demos/ex2_17.alg", "--window", "2"],
    "semiclassical_ex2_17_w3": ["semiclassical", "demos/ex2_17.alg", "--window", "3"],
}


def run_cli(argv) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    p = subprocess.run([sys.executable, "-m", "conformal_kernel.cli", *argv], cwd=ROOT,
                       env=env, capture_output=True, text=True, timeout=300)
    return f"exit {p.returncode}\n--- stdout\n{p.stdout}--- stderr\n{p.stderr}"


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, name + ".txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        want = fh.read()
    assert run_cli(CASES[name]) == want


def test_cohomology_refuses_multi_parameter_family():
    # mat2's generators E[i,j] are not a 1-parameter family: the random
    # cochains cannot be drawn on them, so the run stops before any check
    got = run_cli(["cohomology", "demos/mat2.alg", "--d2-samples", "2", "--seed", "7"])
    assert got.startswith("exit 3\n")
    assert "[check]" not in got
    assert "precondition failed" in got


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: test_report_bytes.py --regen")
    os.makedirs(GOLDEN, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        with open(golden_path(case), "w", encoding="utf-8") as fh:
            fh.write(run_cli(argv))
