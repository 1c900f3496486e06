"""conformal-kernel benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: passes run one after another, each in a fresh
worker process (perfbench/worker.py) that imports the engine from src/,
builds the workload's objects and runs its jobs; each job starts after the
previous verdict returns.  Passes repeat until S seconds have gone by,
cycling through the input variants the seed yields, then the harness prints
the medians over passes.

With --trace 0 every pass is untraced and the end-to-end metrics are
printed.  With --trace 1 untraced and traced passes alternate and the
per-layer metrics are printed, with the tracing overhead (traced minus
untraced median wall time).  The last line of stdout is one JSON object;
the lines above it summarise the run, and the full record (every pass,
metadata, folded stacks of the last traced pass) is written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("zero_tests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
]

PER_LAYER = [
    ("manifest.parse_file.self_s", "s"),
    ("constructors.adjoint_module.self_s", "s"),
    ("symcore.subst_many.calls", "count"),
    ("symcore.subst_many.self_s", "s"),
    ("symcore.subst_linear.self_s", "s"),
    ("symcore.Accumulator.build.self_s", "s"),
    ("symcore.multi_shifted_action.self_s", "s"),
    ("symcore.expansion_cache_entries", "count"),
    ("algebra.pair.calls", "count"),
    ("algebra.pair.self_s", "s"),
    ("algebra.run_tuple_check.self_s", "s"),
    ("algebra.rule_entry_hit_ratio", "ratio"),
    ("algebra.shift_cache_hit_ratio", "ratio"),
    ("coeff.basis_op.calls", "count"),
    ("coeff.basis_op.self_s", "s"),
    ("coeff.check_coeff_poisson.self_s", "s"),
    ("coeff.ops_hit_ratio", "ratio"),
    ("cohomology.Cochain.value.calls", "count"),
    ("cohomology.Cochain.value.self_s", "s"),
    ("cohomology.eval_cochain.calls", "count"),
    ("cohomology.eval_cochain.self_s", "s"),
    ("cohomology.cochain_cache_hit_ratio", "ratio"),
    ("cohomology.cochain_cache_entries", "count"),
    ("linalg.solve_exact.calls", "count"),
    ("linalg.solve_exact.self_s", "s"),
    ("linalg.rows", "count"),
    ("linalg.cols", "count"),
    ("linalg.nnz", "count"),
    ("linalg.solution_verified", "count"),
    ("deform.check_n_deformation.self_s", "s"),
    ("deform.extend_deformation.self_s", "s"),
    ("report.render_reports.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

# No pass starts after this many seconds, so that a run ends well within the
# 180 s a run may take even when the passes are slower than expected.
LAST_START_S = 120
PASS_TIMEOUT_S = 170


def metadata() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": nproc}


def run_worker(args, workdir: Path, variant: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--variant", str(variant),
           "--workdir", str(workdir / f"v{variant}"), "--trace", str(int(traced))]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(args, workdir: Path) -> list[dict]:
    """Untraced passes only, or untraced and traced passes in turn, until
    --seconds have gone by and each kind has its minimum count.  Consecutive
    untraced and traced passes share an input variant."""
    start = time.monotonic()
    deadline = start + PASS_TIMEOUT_S
    kinds = [False, True] if args.trace else [False]
    need = 2 if args.trace else 3
    passes: list[dict] = []
    while time.monotonic() - start < LAST_START_S:
        traced = kinds[len(passes) % len(kinds)]
        variant = len(passes) // len(kinds) % workloads.VARIANTS
        passes.append(run_worker(args, workdir, variant, traced, deadline))
        enough = all(sum(p["traced"] == k for p in passes) >= need for k in kinds)
        if enough and time.monotonic() - start >= args.seconds:
            break
    return passes


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (n={n} < 11)"
    k = n - 11
    return f"p{100 * (k + 1) // n}={sorted(values)[k]:.6g} (n={n})"


def summarize(passes: list[dict], trace: bool) -> tuple[dict, int, int, list[str]]:
    """(metrics, attempted, failed, problems) over all passes of one run.
    A job fails when it raised, when its verdict differs from the expected
    table, or when its report text differs from that of the first pass on
    the same input variant."""
    attempted = failed = 0
    problems = []
    first: dict[tuple[int, str], str] = {}
    for i, p in enumerate(passes):
        for job in p["jobs"]:
            attempted += 1
            issues = list(job["problems"])
            if first.setdefault((p["variant"], job["name"]), job["digest"]) != job["digest"]:
                issues.append("report text differs from the first pass")
            if issues:
                failed += 1
                problems += [f"pass {i} job {job['name']}: {x}" for x in issues]
    plain = [p for p in passes if not p["traced"]]
    med = statistics.median
    if not trace:
        values = {
            "setup_s": med(p["setup_s"] for p in plain),
            "wall_s": med(p["wall_s"] for p in plain),
            "zero_tests_per_s": med(p["checked"] / p["wall_s"] for p in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "ok_rate": 1 - failed / attempted,
        }
        units = END_TO_END
    else:
        traced = [p for p in passes if p["traced"]]
        values = {name: med(p["layers"].get(name, 0) for p in traced)
                  for name, _unit in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (med(p["wall_s"] for p in traced)
                                      - med(p["wall_s"] for p in plain))
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return metrics, attempted, failed, problems


def write_record(workdir: Path, args, meta: dict, passes: list[dict], metrics: dict) -> Path:
    stacks = next((p.pop("stacks") for p in reversed(passes) if p.get("stacks")), None)
    for p in passes:
        p.pop("stacks", None)
    record = workdir / f"result-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "meta": meta, "metrics": metrics, "passes": passes},
                                 indent=1))
    if stacks:
        lines = [f"{path} {round(own * 1e6)}" for path, (_calls, own) in sorted(stacks.items())]
        (workdir / "stacks.folded").write_text("\n".join(lines) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="conformal-kernel benchmark harness")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    if not (SRC / "conformal_kernel" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    for variant in range(workloads.VARIANTS):
        workload = workloads.build(args.workload, args.seed, variant, args.tiny)
        (workdir / f"v{variant}").mkdir(parents=True, exist_ok=True)
        for key, text in workload.manifests.items():
            (workdir / f"v{variant}" / f"{key}.alg").write_text(text)
    meta = metadata()
    try:
        # Compile the engine's bytecode once, outside every timed pass, as an
        # installed package would have it.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import conformal_kernel", str(SRC)], cwd=ROOT, check=True, timeout=60)
        passes = run_passes(args, workdir)
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics, attempted, failed, problems = summarize(passes, bool(args.trace))
    record = write_record(workdir, args, meta, passes, metrics)

    plain = [p["wall_s"] for p in passes if not p["traced"]]
    q1, _q2, q3 = statistics.quantiles(plain, n=4) if len(plain) > 1 else plain * 3
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {attempted} jobs, {failed} failed")
    print(f"untraced wall_s: median {statistics.median(plain):.6g} "
          f"quartiles {q1:.6g}..{q3:.6g}; tail {tail(plain)}")
    print("meta " + json.dumps(meta))
    for line in problems[:20]:
        print("problem " + line)
    missing = sorted({m for p in passes for m in p.get("missing", ())})
    if missing:
        print("untraced names (absent from the engine): " + ", ".join(missing))
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
