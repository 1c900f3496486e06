"""One benchmark pass in a fresh process: import the engine from the
checkout's src/, build the workload's objects, run its jobs one after the
other, then judge every verdict against the expected table.

Prints one JSON object on stdout.  run.py starts one worker per pass, so
every pass starts with cold caches, as a command-line call does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_job(ck, job, state):
    """(reports, rendered text, exit code) of one job, or the traceback."""
    try:
        reports = job.run(ck, state)
        text, code = ck.report.render_reports(job.command, state["names"][job.manifest],
                                              reports, job.options)
        return reports, text, code, None
    except Exception:  # a job that raises is a failed job, not a failed pass
        return None, "", None, traceback.format_exc()


def layer_metrics(tracer: tracing.Tracer, ck, wall_s: float) -> tuple[dict, dict]:
    per_name, stacks = tracer.self_times()
    out = {}
    for name, _module, _path in tracing.SPANS:
        calls, self_s = per_name.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name, (lookups, added) in tracer.caches.items():
        out[f"{name}_lookups"] = lookups
        out[f"{name}_entries"] = added
        out[f"{name}_hit_ratio"] = 1 - added / lookups if lookups else 0.0
    out["symcore.expansion_cache_entries"] = len(getattr(ck.symcore, "_EXPANSION_CACHE", ()))
    for key in ("rows", "cols", "nnz"):
        out[f"linalg.{key}"] = sum(s[key] for s in tracer.solves)
    out["linalg.solution_verified"] = sum(1 for s in tracer.solves if s["verified"])
    out["trace.wall_s"] = wall_s
    return out, stacks


def run_pass(workload: workloads.Workload, workdir: Path, trace: bool) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import conformal_kernel as ck
    import conformal_kernel.report  # noqa: F401  (render_reports is not re-exported)

    origin = Path(ck.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"engine imported from {origin}, not from {SRC}")
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    paths = {key: workdir / f"{key}.alg" for key in workload.manifests}
    if tracer:
        state = tracer.span("setup", workload.setup, ck, paths)
    else:
        state = workload.setup(ck, paths)
    setup_s = time.perf_counter() - t0

    outcomes = []
    start = time.perf_counter()
    for job in workload.jobs:
        if tracer:
            tracer.current_job = job.name
            outcomes.append(tracer.span(f"job.{job.name}", run_job, ck, job, state))
        else:
            outcomes.append(run_job(ck, job, state))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs, checked = [], 0
    for job, (reports, text, code, error) in zip(workload.jobs, outcomes):
        if error is not None:
            problems = [error.strip().splitlines()[-1]]
        else:
            problems = workloads.judge(job, reports, code)
            checked += sum(r.checked for r in reports)
        if tracer:
            problems += ["solver answer fails A x = b" for s in tracer.solves
                         if s["job"] == job.name and not s["verified"]]
        jobs.append({"name": job.name, "problems": problems,
                     "digest": hashlib.sha256(text.encode()).hexdigest()})
    result = {"setup_s": setup_s, "wall_s": wall_s, "checked": checked,
              "peak_rss_mb": peak_rss_mb, "jobs": jobs, "traced": trace}
    if tracer:
        result["layers"], result["stacks"] = layer_metrics(tracer, ck, wall_s)
        result["missing"] = tracer.missing
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--variant", type=int, default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    workload = workloads.build(args.workload, args.seed, args.variant, args.tiny)
    result = run_pass(workload, args.workdir, bool(args.trace))
    result["variant"] = args.variant
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
