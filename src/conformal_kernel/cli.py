"""Command-line front end: parse a manifest, dispatch a verification
pipeline, emit a deterministic report.

Exit status: 0 all checks pass, 1 some check fails, 2 inconclusive coverage
only, 3 usage/parse/precondition errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress

from .algebra import PreconditionFailed, check_suite, sweep_status
from .cohomology import AnsatzBounds, check_action_module_laws, check_complex_identities
from .coeff import (
    ModeWindow,
    annihilation_relations_check,
    binomial_identity_check,
    check_coeff_poisson,
    closed_form_comparison,
    coeff_derivation_check,
)
from .constructors import adjoint_module
from .deform import (
    check_n_deformation,
    infinitesimal_is_cocycle,
    linear_deformation_check,
    nijenhuis_check,
    nijenhuis_deform,
    nijenhuis_homomorphism_check,
    obstruction_is_cocycle,
    semiclassical_limit,
    solve_extension,
    trivial_deformation_check,
)
from .manifest import ManifestError, parse_file
from .report import render_reports

COMMANDS = ("check", "coeff", "cohomology", "deform", "nijenhuis", "semiclassical")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conformal-kernel",
        description="exact verification engine for conformal algebras with "
                    "lambda-operations",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("manifest", help="path to a .alg manifest file")
    p.add_argument("--window", type=int, default=None,
                   help="generator window bound for axiom sweeps")
    p.add_argument("--modes", default="-2..2", metavar="a..b",
                   help="mode window for coefficient-algebra checks")
    p.add_argument("--ansatz-ddeg", type=int, default=2)
    p.add_argument("--ansatz-ldeg", type=int, default=2)
    p.add_argument("--d2-samples", type=int, default=20,
                   help="random cochains per bidegree for the cohomology suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the report to a file")
    return p


def _parse_modes(spec: str) -> tuple[int, int]:
    try:
        a, b = spec.split("..")
        return int(a), int(b)
    except ValueError:
        raise ManifestError(f"bad mode window {spec!r}; expected a..b")


def run(command: str, man, args) -> list:
    window = args.window if args.window is not None else man.options.get("window", 3)
    if command == "check":
        return check_suite(man.algebra(), window)

    if command == "coeff":
        lo, hi = _parse_modes(args.modes)
        alg = man.algebra()
        mw = ModeWindow(lo, hi, window)
        reports = check_coeff_poisson(alg, mw)
        reports.append(coeff_derivation_check(alg, ModeWindow(lo, hi, max(1, window - 1))))
        reports.append(annihilation_relations_check(alg, mw, seed=args.seed))
        reports.append(binomial_identity_check(8, 8))
        with suppress(PreconditionFailed):  # left out unless a bracket and one 1-parameter family
            reports.append(closed_form_comparison(alg, mw))
        return reports

    if command == "cohomology":
        alg = man.algebra()
        V = adjoint_module(alg)
        reports = check_complex_identities(alg, V, samples=args.d2_samples,
                                           seed=args.seed, max_degree=4)
        reports.extend(check_action_module_laws(alg, V, samples=args.d2_samples,
                                                seed=args.seed))
        return reports

    if command == "deform":
        ds = man.deformation()
        reports = [check_n_deformation(ds, window)]
        if ds.order >= 1:
            reports.append(infinitesimal_is_cocycle(ds.truncate(1), window))
        if ds.order >= 2:
            # round trip: drop the top order, solve the extension problem back
            trunc = ds.truncate(ds.order - 1)
            rep = obstruction_is_cocycle(trunc, max(2, window - 1))
            bounds = AnsatzBounds(args.ansatz_ddeg, args.ansatz_ldeg)
            ext, escaped = solve_extension(trunc, bounds, window)
            rep.notes.append("extension recovered within ansatz bounds"
                             if ext is not None else "no extension within ansatz bounds")
            if escaped:
                rep.notes.append(f"extension solve: {escaped} tuples escaped the rule window")
                rep.status = sweep_status(rep.witnesses, escaped)
            rep.name = "obstruction_and_extension"
            reports.append(rep)
        return reports

    if command == "nijenhuis":
        alg = man.algebra()
        N = man.nijenhuis()
        reports = nijenhuis_check(alg, N, window)
        deformed = nijenhuis_deform(alg, N, window, precheck=False)
        for r in check_suite(deformed, window):
            r.name = "deformed_" + r.name
            reports.append(r)
        reports.append(nijenhuis_homomorphism_check(alg, deformed, N, window))
        reports.extend(linear_deformation_check(alg, deformed.product, deformed.bracket,
                                                window))
        reports.append(trivial_deformation_check(alg, deformed.product, deformed.bracket,
                                                 N, window))
        return reports

    if command == "semiclassical":
        ds = man.deformation()
        _alg, reports = semiclassical_limit(ds, window)
        return reports

    raise ManifestError(f"unknown command {command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        man = parse_file(args.manifest)
        reports = run(args.command, man, args)
    except ManifestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except PreconditionFailed as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    options = {"window": args.window if args.window is not None
               else man.options.get("window", 3),
               "seed": args.seed, "d2_samples": args.d2_samples,
               "modes": args.modes}
    text, code = render_reports(args.command, man.name, reports, options)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
