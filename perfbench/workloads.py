"""Benchmark workloads: seeded inputs, the jobs run on them, and the verdict
each job must reach.

This module never imports the engine; the worker passes the imported
``conformal_kernel`` package (``ck``) to each setup and job function, so the
import is timed as part of set-up.

Every expected verdict below comes from the mathematics of the input, not
from the engine's output:

* the polynomial-family algebra (``ex2_17``) and the 2x2 matrix units are
  Poisson conformal algebras, so every axiom sweep on them passes;
* the index-swapped bracket is skew-symmetric but breaks Jacobi and Leibniz;
* the bare D-compatibility law of the module action fails by design
  (criterion 5b), every other module law and complex identity holds;
* the order-2 series is a deformation, so its top order is recovered from
  the truncated series and re-verifies.

The ``checked`` counts are the sizes of the tuple windows each check is
documented to sweep.  Witness text is never compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

PASS, FAIL = "pass", "fail"

WORKLOADS = ("window_sweep", "bicomplex", "extension")

# A run cycles through this many input variants drawn from its seed, so that
# its median covers several random inputs and each variant's report bytes
# can be compared between the passes that repeat it.
VARIANTS = 8


class JobFailed(Exception):
    """A job produced no verdict the expected table can be compared with."""


@dataclass(frozen=True)
class Expect:
    """Expected outcome of one report.  ``skipped`` marks a documented
    skip (a pass with nothing checked); any other pass must check tuples."""

    name: str
    status: str
    checked: int
    escaped: int = 0
    skipped: bool = False


@dataclass
class Job:
    name: str
    command: str
    manifest: str
    run: Callable
    expect: list[Expect]
    options: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if any(e.status == FAIL for e in self.expect) else 0


@dataclass
class Workload:
    name: str
    manifests: dict[str, str]
    setup: Callable
    jobs: list[Job]


# ---------------------------------------------------------------------------
# seeded manifests
# ---------------------------------------------------------------------------

def _poly_manifest(name: str, p: int, b: int, h: int, swapped: bool = False) -> str:
    """The polynomial-family algebra of demos/ex2_17.alg with its product
    scaled by p, its bracket by b and the deformation parameter by h.  Each
    scaling keeps every axiom (they are homogeneous in each operation);
    ``swapped`` takes the D-coefficient from the wrong exponent, as in
    demos/ex2_17_swapped.alg."""
    dcoef = "n" if swapped else "m"
    lines = [
        f"name {name}",
        "kind poisson",
        "family x arity 1 min 0",
        f"product x[m] x[n] = {p} x[m+n]",
        f"bracket x[m] x[n] = {b}*({dcoef}*D + (m+n)*L) x[m+n-1]",
    ]
    if not swapped:
        lines += [
            f"deform 1 x[p] x[q] = {p * h}*q*L x[p+q-1]",
            f"deform 2 x[p] x[q] = {p * h * h}*(1/2)*(q^2 - q)*L^2 x[p+q-2]",
        ]
    return "\n".join(lines) + "\n"


def _matrix_manifest(p: int, b: int) -> str:
    """2x2 matrix units (demos/mat2.alg): the current product
    E[i,j] E[k,l] = delta_jk E[i,l] scaled by p and its commutator bracket
    scaled by b."""
    idx = [(i, j) for i in (1, 2) for j in (1, 2)]
    lines = ["name matrix2_current", "kind noncommutative_poisson",
             "family E arity 2 min 1 max 2"]
    for (i, j) in idx:
        for (k, l) in idx:
            if j == k:
                lines.append(f"product E[{i},{j}] E[{k},{l}] = {p} E[{i},{l}]")
    for (i, j) in idx:
        for (k, l) in idx:
            terms: dict[tuple[int, int], int] = {}
            if j == k:
                terms[(i, l)] = terms.get((i, l), 0) + b
            if l == i:
                terms[(k, j)] = terms.get((k, j), 0) - b
            rhs = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} E[{r},{s}]"
                           for (r, s), c in sorted(terms.items()) if c).removeprefix("+ ")
            if rhs:
                lines.append(f"bracket E[{i},{j}] E[{k},{l}] = {rhs}")
    return "\n".join(lines) + "\n"


def _signs(rng: random.Random, k: int) -> list[int]:
    # Signs only: flipping a scale keeps every coefficient's size, so the
    # amount of exact arithmetic does not depend on the seed.
    return [rng.choice((1, -1)) for _ in range(k)]


# ---------------------------------------------------------------------------
# expected tables
# ---------------------------------------------------------------------------

def poisson_expect(ngens: int, fails: tuple[str, ...] = (),
                   commutative: bool = True) -> list[Expect]:
    """check_poisson on `ngens` generators: pairs for the two-slot axioms,
    triples for the three-slot ones; a noncommutative kind skips
    commutativity."""
    pairs, triples = ngens ** 2, ngens ** 3

    def st(name):
        return FAIL if name in fails else PASS

    comm = (Expect("commutativity", PASS, pairs) if commutative
            else Expect("commutativity", PASS, 0, skipped=True))
    return [Expect("associativity", st("associativity"), triples), comm,
            Expect("skew_symmetry", st("skew_symmetry"), pairs),
            Expect("jacobi", st("jacobi"), triples),
            Expect("leibniz", st("leibniz"), triples)]


def coeff_expect(nbasis: int) -> list[Expect]:
    """check_coeff_poisson on `nbasis` modes: unordered pairs with
    repetition for the two-slot axioms, ordered triples otherwise."""
    pairs, triples = nbasis * (nbasis + 1) // 2, nbasis ** 3
    return [Expect("coeff_antisymmetry", PASS, pairs),
            Expect("coeff_commutativity", PASS, pairs),
            Expect("coeff_associativity", PASS, triples),
            Expect("coeff_jacobi", PASS, triples),
            Expect("coeff_leibniz", PASS, triples)]


def bidegrees(max_degree: int) -> list[tuple[int, int]]:
    """The FGV bidegrees up to `max_degree`: m != 1 except degree 1, which
    sits at (1, 0)."""
    out = {(1, 0)}
    for k in range(2, max_degree + 1):
        out |= {(m, k - m) for m in range(k + 1) if m != 1}
    return sorted(out)


def complex_expect(samples: int, max_degree: int, tuples: int = 2) -> list[Expect]:
    """check_complex_identities: per bidegree, `tuples` tuples for each of
    d_ce^2 and d_h^2 per sample; the squares use three source bidegrees
    each; d_total^2 of each source of degree < max_degree has three
    components, one tuple each."""
    out = [Expect(f"d2_zero_({m},{n})", PASS, 2 * tuples * samples)
           for (m, n) in bidegrees(max_degree)]
    sources = sum(1 for (m, n) in bidegrees(max_degree) if m + n <= max_degree - 1)
    return out + [Expect("square_dh_dce_bottom_row", PASS, 3 * tuples * samples),
                  Expect("square_dh_dce_inner", PASS, 3 * tuples * samples),
                  Expect("d_total_squared_zero", PASS, 3 * sources * samples)]


def action_expect(samples: int) -> list[Expect]:
    """check_action_module_laws: two tuples per sample; the bare
    D-compatibility law fails by design (criterion 5b)."""
    n = 2 * samples
    return [Expect("action_sesquilinearity", PASS, n),
            Expect("action_bracket_law", PASS, n),
            Expect("action_dtilde_bare_law", FAIL, n),
            Expect("action_dtilde_with_defect_term", PASS, n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def window_sweep(rng: random.Random, tiny: bool = False) -> Workload:
    """Exhaustive generator and mode-window sweeps over a few structure
    rules: every tuple is cheap and re-reads cached rule and mode entries."""
    p, b, h = _signs(rng, 3)
    w_poisson, w_swapped, w_deform, w_coeff = (2, 2, 1, 1) if tiny else (8, 4, 3, 2)
    modes = (-1, 1) if tiny else (-2, 2)
    nmodes = modes[1] - modes[0] + 1
    manifests = {"poly": _poly_manifest("poly_deriv_poisson", p, b, h),
                 "swapped": _poly_manifest("poly_deriv_poisson_swapped", p, b, h, swapped=True),
                 "mat2": _matrix_manifest(p, b)}

    def setup(ck, paths):
        poly = ck.parse_file(paths["poly"])
        swapped = ck.parse_file(paths["swapped"])
        mat2 = ck.parse_file(paths["mat2"])
        return {"names": {"poly": poly.name, "swapped": swapped.name, "mat2": mat2.name},
                "poly": poly.algebra(), "series": poly.deformation(),
                "swapped": swapped.algebra(), "mat2": mat2.algebra()}

    def semiclassical(ck, s):
        _alg, reports = ck.semiclassical_limit(s["series"], w_deform)
        return reports

    jobs = [
        Job("check_poly", "check", "poly",
            lambda ck, s: ck.check_poisson(s["poly"], w_poisson),
            poisson_expect(w_poisson + 1), {"window": w_poisson}),
        Job("check_swapped", "check", "swapped",
            lambda ck, s: ck.check_poisson(s["swapped"], w_swapped),
            poisson_expect(w_swapped + 1, fails=("jacobi", "leibniz")), {"window": w_swapped}),
        Job("check_mat2", "check", "mat2",
            lambda ck, s: ck.check_suite(s["mat2"], 2),
            poisson_expect(4, commutative=False), {"window": 2}),
        Job("n_deformation", "deform", "poly",
            lambda ck, s: [ck.check_n_deformation(s["series"], w_deform)],
            [Expect("n_deformation", PASS, 3 * (w_deform + 1) ** 3)], {"window": w_deform}),
        Job("semiclassical", "semiclassical", "poly", semiclassical,
            poisson_expect(w_deform + 1), {"window": w_deform}),
        Job("coeff", "coeff", "poly",
            lambda ck, s: ck.check_coeff_poisson(s["poly"], ck.ModeWindow(*modes, w_coeff)),
            coeff_expect((w_coeff + 1) * nmodes),
            {"window": w_coeff, "modes": f"{modes[0]}..{modes[1]}"}),
    ]
    return Workload("window_sweep", manifests, setup, jobs)


def bicomplex(rng: random.Random, tiny: bool = False) -> Workload:
    """Seeded random cochains through the differentials: each sample builds
    fresh lazy cochains, so their value caches are written, not re-read."""
    p, b = _signs(rng, 2)
    engine_seed = rng.randrange(1, 1 << 30)
    samples, max_degree, action_samples = (1, 2, 2) if tiny else (2, 3, 4)
    manifests = {"poly": _poly_manifest("poly_deriv_poisson", p, b, 1)}

    def setup(ck, paths):
        poly = ck.parse_file(paths["poly"])
        alg = poly.algebra()
        return {"names": {"poly": poly.name}, "alg": alg, "module": ck.adjoint_module(alg)}

    opts = {"seed": engine_seed, "d2_samples": samples}
    jobs = [
        Job("complex_identities", "cohomology", "poly",
            lambda ck, s: ck.check_complex_identities(
                s["alg"], s["module"], samples=samples, seed=engine_seed,
                max_degree=max_degree),
            complex_expect(samples, max_degree), dict(opts, max_degree=max_degree)),
        Job("action_module_laws", "cohomology", "poly",
            lambda ck, s: ck.check_action_module_laws(
                s["alg"], s["module"], samples=action_samples, seed=engine_seed),
            action_expect(action_samples), dict(opts, d2_samples=action_samples)),
    ]
    return Workload("bicomplex", manifests, setup, jobs)


def extension(rng: random.Random, tiny: bool = False) -> Workload:
    """One exact extension solve: drop the top order of the series, solve
    d_H mu_2 = theta_1 in a bounded ansatz, and re-verify the result."""
    p, b, h = _signs(rng, 3)
    w_solve, w_obstruction = 1, (1 if tiny else 2)
    bounds = (0, 2) if tiny else (2, 2)
    manifests = {"poly": _poly_manifest("poly_deriv_poisson", p, b, h)}

    def setup(ck, paths):
        poly = ck.parse_file(paths["poly"])
        return {"names": {"poly": poly.name}, "truncated": poly.deformation().truncate(1)}

    def extend(ck, s):
        ext = ck.extend_deformation(s["truncated"], ck.AnsatzBounds(*bounds), w_solve)
        if ext is None:
            raise JobFailed("no extension within the ansatz bounds")
        return [ck.check_n_deformation(ext, w_solve)]

    jobs = [
        Job("obstruction_cocycle", "deform", "poly",
            lambda ck, s: [ck.deform.obstruction_is_cocycle(s["truncated"], w_obstruction)],
            [Expect("obstruction_cocycle", PASS, (w_obstruction + 1) ** 4)],
            {"window": w_obstruction}),
        Job("extend", "deform", "poly", extend,
            [Expect("n_deformation", PASS, 3 * (w_solve + 1) ** 3)],
            {"window": w_solve, "ansatz": f"{bounds[0]},{bounds[1]}"}),
    ]
    return Workload("extension", manifests, setup, jobs)


def build(name: str, seed: int, variant: int = 0, tiny: bool = False) -> Workload:
    """The workload's inputs for one variant of a seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[name](random.Random(f"{name}:{seed}:{variant}"), tiny)


def judge(job: Job, reports, exit_code: int) -> list[str]:
    """Differences between a job's reports and its expected table."""
    problems = []
    got = [r.name for r in reports]
    want = [e.name for e in job.expect]
    if got != want:
        return [f"reports {got} != expected {want}"]
    for r, e in zip(reports, job.expect):
        if r.status != e.status:
            problems.append(f"{r.name}: status {r.status} != {e.status}")
        if (r.checked, r.escaped) != (e.checked, e.escaped):
            problems.append(f"{r.name}: checked/escaped {r.checked}/{r.escaped} "
                            f"!= {e.checked}/{e.escaped}")
        if r.status == PASS and r.checked == 0 and not e.skipped:
            problems.append(f"{r.name}: pass with nothing checked")
        if r.status == FAIL and not r.witnesses:
            problems.append(f"{r.name}: fail without a witness")
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code} != {job.exit_code}")
    return problems
