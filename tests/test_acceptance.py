"""Acceptance suite: one test per criterion, every check exact (zero
residual, no tolerances), each printing a single pass/fail line with its
runtime against the stated budget.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import os
import time
from math import comb

import pytest

from conformal_kernel import (
    AnsatzBounds,
    ConformalAlgebra,
    LinearRule,
    ModeWindow,
    adjoint_module,
    binomial_identity_check,
    check_action_module_laws,
    check_coeff_poisson,
    check_complex_identities,
    check_n_deformation,
    check_poisson,
    closed_form_comparison,
    equivalence_check,
    extend_deformation,
    gen,
    infinitesimal_is_cocycle,
    linear_deformation_check,
    nijenhuis_check,
    nijenhuis_deform,
    parse_file,
    semiclassical_limit,
    suite_passes,
    trivial_deformation_check,
)
from conformal_kernel.algebra import RULE_VAR, StructureRule, const_lp, pair
from conformal_kernel.coeff import CoeffAlgebra, CoeffElement
from conformal_kernel.deform import (
    DeformationSeries,
    nijenhuis_homomorphism_check,
    obstruction,
    obstruction_is_cocycle,
    regular_bimodule,
)
from conformal_kernel.cohomology import bilinear_cochain, d_h
from conformal_kernel.symcore import DPoly, GenIndex, LambdaPoly, ModElement, Q

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
SEED = 20260808


def manifest():
    return parse_file(os.path.join(DEMOS, "ex2_17.alg"))


def xg(m):
    return gen("x", m)


def report_line(num, desc, ok, elapsed, budget):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {state} :: {desc} "
          f"({elapsed:.1f}s, budget {budget}s)", flush=True)


class TestCriterion1:
    def test_polynomial_family_suite_window6(self):
        t0 = time.time()
        alg = manifest().algebra()
        reports = check_poisson(alg, window=6)
        ok = suite_passes(reports) and all(r.escaped == 0 for r in reports)
        # the index-swapped variant is a negative control: it must fail
        swapped = parse_file(os.path.join(DEMOS, "ex2_17_swapped.alg")).algebra()
        neg = {r.name: r.status for r in check_poisson(swapped, window=3)}
        control = neg["jacobi"] == "fail" and neg["leibniz"] == "fail" \
            and neg["skew_symmetry"] == "pass"
        elapsed = time.time() - t0
        report_line(1, "full Poisson suite on the polynomial family, window 6, "
                       "exact zeros (swapped-index control fails)", ok and control,
                    elapsed, 10)
        assert ok, [r for r in reports if r.status != "pass"]
        assert control, neg
        assert elapsed < 10


def oracle_mode_bracket(alg, g1, m, g2, n):
    """Independent expansion of the convolution formula: generalized
    binomials against n-th products read from the lambda-value, then the
    D-rewrite, with no shared code path through CoeffAlgebra."""
    from conformal_kernel import eval_op

    value = eval_op(alg.bracket, ModElement.of(g1), ModElement.of(g2), "L")
    out = {}
    from math import factorial

    for (j,), me in value.items():
        nth = me.scale(factorial(j))
        binom = Q(1)
        for t in range(j):
            binom *= Q(m - t, t + 1)
        if binom == 0:
            continue
        mode = m + n - j
        for g, p in nth.items():
            for k, c in p:
                fall = Q(1)
                for t in range(k):
                    fall *= mode - t
                key = (g, mode - k)
                out[key] = out.get(key, Q(0)) + binom * c * fall * (-1) ** k
    return {k: v for k, v in out.items() if v}


class TestCriterion2:
    def test_coefficient_algebra(self):
        t0 = time.time()
        alg = manifest().algebra()
        window = ModeWindow(-3, 3, 8)
        reports = check_coeff_poisson(alg, window)
        ok = suite_passes(reports)

        # independent brute-force oracle for every bracket constant in window
        ca = CoeffAlgebra(alg)
        oracle_ok = True
        for g1 in alg.generators(8):
            for g2 in alg.generators(8):
                for m in window.modes():
                    for n in window.modes():
                        got = ca.bracket(CoeffElement.of(g1, m), CoeffElement.of(g2, n))
                        if got.terms != oracle_mode_bracket(alg, g1, m, g2, n):
                            oracle_ok = False

        # the closed form is (l*m - k*n); the transposed variant is flagged
        comp = closed_form_comparison(alg, window)
        flagged = any("(l*m - k*n)" in note and "NOT" in note for note in comp.notes)
        elapsed = time.time() - t0
        report_line(2, "coefficient algebra exact on |modes|<=3, family<=8; "
                       "constants match the independent oracle; transposed "
                       "closed form flagged", ok and oracle_ok and flagged, elapsed, 30)
        assert ok, [r for r in reports if r.status != "pass"]
        assert oracle_ok
        assert flagged, comp.notes
        assert elapsed < 30


class TestCriterion3:
    def test_binomial_lemma(self):
        t0 = time.time()
        rep = binomial_identity_check(8, 8)
        elapsed = time.time() - t0
        report_line(3, f"binomial convolution lemma exhaustive 0..8 "
                       f"({rep.checked} instances)", rep.status == "pass", elapsed, 1)
        assert rep.status == "pass"
        assert elapsed < 1


class TestCriterion4:
    def test_complex_identities(self):
        t0 = time.time()
        alg = manifest().algebra()
        V = adjoint_module(alg)
        reports = check_complex_identities(alg, V, samples=100, seed=SEED,
                                           max_degree=4, tuples_per_sample=1, d_max=2)
        bad = [r.name for r in reports if r.status != "pass"]
        elapsed = time.time() - t0
        report_line(4, "d_CE^2, d_H^2, both commuting squares and the total "
                       "differential squared: exact zero on 100 seeded cochains "
                       "per bidegree (m+n<=4, D-degree<=2)", not bad, elapsed, 120)
        assert not bad, bad
        assert elapsed < 120


class TestCriterion5:
    def test_action_laws_sesquilinearity_and_bracket(self):
        t0 = time.time()
        alg = manifest().algebra()
        V = adjoint_module(alg)
        reports = {r.name: r for r in check_action_module_laws(alg, V, samples=50,
                                                               seed=SEED)}
        ok = reports["action_sesquilinearity"].status == "pass" \
            and reports["action_bracket_law"].status == "pass" \
            and reports["action_dtilde_with_defect_term"].status == "pass"
        elapsed = time.time() - t0
        report_line("5a", "action sesquilinearity and bracket laws exact on 50 "
                          "seeded samples; D-compatibility with the defect term "
                          "exact", ok, elapsed, 30)
        assert ok
        assert elapsed < 30

    def test_action_dtilde_law_as_stated(self):
        # Faithful assertion of the bare D-compatibility law.  The engine
        # demonstrates the law is false in that form: the residual equals
        # lam * {a_1 ... [x_lam a_n]}_gamma exactly; this red line is the
        # honest outcome, not an implementation gap.
        t0 = time.time()
        alg = manifest().algebra()
        V = adjoint_module(alg)
        reports = {r.name: r for r in check_action_module_laws(alg, V, samples=50,
                                                               seed=SEED)}
        rep = reports["action_dtilde_bare_law"]
        elapsed = time.time() - t0
        report_line("5b", "bare action D-compatibility law, exactly as stated",
                    rep.status == "pass", elapsed, 30)
        assert elapsed < 30
        assert rep.status == "pass", (
            "the bare D-compatibility law fails with residual equal to the "
            "structural defect lam*{a_1..[x_lam a_n]}_gamma; the identity with "
            "the defect term (criterion 5a) holds exactly")


class TestCriterion6:
    def test_deformation_round_trip(self):
        t0 = time.time()
        man = manifest()
        ds = man.deformation()
        ok_full = check_n_deformation(ds, window=3).status == "pass"

        ds1 = ds.truncate(1)
        ok_theta = obstruction_is_cocycle(ds1, window=2).status == "pass"

        ext = extend_deformation(ds1, AnsatzBounds(d_deg=2, l_deg=2), window=3)
        ok_ext = ext is not None and check_n_deformation(ext, window=3).status == "pass"

        limit, reports = semiclassical_limit(ds, window=3)
        ok_scl = suite_passes(reports)
        base = man.algebra()
        ok_same = all(limit.bracket.entry(xg(m), xg(n)) == base.bracket.entry(xg(m), xg(n))
                      for m in range(5) for n in range(5))
        elapsed = time.time() - t0
        ok = ok_full and ok_theta and ok_ext and ok_scl and ok_same
        report_line(6, "order-2 deformation passes; theta_1 is a 3-cocycle; "
                       "extension recovered within (D-deg 2, L-deg 2); "
                       "semi-classical limit passes the full Poisson suite",
                    ok, elapsed, 60)
        assert ok_full and ok_theta
        assert ok_ext
        assert ok_scl and ok_same
        assert elapsed < 60


def seeded_hom(seed: int) -> LinearRule:
    """A seeded module map on the polynomial family."""
    import hashlib

    def fn(g):
        p = g.params[0]
        h = hashlib.blake2b(repr((seed, p)).encode(), digest_size=8).digest()
        c1, c2 = h[0] % 5 - 2, h[1] % 3
        out = ModElement.of(xg(p), DPoly.d_power(h[2] % 2, c1 if c1 else 1))
        if c2 and p + 1 <= 12:
            out = out + ModElement.of(xg(p + 1), DPoly.const(c2))
        return out

    return LinearRule(fn)


class TestCriterion7:
    def test_cocycle_correspondences(self):
        t0 = time.time()
        man = manifest()
        alg = man.algebra()
        prod = alg.product
        ok = True
        for k in range(20):
            phi = seeded_hom(SEED + k)

            def mu1(g1, g2, phi=phi):
                a, b = ModElement.of(g1), ModElement.of(g2)
                return pair(prod, const_lp(a), const_lp(phi.apply(b)), RULE_VAR) \
                    + pair(prod, const_lp(phi.apply(a)), const_lp(b), RULE_VAR) \
                    - phi.apply_lp(pair(prod, const_lp(a), const_lp(b), RULE_VAR))

            ds = DeformationSeries(alg, [StructureRule("product", mu1)])
            zero_ds = DeformationSeries(alg, [StructureRule.zero("product")])
            # infinitesimal_is_cocycle cross-asserts the direct first-order
            # identity against the Hochschild differential computation
            if infinitesimal_is_cocycle(ds, window=2).status != "pass":
                ok = False
            if equivalence_check(ds, zero_ds, phi, window=2).status != "pass":
                ok = False
        elapsed = time.time() - t0
        report_line(7, "20 seeded module maps: d_H(phi) satisfies the order-1 "
                       "identity and is equivalent to the zero deformation; "
                       "both code paths agree", ok, elapsed, 30)
        assert ok
        assert elapsed < 30


class TestCriterion8:
    def test_nijenhuis_pipeline(self):
        t0 = time.time()
        man = manifest()
        P = man.algebra()
        candidates = [("c=1", LinearRule.scalar(1)), ("c=2", LinearRule.scalar(2)),
                      ("c=-3", LinearRule.scalar(-3)), ("mult-by-x", man.nijenhuis())]
        ok = True
        for label, N in candidates:
            if not suite_passes(nijenhuis_check(P, N, window=2)):
                ok = False
            deformed = nijenhuis_deform(P, N, window=2, precheck=False)
            if any(r.status == "fail" for r in check_poisson(deformed, window=2)):
                ok = False
            if nijenhuis_homomorphism_check(P, deformed, N, window=2).status != "pass":
                ok = False
            lin = linear_deformation_check(P, deformed.product, deformed.bracket,
                                           window=2)
            if any(r.status == "fail" for r in lin):
                ok = False
            if trivial_deformation_check(P, deformed.product, deformed.bracket, N,
                                         window=2).status != "pass":
                ok = False
        elapsed = time.time() - t0
        report_line(8, "Nijenhuis pipeline for c*Id (c in {1,2,-3}) and the "
                       "multiplication operator: checks, deformed suite, "
                       "homomorphism, linear-deformation and triviality equations",
                    ok, elapsed, 30)
        assert ok
        assert elapsed < 30


class TestCriterion9:
    def test_perturbation_sensitivity(self):
        t0 = time.time()
        alg = manifest().algebra()
        noise = LambdaPoly.of((RULE_VAR,), ModElement.of(xg(1)), (1,))
        ok = True
        tried = 0
        for kind in ("product", "bracket"):
            base_rule = alg.product if kind == "product" else alg.bracket
            other = alg.bracket if kind == "product" else alg.product
            for m, n in itertools.product(range(3), repeat=2):
                entry = base_rule.entry(xg(m), xg(n))
                corrupted_value = entry.scale(2) if not entry.is_zero() \
                    else noise
                bad = base_rule.override((xg(m), xg(n)), corrupted_value)
                alg2 = ConformalAlgebra(
                    "corrupt", alg.families,
                    product=bad if kind == "product" else other,
                    bracket=bad if kind == "bracket" else other,
                    kind="poisson")
                reports = check_poisson(alg2, window=3)
                tried += 1
                failing = [r for r in reports if r.status == "fail"]
                if not failing or not any(
                        not res.is_zero() for r in failing for _, res in r.witnesses):
                    ok = False
        elapsed = time.time() - t0
        report_line(9, f"every single-constant corruption ({tried} probes) trips "
                       "at least one check with a nonzero witness", ok, elapsed, 30)
        assert ok
        assert elapsed < 30
