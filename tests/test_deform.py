import itertools
import os
from collections import Counter
from fractions import Fraction as Q
from math import comb

import pytest

from conformal_kernel import cohomology, deform
from conformal_kernel.algebra import (
    ConformalAlgebra,
    GenFamily,
    LinearRule,
    PreconditionFailed,
    RULE_VAR,
    StructureRule,
    associator,
    check_poisson,
    eval_op,
    suite_fails,
    suite_passes,
    table_residual,
)
from conformal_kernel.cohomology import AnsatzBounds, Cochain
from conformal_kernel.constructors import (
    OrdinaryAlgebra,
    current_algebra,
    from_derivation,
    ord_table,
)
from conformal_kernel.deform import (
    DeformationSeries,
    check_n_deformation,
    equivalence_check,
    extend_deformation,
    infinitesimal_is_cocycle,
    linear_deformation_check,
    nijenhuis_check,
    nijenhuis_deform,
    nijenhuis_homomorphism_check,
    obstruction,
    obstruction_is_cocycle,
    semiclassical_limit,
    trivial_deformation_check,
)
from conformal_kernel.manifest import parse_file
from conformal_kernel.symcore import DPoly, GenIndex, LambdaPoly, ModElement, gen


DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


def xg(m):
    return gen("x", m)


def current_poly():
    def prod(g1, g2):
        return ModElement.of(xg(g1.params[0] + g2.params[0]))

    ord_ = OrdinaryAlgebra("polyx", [GenFamily("x", 1, lo=0)], product=prod, bracket=ord_table({}))
    return current_algebra(ord_, kind="poisson")


def poly_poisson():
    def prod(g1, g2):
        return ModElement.of(xg(g1.params[0] + g2.params[0]))

    ord_ = OrdinaryAlgebra("polyx", [GenFamily("x", 1, lo=0)], product=prod, bracket=ord_table({}))
    D = LinearRule(lambda g: ModElement.of(xg(g.params[0] - 1), DPoly.const(g.params[0]))
                   if g.params[0] >= 1 else ModElement.zero())
    return from_derivation(ord_, D, window=2)


def mu_k(k):
    """The k-th term of the transported normal-ordering series:
    mu_k(x^p, x^q) = C(q, k) * L^k * x^{p+q-k}."""
    def fn(g1, g2):
        p, q = g1.params[0], g2.params[0]
        tgt = p + q - k
        c = comb(q, k) if q >= k else 0
        if c == 0 or tgt < 0:
            return LambdaPoly.zero((RULE_VAR,))
        return LambdaPoly.of((RULE_VAR,), ModElement.of(xg(tgt), DPoly.const(c)), (k,))
    return StructureRule("product", fn)


def order2_series():
    return DeformationSeries(current_poly(), [mu_k(1), mu_k(2)])


class TestNDeformation:
    def test_order0_is_associativity(self):
        ds = DeformationSeries(current_poly(), [])
        assert check_n_deformation(ds, window=3).status == "pass"

    def test_order2_series_passes(self):
        rep = check_n_deformation(order2_series(), window=3)
        assert rep.status == "pass"
        assert "cross-check: pass" in rep.notes[0]

    def test_random_mu1_fails(self):
        bad = StructureRule("product", lambda g1, g2: LambdaPoly.of(
            (RULE_VAR,), ModElement.of(xg(g1.params[0] + g2.params[0])), (1,)))
        ds = DeformationSeries(current_poly(), [bad])
        rep = check_n_deformation(ds, window=2)
        assert rep.status == "fail"
        assert rep.witnesses


class TestHbarCrossCheck:
    """The series-index path sweeps the base window's generators at every
    power 0..N, and only triples whose powers sum to at most N."""

    @pytest.mark.parametrize("window, count", [(1, 80), (2, 270), (3, 640)])
    def test_swept_triples(self, monkeypatch, window, count):
        swept = []

        def counting(terms):
            residual = table_residual(terms)

            def swept_residual(a, b, c):
                swept.append([e.items()[0][0].params[-1] for e in (a, b, c)])
                return residual(a, b, c)
            return swept_residual

        # the convolution identity calls nested_sum itself, so the term
        # tables read through table_residual are the series-index sweep's
        monkeypatch.setattr(deform, "table_residual", counting)
        ds = order2_series()
        assert check_n_deformation(ds, window).status == "pass"
        assert len(swept) == count
        assert max(map(sum, swept)) == ds.order
        # the top power is swept even when the window is below N
        assert max(map(max, swept)) == ds.order

    def test_pruned_triples_have_zero_residual(self):
        ds = order2_series()
        x1 = xg(1)
        bad_mu1 = ds.mu(1).override((x1, x1), ds.mu(1).entry(x1, x1).scale(2))
        bad = DeformationSeries(ds.alg, [bad_mu1, ds.mu(2)])
        assoc = table_residual(associator(bad.hbar_algebra().product))
        lifted = [(k, ModElement.of(deform._hbar_gen(g, k)))
                  for g in bad.alg.generators(3) for k in range(bad.order + 1)]
        nonzero = Counter(sum(k for k, _ in t) for t in itertools.product(lifted, repeat=3)
                          if not assoc(*(e for _, e in t)).is_zero())
        # the perturbation shows at power sums 0 and 1, never past N = 2
        assert nonzero == {0: 9, 1: 21}
        rep = check_n_deformation(bad, window=3)
        assert rep.status == "fail"
        assert "cross-check: fail" in rep.notes[0]
        assert "DISAGREES" not in rep.notes[0]
        assert check_n_deformation(ds, window=3).status == "pass"


class TestInfinitesimal:
    def test_zero_mu1(self):
        ds = DeformationSeries(current_poly(), [StructureRule.zero("product")])
        assert infinitesimal_is_cocycle(ds, window=2).status == "pass"

    def test_moyal_mu1(self):
        ds = order2_series().truncate(1)
        assert infinitesimal_is_cocycle(ds, window=3).status == "pass"

    def test_coboundary_mu1(self):
        # mu_1 = d_H phi for a module map phi
        alg = current_poly()
        phi = LinearRule(lambda g: ModElement.of(xg(g.params[0]), DPoly.d_power(1)))

        def mu1(g1, g2):
            a, b = ModElement.of(g1), ModElement.of(g2)
            from conformal_kernel.algebra import const_lp, pair

            val = pair(alg.product, const_lp(a), const_lp(phi.apply(b)), RULE_VAR) \
                + pair(alg.product, const_lp(phi.apply(a)), const_lp(b), RULE_VAR) \
                - phi.apply_lp(pair(alg.product, const_lp(a), const_lp(b), RULE_VAR))
            return val

        ds = DeformationSeries(alg, [StructureRule("product", mu1)])
        assert infinitesimal_is_cocycle(ds, window=3).status == "pass"
        assert check_n_deformation(ds, window=2).status == "pass"

    def test_broken_symmetry_fails(self):
        bad = StructureRule("product", lambda g1, g2: LambdaPoly.of(
            (RULE_VAR,), ModElement.of(xg(g1.params[0] + g2.params[0] + 1)), (2,)))
        ds = DeformationSeries(current_poly(), [bad])
        assert infinitesimal_is_cocycle(ds, window=2).status == "fail"

    def test_disagreement_with_d_h_fails_with_a_note(self, monkeypatch):
        # a d_H mu_1 that differs from the convolution value on every triple:
        # the check fails with a count, and every witness (the convolution
        # value) lives on the algebra's own generators
        real = deform.d_h

        def perturbed(P, V, gamma):
            dg = real(P, V, gamma)
            return dg + Cochain(dg.m, dg.n, lambda t: LambdaPoly.of(dg.context, ModElement.of(t[0])))

        monkeypatch.setattr(deform, "d_h", perturbed)
        ds = order2_series().truncate(1)
        rep = infinitesimal_is_cocycle(ds, window=1)
        assert rep.status == "fail" and rep.checked == 8
        assert rep.notes == ["cross-asserted against the Hochschild differential of mu_1"
                             " (DISAGREES with d_H mu_1 on 8 tuples)"]
        fams = {f.name for f in ds.alg.families}
        assert all(g.family in fams for _t, r in rep.witnesses for _e, g, _k, _c in r.flat())


class TestEquivalence:
    def test_identity_case(self):
        ds = order2_series().truncate(1)
        phi = LinearRule.zero()
        assert equivalence_check(ds, ds, phi, window=3).status == "pass"

    def test_trivial_deformation(self):
        alg = current_poly()
        phi = LinearRule(lambda g: ModElement.of(xg(g.params[0]), DPoly.d_power(1)))

        def mu1(g1, g2):
            from conformal_kernel.algebra import const_lp, pair

            a, b = ModElement.of(g1), ModElement.of(g2)
            return pair(alg.product, const_lp(a), const_lp(phi.apply(b)), RULE_VAR) \
                + pair(alg.product, const_lp(phi.apply(a)), const_lp(b), RULE_VAR) \
                - phi.apply_lp(pair(alg.product, const_lp(a), const_lp(b), RULE_VAR))

        ds = DeformationSeries(alg, [StructureRule("product", mu1)])
        zero_ds = DeformationSeries(alg, [StructureRule.zero("product")])
        assert equivalence_check(ds, zero_ds, phi, window=3).status == "pass"

    def test_mismatch_fails(self):
        ds = order2_series().truncate(1)
        zero_ds = DeformationSeries(current_poly(), [StructureRule.zero("product")])
        assert equivalence_check(ds, zero_ds, LinearRule.zero(), window=2).status == "fail"


class TestObstruction:
    def test_zero_series(self):
        ds = DeformationSeries(current_poly(), [StructureRule.zero("product")])
        theta = obstruction(ds)
        assert theta.value((xg(1), xg(1), xg(1))).is_zero()

    def test_truncated_series_obstruction_is_dh_mu2(self):
        full = order2_series()
        ds1 = full.truncate(1)
        theta = obstruction(ds1)
        # theta_1 = d_H mu_2 for the known extension
        from conformal_kernel.cohomology import bilinear_cochain, d_h
        from conformal_kernel.deform import regular_bimodule

        dmu2 = d_h(ds1.alg, regular_bimodule(ds1.alg), bilinear_cochain(full.mu(2)))
        for t in itertools.product([xg(0), xg(1), xg(2), xg(3)], repeat=3):
            assert theta.value(t) == dmu2.value(t)

    def test_obstruction_is_cocycle(self):
        ds1 = order2_series().truncate(1)
        assert obstruction_is_cocycle(ds1, window=2).status == "pass"


class TestExtension:
    def test_roundtrip(self):
        ds1 = order2_series().truncate(1)
        bounds = AnsatzBounds(d_deg=2, l_deg=2, param_deg=2)
        ext = extend_deformation(ds1, bounds, window=3)
        assert ext is not None
        assert check_n_deformation(ext, window=3).status == "pass"

    def test_zero_obstruction_extends_by_zero(self):
        ds = DeformationSeries(current_poly(), [StructureRule.zero("product")])
        ext = extend_deformation(ds, AnsatzBounds(1, 1, 1), window=2)
        assert ext is not None
        assert ext.mu(2).entry(xg(1), xg(1)).is_zero()

    def test_differential_evaluations(self, monkeypatch):
        # the ansatz columns cost one d_h evaluation per window triple, of
        # the generic ansatz element: 8, against 8 + 405 for one per
        # distinct (site, term) and 270 * 8 = 2160 for one per (basis
        # element, triple)
        evaluated = []

        def counting(P, V, gamma):
            img = cohomology.d_h(P, V, gamma)
            return Cochain(img.m, img.n, lambda t: evaluated.append(t) or img.value(t))

        monkeypatch.setattr(deform, "d_h", counting)
        ds = parse_file(os.path.join(DEMOS, "ex2_17.alg")).deformation().truncate(1)
        assert extend_deformation(ds, AnsatzBounds(2, 2), window=1) is not None
        assert len(evaluated) == 8

    def test_bounds_too_small(self):
        ds1 = order2_series().truncate(1)
        # lambda-degree 0 cannot host the L^2-valued solution
        ext = extend_deformation(ds1, AnsatzBounds(d_deg=0, l_deg=0, param_deg=1), window=3)
        assert ext is None


class TestSemiclassical:
    def test_trivial_series(self):
        ds = DeformationSeries(current_poly(),
                               [StructureRule.zero("product"), StructureRule.zero("product")])
        alg, reports = semiclassical_limit(ds, window=2)
        assert suite_passes(reports)
        assert alg.bracket.entry(xg(1), xg(1)).is_zero()

    def test_moyal_series_gives_poly_poisson(self):
        alg, reports = semiclassical_limit(order2_series(), window=3)
        assert suite_passes(reports)
        want = poly_poisson()
        for m, n in itertools.product(range(4), repeat=2):
            assert alg.bracket.entry(xg(m), xg(n)) == want.bracket.entry(xg(m), xg(n))

    def test_order1_partial_label(self):
        ds = order2_series().truncate(1)
        alg, reports = semiclassical_limit(ds, window=2)
        jac = [r for r in reports if r.name == "jacobi"][0]
        assert any("partial" in n for n in jac.notes)


class TestNijenhuis:
    def test_scalar_multiples(self):
        P = poly_poisson()
        for c in (1, 2, -3):
            N = LinearRule.scalar(c)
            assert suite_passes(nijenhuis_check(P, N, window=2))

    def test_multiplication_operator(self):
        P = poly_poisson()
        N = LinearRule(lambda g: ModElement.of(xg(g.params[0] + 1)))
        assert suite_passes(nijenhuis_check(P, N, window=3))

    def test_random_map_fails(self):
        P = poly_poisson()
        N = LinearRule(lambda g: ModElement.of(xg(g.params[0]), DPoly.d_power(1))
                       if g.params[0] % 2 else ModElement.of(xg(g.params[0] + 2)))
        assert suite_fails(nijenhuis_check(P, N, window=2))

    def test_check_pairs_into_one_accumulator(self, monkeypatch):
        # each residual pairs its terms into one accumulator and N reads it
        # unbuilt: with the rule caches warm, one build a tuple
        from conformal_kernel.symcore import Accumulator

        manifest = parse_file(os.path.join(DEMOS, "ex2_17.alg"))
        P, N = manifest.algebra(), manifest.nijenhuis()
        nijenhuis_check(P, N, 2)  # fills the rule caches
        builds = []
        real_build = Accumulator.build
        monkeypatch.setattr(Accumulator, "build", lambda acc: builds.append(1) or real_build(acc))
        reports = nijenhuis_check(P, N, 2)
        checked = sum(r.checked for r in reports)
        assert suite_passes(reports) and checked == 18
        assert len(builds) == checked, (len(builds), checked)

    def test_stacked_rows_build_once_per_tuple(self, monkeypatch):
        # the rows of a stacked residual stay unbuilt until the stack: with
        # the rule caches warm, one build a tuple
        from conformal_kernel.symcore import Accumulator

        manifest = parse_file(os.path.join(DEMOS, "ex2_17.alg"))
        P, N = manifest.algebra(), manifest.nijenhuis()
        defd = nijenhuis_deform(P, N, 2, precheck=False)
        checks = [lambda: nijenhuis_homomorphism_check(P, defd, N, 2),
                  lambda: trivial_deformation_check(P, defd.product, defd.bracket, N, 2)]
        for check in checks:
            check()  # fills the rule caches
        builds = []
        real_build = Accumulator.build
        monkeypatch.setattr(Accumulator, "build", lambda acc: builds.append(1) or real_build(acc))
        for check in checks:
            builds.clear()
            rep = check()
            assert (rep.status, rep.checked) == ("pass", 9)
            assert len(builds) == 9, (rep.name, len(builds))

    def test_deformed_algebra_passes_and_homomorphism(self):
        P = poly_poisson()
        N = LinearRule(lambda g: ModElement.of(xg(g.params[0] + 1)))
        defd = nijenhuis_deform(P, N, window=2)
        reports = check_poisson(defd, window=2)
        assert all(r.status != "fail" for r in reports)
        assert nijenhuis_homomorphism_check(P, defd, N, window=2).status == "pass"

    def test_deformed_rules_match_hand_values(self):
        P = poly_poisson()
        N = LinearRule(lambda g: ModElement.of(xg(g.params[0] + 1)))
        defd = nijenhuis_deform(P, N, window=2)
        # x^p o_N x^q = x^{p+q+1}
        assert defd.product.entry(xg(1), xg(2)) == LambdaPoly.of(
            (RULE_VAR,), ModElement.of(xg(4)))
        # [x^p x^q]_N = ((p+1) D + (p+q+2) L) x^{p+q}
        got = defd.bracket.entry(xg(1), xg(2))
        want = LambdaPoly.of((RULE_VAR,), ModElement.of(xg(3), DPoly.d_power(1, 2)), (0,)) \
            + LambdaPoly.of((RULE_VAR,), ModElement.of(xg(3), DPoly.const(5)), (1,))
        assert got == want


class TestLinearDeformation:
    def test_zero_pair(self):
        P = poly_poisson()
        z = StructureRule.zero("product")
        reports = linear_deformation_check(P, z, StructureRule.zero("bracket"), window=2)
        assert all(r.status != "fail" for r in reports)

    def test_nijenhuis_induced_pair_passes_and_is_trivial(self):
        P = poly_poisson()
        N = LinearRule(lambda g: ModElement.of(xg(g.params[0] + 1)))
        defd = nijenhuis_deform(P, N, window=2)
        varpi, omega = defd.product, defd.bracket
        reports = linear_deformation_check(P, varpi, omega, window=2)
        assert all(r.status != "fail" for r in reports), [
            (r.name, r.status) for r in reports]
        triv = trivial_deformation_check(P, varpi, omega, N, window=2)
        assert triv.status == "pass"

    def test_scalar_nijenhuis_pair(self):
        P = poly_poisson()
        N = LinearRule.scalar(2)
        defd = nijenhuis_deform(P, N, window=2)
        reports = linear_deformation_check(P, defd.product, defd.bracket, window=2)
        assert all(r.status != "fail" for r in reports)
        assert trivial_deformation_check(P, defd.product, defd.bracket, N,
                                         window=2).status == "pass"

    def test_broken_pair_detected(self):
        P = poly_poisson()
        bad = StructureRule("product", lambda g1, g2: LambdaPoly.of(
            (RULE_VAR,), ModElement.of(xg(g1.params[0] + g2.params[0])), (1,)))
        reports = linear_deformation_check(P, bad, StructureRule.zero("bracket"), window=2)
        assert any(r.status == "fail" for r in reports)

    # each cross condition against a perturbed varpi or omega that breaks
    # it; the Nijenhuis-induced pair must pass the same check
    @pytest.mark.parametrize("check, which", [
        ("cross_product_cocycle", "varpi"),
        ("cross_bracket_cocycle", "omega"),
        ("cross_mixed_cocycle", "varpi"),
        ("cross_mixed_cocycle", "omega"),
    ])
    def test_perturbed_pair_fails_cross_condition(self, check, which):
        P = poly_poisson()
        defd = nijenhuis_deform(P, LinearRule(lambda g: ModElement.of(xg(g.params[0] + 1))),
                                window=2)
        rules = {"varpi": defd.product, "omega": defd.bracket}
        key = (xg(1), xg(1))
        rules[which] = rules[which].override(key, rules[which].entry(*key).scale(2))
        base = {r.name: r for r in linear_deformation_check(
            P, defd.product, defd.bracket, window=2)}[check]
        got = {r.name: r for r in linear_deformation_check(
            P, rules["varpi"], rules["omega"], window=2)}[check]
        assert base.status == "pass" and base.checked == 27
        assert got.status == "fail"
        assert got.witnesses and not got.witnesses[0][1].is_zero()
