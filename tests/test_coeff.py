import itertools
from fractions import Fraction as Q
from math import factorial

from conformal_kernel.algebra import ConformalAlgebra, eval_op, suite_passes
from conformal_kernel.coeff import (
    CoeffAlgebra,
    CoeffElement,
    ModeWindow,
    annihilation_relations_check,
    binomial_identity_check,
    check_coeff_poisson,
    closed_form_comparison,
    coeff_bracket,
    coeff_derivation_check,
    coeff_normalize,
    coeff_product,
)
from conformal_kernel.constructors import (
    LinearRule,
    OrdinaryAlgebra,
    current_algebra,
    from_derivation,
    ord_table,
)
from conformal_kernel.algebra import GenFamily
from conformal_kernel.symcore import DPoly, GenIndex, ModElement, gen


def xg(m):
    return gen("x", m)


def poly_poisson():
    def prod(g1, g2):
        return ModElement.of(xg(g1.params[0] + g2.params[0]))

    ord_ = OrdinaryAlgebra("polyx", [GenFamily("x", 1, lo=0)], product=prod, bracket=ord_table({}))
    D = LinearRule(lambda g: ModElement.of(xg(g.params[0] - 1), DPoly.const(g.params[0]))
                   if g.params[0] >= 1 else ModElement.zero())
    return from_derivation(ord_, D, window=2)


def oracle_bracket(alg, g1, m, g2, n):
    """Independent expansion of the mode bracket: falling-factorial binomials
    against n-th products read off the lambda-value, then the D-rewrite."""
    value = eval_op(alg.bracket, ModElement.of(g1), ModElement.of(g2), "L")
    out = {}
    for (j,), me in value.items():
        nth = me.scale(factorial(j))  # a_[j] b
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


class TestNormalize:
    def test_da_at_3(self):
        got = coeff_normalize(ModElement.of(xg(1), DPoly.d_power(1)), 3)
        assert got == CoeffElement.of(xg(1), 2, -3)

    def test_da_at_0(self):
        assert coeff_normalize(ModElement.of(xg(1), DPoly.d_power(1)), 0).is_zero()

    def test_d2a_at_2(self):
        got = coeff_normalize(ModElement.of(xg(1), DPoly.d_power(2)), 2)
        assert got == CoeffElement.of(xg(1), 0, 2)


class TestModeOps:
    def test_product_mode_additive(self):
        alg = poly_poisson()
        got = coeff_product(alg, (xg(2), 1), (xg(1), -2))
        assert got == CoeffElement.of(xg(3), -1)

    def test_bracket_closed_form(self):
        alg = poly_poisson()
        for k, l in itertools.product(range(3), repeat=2):
            for m, n in itertools.product(range(-2, 3), repeat=2):
                got = coeff_bracket(alg, (xg(k), m), (xg(l), n))
                coeffv = Q(l * m - k * n)
                want = (CoeffElement.of(xg(k + l - 1), m + n - 1, coeffv)
                        if k + l >= 1 else CoeffElement.zero())
                assert got == want, (k, l, m, n)

    def test_bracket_matches_independent_oracle(self):
        alg = poly_poisson()
        for k, l in itertools.product(range(4), repeat=2):
            for m, n in itertools.product(range(-3, 4), repeat=2):
                got = coeff_bracket(alg, (xg(k), m), (xg(l), n))
                assert got.terms == oracle_bracket(alg, xg(k), m, xg(l), n)

    def test_zero_bracket(self):
        def prod(g1, g2):
            return ModElement.of(xg(g1.params[0] + g2.params[0]))

        ord_ = OrdinaryAlgebra("p", [GenFamily("x", 1, lo=0)], product=prod, bracket=ord_table({}))
        alg = current_algebra(ord_)
        assert coeff_bracket(alg, (xg(1), 2), (xg(1), 1)).is_zero()


class TestCoeffSuite:
    def test_poly_poisson_passes(self):
        alg = poly_poisson()
        reports = check_coeff_poisson(alg, ModeWindow(-2, 2, 3))
        assert suite_passes(reports)

    def test_current_algebra_mode_additive_and_passes(self):
        e1, e2 = gen("u"), gen("w")
        prod = ord_table({(e1, e1): ModElement.of(e1), (e1, e2): ModElement.of(e2),
                          (e2, e1): ModElement.of(e2)})
        ord_ = OrdinaryAlgebra("uw", [GenFamily("u", 0), GenFamily("w", 0)],
                               product=prod, bracket=ord_table({}))
        alg = current_algebra(ord_)
        reports = check_coeff_poisson(alg, ModeWindow(-2, 2, 0))
        assert suite_passes(reports)
        got = coeff_product(alg, (e1, 2), (e2, -1))
        assert got == CoeffElement.of(e2, 1)

    def test_corrupted_table_fails_leibniz(self):
        alg = poly_poisson()
        bad = alg.bracket.override((xg(1), xg(1)), alg.bracket.entry(xg(1), xg(1)).scale(2))
        from conformal_kernel.algebra import ConformalAlgebra

        alg2 = ConformalAlgebra("bad", alg.families, product=alg.product, bracket=bad,
                                kind="poisson")
        reports = {r.name: r for r in check_coeff_poisson(alg2, ModeWindow(-1, 1, 2))}
        assert reports["coeff_leibniz"].status == "fail" or reports["coeff_jacobi"].status == "fail"
        assert any(r.witnesses for r in reports.values() if r.status == "fail")


    def test_perturbed_product_fails_associativity(self):
        alg = poly_poisson()
        key = (xg(1), xg(1))
        bad = ConformalAlgebra("bad", alg.families, product=alg.product.override(
            key, alg.product.entry(*key).scale(2)), bracket=alg.bracket, kind="poisson")
        base = {r.name: r for r in check_coeff_poisson(alg, ModeWindow(-1, 1, 2))}
        got = {r.name: r for r in check_coeff_poisson(bad, ModeWindow(-1, 1, 2))}
        assert base["coeff_associativity"].status == "pass"
        assert base["coeff_associativity"].checked == 9 ** 3
        assert got["coeff_associativity"].status == "fail"
        t, value = got["coeff_associativity"].witnesses[0]
        assert all(isinstance(e, CoeffElement) for e in t) and not value.is_zero()


class TestDerivationAndRelations:
    def test_poly_derivation_passes(self):
        alg = poly_poisson()
        rep = coeff_derivation_check(alg, ModeWindow(-2, 2, 2))
        assert rep.status == "pass"

    def test_quotient_relations(self):
        alg = poly_poisson()
        rep = annihilation_relations_check(alg, ModeWindow(-3, 3, 3), seed=5)
        assert rep.status == "pass"


class TestBinomialLemma:
    def test_trivial(self):
        assert binomial_identity_check(0, 0).status == "pass"

    def test_spot_value(self):
        # m=2, n=1, i'=1, j'=1: sum_i C(2,i)C(1,2-i)C(i,1) = C(2,1)C(2,1)
        lhs = sum(
            Q(__import__("math").comb(2, i) * __import__("math").comb(1, 2 - i)
              * __import__("math").comb(i, 1))
            for i in range(1, 3) if 2 - i >= 0
        )
        assert lhs == 4
        assert binomial_identity_check(2, 1).status == "pass"

    def test_full_range(self):
        rep = binomial_identity_check(5, 4)
        assert rep.status == "pass"
        assert rep.checked > 0


class TestClosedFormNote:
    def test_poly_poisson_flags_transposed_form(self):
        alg = poly_poisson()
        rep = closed_form_comparison(alg, ModeWindow(-2, 2, 3))
        assert rep.status == "pass"
        assert any("(l*m - k*n)" in n and "NOT" in n for n in rep.notes)

    def test_not_applicable_for_concrete_algebras(self):
        e1 = gen("u")
        ord_ = OrdinaryAlgebra("u", [GenFamily("u", 0)],
                               product=ord_table({(e1, e1): ModElement.of(e1)}),
                               bracket=ord_table({}))
        alg = current_algebra(ord_)
        rep = closed_form_comparison(alg, ModeWindow(-1, 1, 0))
        assert "not applicable" in rep.notes[0]


class TestComposedCoefficientConformal:
    def test_coeff_plus_derivation_gives_quadratic_algebra(self):
        # realize the coefficient Poisson algebra of the polynomial family on
        # a finite mode window as ordinary data, attach the mode derivation
        # D(a_n) = -n a_{n-1}, and rebuild a quadratic conformal algebra from
        # it; the suite shows no failures (window escapes are expected)
        from conformal_kernel.constructors import from_derivation
        from conformal_kernel.algebra import check_poisson, GenFamily, LinearRule

        base = poly_poisson()
        ca = CoeffAlgebra(base)
        K, M = 3, 2  # exponent and mode bounds of the realized window

        def to_ord(ce):
            out = ModElement.zero()
            for (g, n), c in ce.items():
                k = g.params[0]
                if 0 <= k <= K and -M <= n <= M:
                    out = out + ModElement.of(gen("c", k, n + M)).scale(c)
                else:
                    return None
            return out

        def prod(g1, g2):
            k1, m1 = g1.params[0], g1.params[1] - M
            k2, m2 = g2.params[0], g2.params[1] - M
            return to_ord(ca.product(CoeffElement.of(xg(k1), m1),
                                     CoeffElement.of(xg(k2), m2)))

        def brk(g1, g2):
            k1, m1 = g1.params[0], g1.params[1] - M
            k2, m2 = g2.params[0], g2.params[1] - M
            return to_ord(ca.bracket(CoeffElement.of(xg(k1), m1),
                                     CoeffElement.of(xg(k2), m2)))

        fam = GenFamily("c", 2, lo=0, hi=max(K, 2 * M))
        ord_ = OrdinaryAlgebra("coeffwin", [fam], product=prod, bracket=brk)
        D = LinearRule(lambda g: ModElement.of(
            gen("c", g.params[0], g.params[1] - 1)).scale(-(g.params[1] - M))
            if g.params[1] - 1 >= 0 else None)
        alg = from_derivation(ord_, D, window=2)
        reports = check_poisson(alg, window=2)
        assert all(r.status != "fail" for r in reports)
        assert any(r.escaped > 0 for r in reports)
