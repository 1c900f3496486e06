import itertools
from fractions import Fraction as Q

import pytest

from conformal_kernel.algebra import (
    RULE_VAR,
    ConformalAlgebra,
    GenFamily,
    LinearRule,
    PreconditionFailed,
    StructureRule,
    check_poisson,
    check_suite,
    eval_op,
    suite_passes,
)
from conformal_kernel.constructors import (
    ConformalModule,
    OrdinaryAlgebra,
    adjoint_module,
    check_derivation,
    check_gd,
    check_module,
    check_ordinary_poisson,
    check_pgd,
    current_algebra,
    direct_sum,
    from_derivation,
    ord_table,
    pgd_from_derivation,
    quadratic_from_pgd,
    semidirect_product,
)
from conformal_kernel.symcore import DPoly, GenIndex, LambdaPoly, ModElement, gen


def xg(m):
    return gen("x", m)


def poly_ordinary(hi=None, truncate=None):
    """Q[x] (or Q[x]/(x^truncate)) with the multiplication table on monomials."""
    def prod(g1, g2):
        m = g1.params[0] + g2.params[0]
        if truncate is not None and m >= truncate:
            return ModElement.zero()
        return ModElement.of(xg(m))

    fam = GenFamily("x", 1, lo=0, hi=hi)
    return OrdinaryAlgebra("polyx", [fam], product=prod, bracket=ord_table({}))


def ddx():
    return LinearRule(lambda g: ModElement.of(xg(g.params[0] - 1), DPoly.const(g.params[0]))
                      if g.params[0] >= 1 else ModElement.zero())


def expected_poly_bracket(m, n):
    tgt = m + n - 1
    if tgt < 0:
        return LambdaPoly.zero(("L",))
    return (
        LambdaPoly.of(("L",), ModElement.of(xg(tgt), DPoly.d_power(1, m)), (0,))
        + LambdaPoly.of(("L",), ModElement.of(xg(tgt), DPoly.const(m + n)), (1,))
    )


class TestCurrentAlgebra:
    def test_abelian_passes(self):
        ord_ = OrdinaryAlgebra("ab", [GenFamily("e", 0)], product=ord_table({}), bracket=ord_table({}))
        alg = current_algebra(ord_)
        assert suite_passes(check_poisson(alg, window=1))

    def test_truncated_polynomials_pass(self):
        ord_ = poly_ordinary(hi=2, truncate=3)
        alg = current_algebra(ord_)
        assert suite_passes(check_poisson(alg, window=2))

    def test_nonassociative_product_fails(self):
        e = gen("e")
        # e o e = e, but perturbed so that (e o e) o e != e o (e o e)
        tbl = {(e, e): ModElement.of(e, DPoly.const(2))}
        f = gen("f")
        tbl[(e, f)] = ModElement.of(f)
        tbl[(f, e)] = ModElement.zero()
        tbl[(f, f)] = ModElement.of(e)
        ord_ = OrdinaryAlgebra("bad", [GenFamily("e", 0), GenFamily("f", 0)],
                               product=ord_table(tbl), bracket=ord_table({}))
        alg = current_algebra(ord_, kind="noncommutative_poisson")
        reports = {r.name: r for r in check_suite(alg, window=0)}
        assert reports["associativity"].status == "fail"


class TestGDPGD:
    def test_zero_star_zero_bracket(self):
        ord_ = OrdinaryAlgebra("triv", [GenFamily("e", 0)], product=ord_table({}),
                               bracket=ord_table({}), star=ord_table({}))
        assert suite_passes(check_gd(ord_, window=0))
        assert suite_passes(check_pgd(ord_, window=0))

    def test_poly_derivation_star_passes(self):
        ord_ = pgd_from_derivation(poly_ordinary(), ddx())
        assert suite_passes(check_pgd(ord_, window=3))

    def test_commutative_star_with_bracket_fails(self):
        # star = the plain product, bracket [u,w] = u: GD compatibility breaks
        e1, e2 = gen("u"), gen("w")
        prod = ord_table({(e1, e1): ModElement.of(e1), (e1, e2): ModElement.of(e2),
                          (e2, e1): ModElement.of(e2)})
        br = ord_table({(e1, e2): ModElement.of(e1), (e2, e1): ModElement.of(e1).scale(-1)})
        ord_ = OrdinaryAlgebra("cs", [GenFamily("u", 0), GenFamily("w", 0)],
                               product=prod, bracket=br, star=prod)
        reports = {r.name: r for r in check_gd(ord_, window=0)}
        assert reports["lie_jacobi"].status == "pass"
        assert reports["gd_compatibility"].status == "fail"


def canonical_poisson():
    """Q[p, q] on monomials x[i, j] = p^i q^j with {p, q} = 1, the derivation
    d = d/dp + d/dq and the Novikov product a*b = a d(b): a PGD algebra whose
    star is not associative on the window, (a*b)*c - a*(b*c) = -ab d(d(c))
    being -2 at a = b = 1, c = pq."""
    def prod(g1, g2):
        (a, b), (c, d) = g1.params, g2.params
        return ModElement.of(gen("x", a + c, b + d))

    def br(g1, g2):
        (a, b), (c, d) = g1.params, g2.params
        k = a * d - b * c
        return ModElement.of(gen("x", a + c - 1, b + d - 1)).scale(k) if k else ModElement.zero()

    def d(g):
        a, b = g.params
        out = ModElement.zero()
        if a:
            out = out + ModElement.of(gen("x", a - 1, b)).scale(a)
        if b:
            out = out + ModElement.of(gen("x", a, b - 1)).scale(b)
        return out

    def star(g1, g2):
        return sum((prod(g1, g).scale(c.coeffs[0]) for g, c in d(g2).items()),
                   ModElement.zero())

    return OrdinaryAlgebra("canonical", [GenFamily("x", 2, lo=0)], product=prod,
                           bracket=br, star=star, derivation=LinearRule(d))


def ordinary_reports(ord_):
    """Every ordinary check, by name, on the window of x[0..1, 0..1]."""
    reports = check_pgd(ord_, window=1) + check_derivation(ord_, ord_.derivation, window=1)
    return {r.name: r for r in reports}


class TestOrdinaryChecks:
    ARITY = {"ord_commutativity": 2, "lie_antisymmetry": 2,
             "derivation_on_product": 2, "derivation_on_bracket": 2}

    def test_all_twelve_checks_run(self):
        # the bracket's antisymmetry and Jacobi run once, as lie_*
        reports = ordinary_reports(canonical_poisson())
        assert len(reports) == 12
        assert not {"ord_antisymmetry", "ord_jacobi"} & set(reports)

    # each ordinary check against one doubled table entry that breaks it; the
    # unperturbed algebra must pass the same check on every tuple
    @pytest.mark.parametrize("check, side, key", [
        ("ord_associativity", "product", ((1, 0), (1, 0))),
        ("ord_commutativity", "product", ((1, 0), (0, 1))),
        ("ord_leibniz", "product", ((1, 0), (0, 1))),
        ("ord_leibniz", "bracket", ((1, 0), (0, 1))),
        ("novikov_right_commute", "star", ((1, 0), (1, 0))),
        ("novikov_left_symmetry", "star", ((1, 1), (1, 1))),
        ("gd_compatibility", "bracket", ((1, 0), (1, 1))),
        ("gd_compatibility", "star", ((0, 1), (1, 1))),
        ("lie_antisymmetry", "bracket", ((1, 0), (0, 1))),
        ("lie_jacobi", "bracket", ((0, 1), (1, 1))),
        ("pgd_right_compat", "star", ((1, 1), (1, 1))),
        ("pgd_right_compat", "product", ((0, 0), (0, 0))),
        ("pgd_left_derivation", "star", ((1, 0), (1, 0))),
        ("pgd_left_derivation", "product", ((0, 1), (0, 1))),
        ("derivation_on_product", "product", ((1, 1), (1, 1))),
        ("derivation_on_product", "derivation", ((1, 0),)),
        ("derivation_on_bracket", "bracket", ((0, 1), (1, 1))),
        ("derivation_on_bracket", "derivation", ((1, 1),)),
    ])
    def test_perturbed_entry_fails_check(self, check, side, key):
        ord_ = canonical_poisson()
        key = tuple(gen("x", *p) for p in key)
        parts = {"product": ord_.product, "bracket": ord_.bracket, "star": ord_.star}
        D = ord_.derivation
        if side == "derivation":
            D = LinearRule(lambda g: ord_.derivation.entry(g).scale(2 if (g,) == key else 1))
        else:
            f = parts[side]
            parts[side] = lambda g1, g2: f(g1, g2).scale(2 if (g1, g2) == key else 1)
        bad = OrdinaryAlgebra("bad", ord_.families, derivation=D, **parts)
        base = ordinary_reports(ord_)[check]
        got = ordinary_reports(bad)[check]
        assert base.status == "pass" and base.escaped == 0
        assert base.checked == 4 ** self.ARITY.get(check, 3)
        assert got.status == "fail"
        assert got.witnesses and not got.witnesses[0][1].is_zero()

    def test_d_dependent_product_value_rejected(self):
        ord_ = canonical_poisson()
        f = ord_.product
        key = (gen("x", 1, 0), gen("x", 1, 0))

        def prod(g1, g2):
            v = f(g1, g2)
            return ModElement.of(gen("x", 2, 0), DPoly.d_power(1)) if (g1, g2) == key else v

        bad = OrdinaryAlgebra("bad", ord_.families, product=prod, bracket=ord_.bracket)
        with pytest.raises(ValueError, match="D-dependent"):
            check_ordinary_poisson(bad, window=1)


class TestQuadratic:
    def test_poly_family_gives_derivation_bracket(self):
        alg = quadratic_from_pgd(pgd_from_derivation(poly_ordinary(), ddx()), window=3)
        for m, n in itertools.product(range(4), repeat=2):
            got = eval_op(alg.bracket, ModElement.of(xg(m)), ModElement.of(xg(n)), "L")
            assert got == expected_poly_bracket(m, n)
        assert suite_passes(check_poisson(alg, window=3))

    def test_zero_pgd_gives_current(self):
        ord_ = OrdinaryAlgebra("triv", [GenFamily("e", 0)], product=ord_table({}),
                               bracket=ord_table({}), star=ord_table({}))
        alg = quadratic_from_pgd(ord_, window=0)
        assert alg.bracket.entry(gen("e"), gen("e")).is_zero()

    def test_precondition_enforced(self):
        e1, e2 = gen("u"), gen("w")
        prod = ord_table({(e1, e1): ModElement.of(e1), (e1, e2): ModElement.of(e2),
                          (e2, e1): ModElement.of(e2)})
        br = ord_table({(e1, e2): ModElement.of(e1), (e2, e1): ModElement.of(e1).scale(-1)})
        ord_ = OrdinaryAlgebra("cs", [GenFamily("u", 0), GenFamily("w", 0)],
                               product=prod, bracket=br, star=prod)
        with pytest.raises(PreconditionFailed):
            quadratic_from_pgd(ord_, window=0)


class TestFromDerivation:
    def test_zero_derivation_gives_current(self):
        alg = from_derivation(poly_ordinary(), LinearRule.zero(), window=2)
        assert alg.bracket.entry(xg(1), xg(1)).is_zero()

    def test_ddx_gives_poly_poisson(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=3)
        got = eval_op(alg.bracket, ModElement.of(xg(1)), ModElement.of(xg(1)), "L")
        assert got == expected_poly_bracket(1, 1)

    def test_two_variable_constant_fields(self):
        # Q[x1,x2] windowed by total degree, D = del_1 + 2 del_2
        def prod(g1, g2):
            p = tuple(a + b for a, b in zip(g1.params, g2.params))
            if sum(p) > 3:
                return None
            return ModElement.of(gen("x", *p))

        def dfn(g):
            i, j = g.params
            out = ModElement.zero()
            if i >= 1:
                out = out + ModElement.of(gen("x", i - 1, j), DPoly.const(i))
            if j >= 1:
                out = out + ModElement.of(gen("x", i, j - 1), DPoly.const(2 * j))
            return out

        ord_ = OrdinaryAlgebra("poly2", [GenFamily("x", 2, lo=0, hi=3)],
                               product=prod, bracket=ord_table({}))
        alg = from_derivation(ord_, LinearRule(dfn), window=2)
        reports = check_poisson(alg, window=2)
        assert all(r.status != "fail" for r in reports)
        assert any(r.escaped > 0 for r in reports)  # honest window bookkeeping

    def test_non_derivation_rejected(self):
        bad = LinearRule(lambda g: ModElement.of(xg(g.params[0] + 1)))  # mult by x
        with pytest.raises(PreconditionFailed):
            from_derivation(poly_ordinary(), bad, window=2)


class TestDirectSum:
    def test_sum_of_two_poly_poisson_passes(self):
        a1 = from_derivation(poly_ordinary(), ddx(), window=2)
        a2 = from_derivation(poly_ordinary(), ddx(), window=2)
        s = direct_sum(a1, a2)
        assert suite_passes(check_poisson(s, window=2))

    def test_sum_with_zero_algebra(self):
        a1 = from_derivation(poly_ordinary(), ddx(), window=2)
        zero = current_algebra(OrdinaryAlgebra("z", [GenFamily("e", 0)],
                                               product=ord_table({}), bracket=ord_table({})))
        s = direct_sum(a1, zero)
        assert suite_passes(check_poisson(s, window=2))

    def test_corrupted_summand_localized(self):
        a1 = from_derivation(poly_ordinary(), ddx(), window=2)
        bad_rule = a1.bracket.override(
            (xg(1), xg(1)), a1.bracket.entry(xg(1), xg(1)).scale(3))
        a2 = ConformalAlgebra("bad", a1.families, product=a1.product, bracket=bad_rule,
                              kind="poisson")
        s = direct_sum(a1, a2)
        reports = check_poisson(s, window=2)
        fails = [r for r in reports if r.status == "fail"]
        assert fails
        for r in fails:
            for t, _ in r.witnesses:
                assert all(e.items() and all(g.family.startswith("2.") for g, _ in e.items())
                           for e in t)


class TestModules:
    def test_adjoint_module_passes(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=3)
        mod = adjoint_module(alg)
        assert suite_passes(check_module(alg, mod, window=2))

    def test_zero_actions_trivial_module(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=2)
        mod = adjoint_module(alg)
        zmod = type(mod)("triv", [GenFamily("t", 0)],
                         left=StructureRule.zero("left"),
                         right=StructureRule.zero("right"),
                         lie=StructureRule.zero("lie"), kind="poisson_module")
        assert suite_passes(check_module(alg, zmod, window=2))

    def test_flipped_sign_fails_lie_axiom(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=2)
        mod = adjoint_module(alg)
        flipped = type(mod)("bad", mod.families, left=mod.left, right=mod.right,
                            lie=StructureRule("lie", lambda g1, g2: (
                                None if mod.lie.entry(g1, g2) is None
                                else mod.lie.entry(g1, g2).scale(-1))),
                            kind="poisson_module")
        reports = {r.name: r for r in check_module(alg, flipped, window=2)}
        assert reports["module_lie"].status == "fail"


    # each module axiom against a perturbed action rule that breaks it; the
    # unperturbed adjoint module must pass the same check
    @pytest.mark.parametrize("check, side", [
        ("module_assoc_left", "left"),
        ("module_assoc_right", "right"),
        ("module_assoc_mixed", "left"),
        ("module_assoc_mixed", "right"),
        ("module_lie", "lie"),
        ("module_poisson_bracket_left", "lie"),
        ("module_poisson_bracket_right", "lie"),
        ("module_poisson_product_action", "lie"),
    ])
    def test_perturbed_action_fails_axiom(self, check, side):
        alg = from_derivation(poly_ordinary(), ddx(), window=2)
        mod = adjoint_module(alg)
        rules = {"left": mod.left, "right": mod.right, "lie": mod.lie}
        key = (xg(1), xg(1))
        rules[side] = rules[side].override(key, rules[side].entry(*key).scale(2))
        bad = ConformalModule("bad", mod.families, kind=mod.kind, **rules)
        base = {r.name: r for r in check_module(alg, mod, window=2)}[check]
        got = {r.name: r for r in check_module(alg, bad, window=2)}[check]
        assert base.status == "pass" and base.checked == 27
        assert got.status == "fail"
        assert got.witnesses and not got.witnesses[0][1].is_zero()


class TestSemidirect:
    def test_trivial_module_is_direct_sum_like(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=2)
        zmod = adjoint_module(alg)
        zmod = type(zmod)("triv", [GenFamily("t", 0)],
                          left=StructureRule.zero("left"),
                          right=StructureRule.zero("right"),
                          lie=StructureRule.zero("lie"), kind="poisson_module")
        s = semidirect_product(alg, zmod, window=2)
        assert suite_passes(check_poisson(s, window=2))

    def test_adjoint_semidirect_passes(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=2)
        s = semidirect_product(alg, adjoint_module(alg), window=2)
        reports = check_poisson(s, window=2)
        assert all(r.status != "fail" for r in reports)

    def test_broken_module_rejected_and_correspondence(self):
        alg = from_derivation(poly_ordinary(), ddx(), window=2)
        mod = adjoint_module(alg)
        bad = type(mod)("bad", mod.families, left=mod.left, right=mod.right,
                        lie=StructureRule("lie", lambda g1, g2: (
                            None if mod.lie.entry(g1, g2) is None
                            else mod.lie.entry(g1, g2).scale(-1))),
                        kind="poisson_module")
        with pytest.raises(PreconditionFailed):
            semidirect_product(alg, bad, window=2)
        s = semidirect_product(alg, bad, window=2, precheck=False)
        reports = {r.name: r for r in check_poisson(s, window=2)}
        assert reports["jacobi"].status == "fail"
