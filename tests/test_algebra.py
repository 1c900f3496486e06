import dataclasses
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from conformal_kernel.algebra import (
    INNER,
    OUTER,
    RULE_VAR,
    SWAP,
    L,
    M,
    ConformalAlgebra,
    GenFamily,
    LinearRule,
    StructureRule,
    WindowEscape,
    _pair_comm_residual,
    _pair_into,
    associator,
    check_poisson,
    check_suite,
    commutator_bracket,
    const_lp,
    eval_op,
    leibniz,
    nested_sum,
    nth_product_table,
    order_part,
    pair,
    pair_at,
    run_tuple_check,
    suite_passes,
    sweep_status,
    table_residual,
)
from conformal_kernel.constructors import OrdinaryAlgebra
from conformal_kernel.symcore import Accumulator, DPoly, GenIndex, LambdaPoly, ModElement, gen


def xg(m):
    return gen("x", m)


def x_product():
    def fn(g1, g2):
        return LambdaPoly.of((RULE_VAR,), ModElement.of(xg(g1.params[0] + g2.params[0])))
    return StructureRule("product", fn)


def x_bracket(swap=False):
    """(m D + (m+n) L) x[m+n-1]; `swap` uses the n/m-transposed D-term."""
    def fn(g1, g2):
        m, n = g1.params[0], g2.params[0]
        dcoef = n if swap else m
        tgt = m + n - 1
        out = LambdaPoly.zero((RULE_VAR,))
        if tgt < 0:
            return out
        out = out + LambdaPoly.of((RULE_VAR,), ModElement.of(xg(tgt), DPoly.d_power(1, dcoef)), (0,))
        out = out + LambdaPoly.of((RULE_VAR,), ModElement.of(xg(tgt), DPoly.const(m + n)), (1,))
        return out
    return StructureRule("bracket", fn)


def poly_poisson(swap=False):
    return ConformalAlgebra(
        "poly_poisson",
        [GenFamily("x", 1, lo=0)],
        product=x_product(),
        bracket=x_bracket(swap),
        kind="poisson",
    )


E = gen("e")


def law_report(alg, name, window):
    """One law's report, read by name from the suite of the declared kind."""
    return {r.name: r for r in check_suite(alg, window)}[name]


def canonical_ordinary():
    """Q[p, q] on the monomials x[i, j] = p^i q^j, with {p, q} = 1."""
    def prod(g1, g2):
        (a, b), (c, d) = g1.params, g2.params
        return ModElement.of(gen("x", a + c, b + d))

    def br(g1, g2):
        (a, b), (c, d) = g1.params, g2.params
        k = a * d - b * c
        return ModElement.of(gen("x", a + c - 1, b + d - 1)).scale(k) if k else ModElement.zero()

    return OrdinaryAlgebra("canonical", [GenFamily("x", 2, lo=0)], product=prod, bracket=br)


def one_gen_algebra(product_value=None, bracket_value=None):
    table_p = {(E, E): product_value} if product_value is not None else None
    table_b = {(E, E): bracket_value} if bracket_value is not None else None
    return ConformalAlgebra(
        "onegen",
        [GenFamily("e", 0)],
        product=StructureRule.from_table("product", table_p or {}),
        bracket=StructureRule.from_table("bracket", table_b or {}),
        kind="noncommutative_poisson",
    )


class TestEvalOp:
    def test_bracket_on_generators(self):
        alg = poly_poisson()
        got = eval_op(alg.bracket, ModElement.of(xg(1)), ModElement.of(xg(1)), "L")
        want = LambdaPoly.of(("L",), ModElement.of(xg(1), DPoly.d_power(1)), (0,)) + LambdaPoly.of(
            ("L",), ModElement.of(xg(1), DPoly.const(2)), (1,)
        )
        assert got == want

    def test_zero_argument(self):
        alg = poly_poisson()
        assert eval_op(alg.bracket, ModElement.zero(), ModElement.of(xg(1)), "L").is_zero()

    def test_d_in_first_slot(self):
        # (D a) op_L b = -L * (a op_L b)
        alg = poly_poisson()
        base = eval_op(alg.bracket, ModElement.of(xg(1)), ModElement.of(xg(1)), "L")
        got = eval_op(alg.bracket, ModElement.of(xg(1)).d_apply(1), ModElement.of(xg(1)), "L")
        assert got == base.mul_var("L").scale(-1)

    def test_sesquilinearity_random(self):
        alg = poly_poisson()
        rng = random.Random(23)
        for _ in range(15):
            a = ModElement.of(xg(rng.randint(0, 3)), DPoly([rng.randint(-2, 2) for _ in range(3)]))
            b = ModElement.of(xg(rng.randint(0, 3)), DPoly([rng.randint(-2, 2) for _ in range(2)]))
            if a.is_zero() or b.is_zero():
                continue
            base = eval_op(alg.product, a, b, "L")
            assert eval_op(alg.product, a.d_apply(1), b, "L") == base.mul_var("L").scale(-1)
            # a op (D b) = (D + L)(a op b)
            from conformal_kernel.symcore import shifted_action

            assert eval_op(alg.product, a, b.d_apply(1), "L") == shifted_action(base, "L", 1)


class TestChecks:
    def test_poly_poisson_suite_passes(self):
        alg = poly_poisson()
        reports = check_poisson(alg, window=3)
        assert suite_passes(reports)
        assert all(r.escaped == 0 for r in reports)

    def test_swapped_bracket_fails_jacobi_and_leibniz(self):
        alg = poly_poisson(swap=True)
        jac = law_report(alg, "jacobi", 3)
        lei = law_report(alg, "leibniz", 3)
        assert jac.status == "fail" and jac.witnesses
        assert lei.status == "fail" and lei.witnesses
        # skew symmetry still holds for the transposed variant
        assert law_report(alg, "skew_symmetry", 3).status == "pass"

    def test_zero_rules_pass(self):
        alg = one_gen_algebra()
        assert suite_passes(check_poisson(alg, window=1))

    def test_lambda_e_product_fails(self):
        v = LambdaPoly.of((RULE_VAR,), ModElement.of(E), (1,))  # e o e = L e
        alg = one_gen_algebra(product_value=v)
        assert law_report(alg, "associativity", 1).status == "fail"
        # the noncommutative kind skips commutativity; declare it commutative
        rep = law_report(dataclasses.replace(alg, kind="commutative"), "commutativity", 1)
        assert rep.status == "fail"

    def test_constant_bracket_fails_skew(self):
        v = LambdaPoly.of((RULE_VAR,), ModElement.of(E))  # [e_L e] = e
        alg = one_gen_algebra(bracket_value=v)
        assert law_report(alg, "skew_symmetry", 1).status == "fail"

    def test_kind_needs_its_operations(self):
        with pytest.raises(ValueError, match="unknown kind 'poison'"):
            ConformalAlgebra("a", [], product=x_product(), bracket=x_bracket(), kind="poison")
        with pytest.raises(ValueError, match="lie algebra needs a bracket"):
            ConformalAlgebra("a", [], product=x_product(), kind="lie")
        with pytest.raises(ValueError, match="poisson algebra needs a product and a bracket"):
            ConformalAlgebra("a", [])

    def test_commutativity_passes_on_poly(self):
        assert law_report(poly_poisson(), "commutativity", 4).status == "pass"

    def test_relabeling_invariance(self):
        # permuting concrete generators permutes witnesses but not statuses
        e1, e2 = gen("a"), gen("b")
        v = LambdaPoly.of((RULE_VAR,), ModElement.of(e1), (1,))
        t1 = StructureRule.from_table("product", {(e1, e1): v})
        t2 = StructureRule.from_table(
            "product", {(e2, e2): LambdaPoly.of((RULE_VAR,), ModElement.of(e2), (1,))}
        )
        a1 = ConformalAlgebra("p1", [GenFamily("a", 0), GenFamily("b", 0)], product=t1,
                              bracket=StructureRule.zero("bracket"), kind="noncommutative_poisson")
        a2 = ConformalAlgebra("p2", [GenFamily("a", 0), GenFamily("b", 0)], product=t2,
                              bracket=StructureRule.zero("bracket"), kind="noncommutative_poisson")
        s1 = [r.status for r in check_poisson(a1, window=0)]
        s2 = [r.status for r in check_poisson(a2, window=0)]
        assert s1 == s2


class TestCommutatorBracket:
    def test_commutative_product_gives_zero(self):
        alg = poly_poisson()
        cb = commutator_bracket(alg)
        for m, n in itertools.product(range(3), repeat=2):
            assert cb.entry(xg(m), xg(n)).is_zero()

    def test_matrix_commutator(self):
        # 2x2 matrix units: Eij o Ekl = delta_jk Eil, current product
        idx = {(i, j): gen("E", i, j) for i in (1, 2) for j in (1, 2)}

        def prod_fn(g1, g2):
            (i, j), (k, l) = tuple(g1.params), tuple(g2.params)
            out = LambdaPoly.zero((RULE_VAR,))
            if j == k:
                out = out + LambdaPoly.of((RULE_VAR,), ModElement.of(idx[(i, l)]))
            return out

        prod = StructureRule("product", prod_fn)
        alg = ConformalAlgebra("mat2", [GenFamily("E", 2, lo=1, hi=2)], product=prod,
                               bracket=StructureRule.zero("bracket"), kind="noncommutative_poisson")
        cb = commutator_bracket(alg)
        # [E12, E21] = E11 - E22, lambda-independent
        got = cb.entry(idx[(1, 2)], idx[(2, 1)])
        want = LambdaPoly.of((RULE_VAR,), ModElement.of(idx[(1, 1)]) - ModElement.of(idx[(2, 2)]))
        assert got == want
        # the pair (product, commutator) passes the noncommutative suite
        alg2 = ConformalAlgebra("mat2c", alg.families, product=prod, bracket=cb,
                                kind="noncommutative_poisson")
        assert suite_passes(check_poisson(alg2, window=2))


class TestNthProducts:
    def test_poly_bracket_table(self):
        alg = poly_poisson()
        table = nth_product_table(alg.bracket, [xg(1)])
        assert table[(xg(1), xg(1), 0)] == ModElement.of(xg(1), DPoly.d_power(1))
        assert table[(xg(1), xg(1), 1)] == ModElement.of(xg(1), DPoly.const(2))
        assert (xg(1), xg(1), 2) not in table

    def test_zero_rule_empty(self):
        alg = one_gen_algebra()
        assert nth_product_table(alg.product, [E]) == {}

    def test_current_products_only_n0(self):
        e1 = gen("c")
        v = LambdaPoly.of((RULE_VAR,), ModElement.of(e1))
        rule = StructureRule.from_table("product", {(e1, e1): v})
        table = nth_product_table(rule, [e1])
        assert set(table) == {(e1, e1, 0)}

    def test_leibniz_nth_form_matches_lambda_form(self):
        # a_[m](b_(n)c) = sum_j C(m,j) (a_[j]b)_(m+n-j)c + b_(n)(a_[m]c) on the
        # polynomial family, checked through the n-th product tables
        from math import comb

        alg = poly_poisson()

        def nth(rule, a, b, n):
            e = eval_op(rule, a, b, "L")
            for k, m in e.extract_nth():
                if k == n:
                    return m
            return ModElement.zero()

        for pa, pb, pc in itertools.product(range(3), repeat=3):
            a, b, c = (ModElement.of(xg(p)) for p in (pa, pb, pc))
            for m, n in itertools.product(range(3), repeat=2):
                lhs = nth(alg.bracket, a, nth(alg.product, b, c, n), m)
                rhs = nth(alg.product, b, nth(alg.bracket, a, c, m), n)
                for j in range(m + 1):
                    rhs = rhs + nth(alg.product, nth(alg.bracket, a, b, j), c, m + n - j).scale(comb(m, j))
                assert lhs == rhs


class TestPerturbation:
    def test_single_corruption_detected(self):
        alg = poly_poisson()
        bad_value = alg.bracket.entry(xg(1), xg(1)).scale(2)
        bad = alg.bracket.override((xg(1), xg(1)), bad_value)
        alg2 = ConformalAlgebra("bad", alg.families, product=alg.product, bracket=bad, kind="poisson")
        reports = check_poisson(alg2, window=2)
        assert any(r.status == "fail" for r in reports)


class TestWindowEscape:
    def test_pickle_round_trip_keeps_what_and_message(self):
        # an escape raised in a worker process reaches the caller by pickle
        e = WindowEscape(("product", xg(3), xg(1)))
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is WindowEscape
        assert back.what == e.what
        assert str(back) == str(e) == "outside rule window: ('product', x[3], x[1])"

    def test_nothing_checked_is_never_a_pass(self):
        # a window with no tuple, or one whose every tuple escapes, is
        # inconclusive; a witness still fails
        assert sweep_status([], 0, 0) == sweep_status([], 0, 2) == "inconclusive"
        assert sweep_status([], 1, 0) == "pass"
        assert sweep_status([((xg(0),), LambdaPoly.of((), ModElement.of(xg(0))))], 0, 0) == "fail"
        report = run_tuple_check("empty", [], lambda *t: LambdaPoly.zero())
        assert (report.status, report.checked, report.escaped) == ("inconclusive", 0, 0)


class TestOrderPart:
    """order_part reads a term table along a series of rules {rule: [r_0, r_1,
    ...]}; the tables are compared as multisets, since the terms of one
    order sum into one accumulator."""

    def test_linear_parts_are_the_cross_tables(self):
        # the t-linear parts of associativity, Jacobi and Leibniz for the
        # product prod + t*varpi and the bracket br + t*omega, spelled out
        prod, varpi = StructureRule.zero("product"), StructureRule.zero("product")
        br, omega = StructureRule.zero("bracket"), StructureRule.zero("bracket")
        series = {prod: [prod, varpi], br: [br, omega]}
        product_cocycle = [(INNER, varpi, prod, 1), (INNER, prod, varpi, 1),
                           (OUTER, varpi, prod, -1), (OUTER, prod, varpi, -1)]
        bracket_cocycle = [(OUTER, omega, br, 1), (INNER, omega, br, -1), (SWAP, omega, br, 1),
                           (INNER, br, omega, -1), (OUTER, br, omega, 1), (SWAP, br, omega, 1)]
        mixed_cocycle = list(leibniz(varpi, br) + leibniz(prod, omega))
        assert Counter(order_part(associator(prod), series, 1)) == Counter(product_cocycle)
        # Jacobi's linear part is the bracket cocycle negated
        negated = [(shape, o, i, -sign) for shape, o, i, sign in bracket_cocycle]
        assert Counter(order_part(leibniz(br, br), series, 1)) == Counter(negated)
        assert Counter(order_part(leibniz(br, br), series, 1, sign=-1)) == Counter(bracket_cocycle)
        assert Counter(order_part(leibniz(prod, br), series, 1)) == Counter(mixed_cocycle)

    def test_orders_past_the_series_are_empty(self):
        mu = [StructureRule.zero("product") for _ in range(3)]
        series = {mu[0]: mu}
        assoc = associator(mu[0])
        assert order_part(assoc, series, 0) == list(assoc)
        # order 3 splits as 1 + 2 and 2 + 1, leaving out the mu_3 of 0 + 3
        # and 3 + 0: the obstruction theta_2
        assert Counter(order_part(assoc, series, 3, sign=-1)) == Counter([
            (INNER, mu[1], mu[2], -1), (INNER, mu[2], mu[1], -1),
            (OUTER, mu[1], mu[2], 1), (OUTER, mu[2], mu[1], 1)])
        # order 4 splits only as 2 + 2, order 5 not at all
        assert order_part(assoc, series, 4) == [(INNER, mu[2], mu[2], 1), (OUTER, mu[2], mu[2], -1)]
        assert order_part(assoc, series, 5) == []

    def test_a_rule_outside_the_series_has_order_zero(self):
        mu0, mu1 = (StructureRule.zero("product") for _ in range(2))
        other = StructureRule.zero("bracket")
        series = {mu0: [mu0, mu1]}
        table = leibniz(mu0, other) + ((INNER, mu0, other, 1, (2, 0, 1)),)
        assert order_part(table, series, 0) == list(table)
        # the item order of a permuted term is kept
        assert Counter(order_part(table, series, 1)) == Counter([
            (INNER, other, mu1, 1), (OUTER, mu1, other, -1), (SWAP, mu1, other, -1),
            (INNER, mu1, other, 1, (2, 0, 1))])
        assert order_part(table, series, 2) == []
        assert order_part(leibniz(other, other), series, 1) == []


class TestPairingKernel:
    def test_axiom_sweep_pairs_without_substituting(self, monkeypatch):
        # each residual sums its pairings into one accumulator, expanding
        # the linear forms in place: no substitute, about one build a tuple
        import os
        import sys

        from conformal_kernel.manifest import parse_file
        from conformal_kernel.symcore import Accumulator

        alg = parse_file(os.path.join(os.path.dirname(__file__), "..", "demos", "ex2_17.alg")).algebra()
        calls = {"substitute": 0, "build": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, module in list(sys.modules.items()):
            if name.startswith("conformal_kernel") and hasattr(module, "substitute"):
                monkeypatch.setattr(module, "substitute", counting("substitute", module.substitute))
        monkeypatch.setattr(Accumulator, "build", counting("build", Accumulator.build))
        reports = check_poisson(alg, window=2)
        checked = sum(r.checked for r in reports)
        assert suite_passes(reports) and checked > 0
        assert calls["substitute"] == 0
        assert calls["build"] <= 2 * checked, (calls, checked)

    def test_every_table_term_counts(self, monkeypatch):
        # negating any one term of the associator or the Leibniz table
        # (Jacobi is leibniz(br, br)) breaks exactly the matching laws, in
        # each sweep that reads the tables: the conformal suite, the
        # ordinary Poisson sweep and the coefficient algebra's
        import os

        from conformal_kernel import algebra
        from conformal_kernel.coeff import ModeWindow, check_coeff_poisson
        from conformal_kernel.constructors import check_ordinary_poisson
        from conformal_kernel.manifest import parse_file

        alg = parse_file(os.path.join(os.path.dirname(__file__), "..", "demos", "ex2_17.alg")).algebra()
        sweeps = (("", lambda: check_poisson(alg, window=2)),
                  ("ord_", lambda: check_ordinary_poisson(canonical_ordinary(), window=1)),
                  ("coeff_", lambda: check_coeff_poisson(alg, ModeWindow(-1, 1, 2))))
        for prefix, run in sweeps:
            assert suite_passes(run()), prefix
            for name, rules, broken in (("associator", (alg.product,), {"associativity"}),
                                        ("leibniz", (alg.product, alg.bracket), {"jacobi", "leibniz"})):
                table = getattr(algebra, name)
                for k in range(len(table(*rules))):
                    def negated(*rs, k=k, table=table):
                        terms = list(table(*rs))
                        shape, outer, inner, sign, *order = terms[k]
                        terms[k] = (shape, outer, inner, -sign, *order)
                        return terms

                    monkeypatch.setattr(algebra, name, negated)
                    failed = {r.name for r in run() if r.status == "fail"}
                    assert failed == {prefix + law for law in broken}, (prefix, name, k, failed)
                    monkeypatch.setattr(algebra, name, table)

    def test_pair_at_names_a_missing_form_variable(self):
        alg = poly_poisson()
        U, W = (LambdaPoly.of(("a",), ModElement.of(xg(1))) for _ in range(2))
        with pytest.raises(ValueError, match="variable zz missing"):
            pair_at(alg.product, U, W, ({"zz": 1}, 0), ("a", "L"))

    def test_pair_at_names_a_context_variable_outside_ctx(self):
        alg = poly_poisson()
        U, W = (LambdaPoly.of(("a",), ModElement.of(xg(1))) for _ in range(2))
        with pytest.raises(ValueError, match="variable a missing"):
            pair_at(alg.product, U, W, ({"L": 1}, 0), ("L",))


def nested_sum_oracle(terms, a, b, c):
    """The term table's sum as the engine wrote it before nested_sum read
    the buckets: each inner pair built by ``pair``, then paired into the
    accumulator at the shape's form by ``_pair_into``."""
    items = const_lp(a), const_lp(b), const_lp(c)
    acc = Accumulator((L, M))
    for shape, outer, inner, sign, *order in terms:
        X, Y, Z = [items[i] for i in order[0]] if order else items
        if shape == INNER:
            _pair_into(acc, outer, X, pair(inner, Y, Z, M), ({L: 1}, 0), sign)
        elif shape == OUTER:
            _pair_into(acc, outer, pair(inner, X, Y, L), Z, ({L: 1, M: 1}, 0), sign)
        else:
            _pair_into(acc, outer, Y, pair(inner, X, Z, L), ({M: 1}, 0), sign)
    return acc.build()


def comm_residual_oracle(prod, sign, a, b):
    """_pair_comm_residual as two _pair_into calls on built values."""
    A, B = const_lp(a), const_lp(b)
    acc = Accumulator((L,))
    _pair_into(acc, prod, A, B, ({L: 1}, 0))
    _pair_into(acc, prod, B, A, ({L: -1}, -1), -sign)
    return acc.build()


class TestNestedSumOracle:
    """nested_sum evaluates each term on the buckets of a, b and c; its
    built value equals the composition of built pairs it replaced."""

    GENS = [gen("x", i) for i in range(3)]

    def random_scalar(self, rng):
        return Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    def random_bucket(self, rng):
        """Up to three terms c * D^k g, k <= 2: several generators."""
        return ModElement.combine((ModElement.of(rng.choice(self.GENS)), rng.randrange(3),
                                   self.random_scalar(rng)) for _ in range(rng.randint(1, 3)))

    def random_rule(self, rng, kind):
        """Each entry a sum of c * v^j * D^k g, j, k <= 2, or zero."""
        table = {}
        for g1, g2 in itertools.product(self.GENS, repeat=2):
            acc = Accumulator((RULE_VAR,))
            for _ in range(rng.randint(0, 3)):
                e = ModElement.of(rng.choice(self.GENS), DPoly.d_power(rng.randrange(3)))
                acc.add_lp(LambdaPoly.of((RULE_VAR,), e, (rng.randrange(3),)), self.random_scalar(rng))
            table[(g1, g2)] = acc.build()
        return StructureRule.from_table(kind, table)

    def test_every_shape_and_table(self):
        rng = random.Random(67)
        for _ in range(6):
            p, q, r = (self.random_rule(rng, kind) for kind in ("product", "bracket", "product"))
            series = {p: [p, r, q]}
            tables = [((INNER, p, q, 1),), ((OUTER, q, p, -1),), ((SWAP, p, q, 1),),
                      ((INNER, p, q, 1, (2, 0, 1)), (OUTER, q, p, 1, (1, 2, 0))),
                      associator(p) + leibniz(p, q), order_part(associator(p), series, 2),
                      order_part(leibniz(p, q), series, 1, sign=-1)]
            for _ in range(4):
                a, b, c = (self.random_bucket(rng) for _ in range(3))
                for terms in tables:
                    want = nested_sum_oracle(terms, a, b, c)
                    assert nested_sum(terms, a, b, c).build() == want, terms
                for rule, sign in ((p, 1), (q, -1)):
                    want = comm_residual_oracle(rule, sign, a, b)
                    assert _pair_comm_residual(rule, sign, a, b) == want
            assert not want.is_zero()

    def test_a_cancelled_inner_term_is_never_looked_up(self):
        # {e_M (f + g)} = h - h cancels, and the product has no entry at
        # (x, h): the outer rule sees only the nonzero inner terms, so the
        # tuple is checked, not escaped
        x, e, f, g, h = (gen(name) for name in "xefgh")
        one = {k: LambdaPoly.of((RULE_VAR,), ModElement.of(h).scale(k)) for k in (1, -1)}
        prod = StructureRule.from_table("product", {(e, f): one[1], (e, g): one[-1],
                                                    (x, e): LambdaPoly.zero((RULE_VAR,))},
                                        total=False)
        triple = (ModElement.of(x), ModElement.of(e), ModElement.of(f) + ModElement.of(g))
        report = run_tuple_check("associativity", [triple], table_residual(associator(prod)))
        assert (report.status, report.checked, report.escaped) == ("pass", 1, 0)
        with pytest.raises(WindowEscape):
            prod.shifted_entry(x, h, 0)
