import itertools
import random
from fractions import Fraction as Q
from math import factorial

import pytest

from conformal_kernel.algebra import (
    KIND_ASSOCIATIVE,
    KIND_NC_POISSON,
    RULE_VAR,
    ConformalAlgebra,
    GenFamily,
    LinearRule,
    StructureRule,
    pair,
    pair_at,
)
from conformal_kernel.constructors import ord_table
from conformal_kernel.symcore import (
    DPoly,
    GenIndex,
    LambdaPoly,
    ModElement,
    d_apply,
    gen,
    gen_binom,
    multi_shifted_action,
    shifted_action,
    substitute,
)

E1 = gen("e", 1)
E2 = gen("e", 2)
X1 = gen("x", 1)


def lp(ctx, *terms):
    out = LambdaPoly.zero(ctx)
    for exp, me in terms:
        out = out + LambdaPoly.of(ctx, me, exp)
    return out


def rand_dpoly(rng, deg=3):
    return DPoly([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, deg + 1))])


def rand_mod(rng):
    out = ModElement.zero()
    for g in (E1, E2):
        out = out + ModElement.of(g, rand_dpoly(rng))
    return out


def rand_lambda(rng, ctx):
    out = LambdaPoly.zero(ctx)
    for _ in range(rng.randint(0, 4)):
        exp = tuple(rng.randint(0, 2) for _ in ctx)
        out = out + LambdaPoly.of(ctx, rand_mod(rng), exp)
    return out


class TestDApply:
    def test_identity_power(self):
        e = ModElement.of(E1)
        assert d_apply(e, 0) == e

    def test_square(self):
        e = ModElement.of(E1)
        assert d_apply(e, 2) == ModElement.of(E1, DPoly.d_power(2))

    def test_linearity(self):
        e = ModElement.of(E1, DPoly.const(3)) + ModElement.of(E2, DPoly.d_power(1))
        want = ModElement.of(E1, DPoly.d_power(1, 3)) + ModElement.of(E2, DPoly.d_power(2))
        assert d_apply(e, 1) == want


def subst_sum(p, targets):
    """nu^k -> (sum of targets)^k for p in the single variable nu."""
    (nu,) = p.context
    return substitute(p, {nu: ({t: 1 for t in targets}, 0)}, tuple(targets))


def subst_dagger(p, targets):
    """nu^k -> (-(sum of targets) - D)^k for p in the single variable nu."""
    (nu,) = p.context
    return substitute(p, {nu: ({t: -1 for t in targets}, -1)}, tuple(targets))


class TestSubstSum:
    """The lambda+mu shifts, through substitute."""

    def test_linear(self):
        p = lp(("nu",), ((1,), ModElement.of(E1)))
        got = subst_sum(p, ("lam", "mu"))
        want = lp(("lam", "mu"), ((1, 0), ModElement.of(E1)), ((0, 1), ModElement.of(E1)))
        assert got == want

    def test_binomial(self):
        p = lp(("nu",), ((2,), ModElement.of(E1)))
        got = subst_sum(p, ("lam", "mu"))
        want = lp(
            ("lam", "mu"),
            ((2, 0), ModElement.of(E1)),
            ((1, 1), ModElement.of(E1, DPoly.const(2))),
            ((0, 2), ModElement.of(E1)),
        )
        assert got == want

    def test_degree_zero(self):
        p = lp(("nu",), ((0,), ModElement.of(E1)))
        assert subst_sum(p, ("lam",)) == lp(("lam",), ((0,), ModElement.of(E1)))

    def test_composition(self):
        rng = random.Random(11)
        for _ in range(20):
            p = rand_lambda(rng, ("nu",))
            via = subst_sum(subst_sum(p, ("lam",)), ("mu", "rho"))
            direct = subst_sum(p, ("mu", "rho"))
            assert via == direct
            # the same shift as one simultaneous substitution
            many = substitute(p, {"nu": ({"mu": 1, "rho": 1}, 0)}, ("mu", "rho"))
            assert many == direct


class TestSubstDagger:
    def test_degree_one(self):
        p = lp(("nu",), ((1,), ModElement.of(E1)))
        got = subst_dagger(p, ("lam",))
        want = lp(
            ("lam",),
            ((1,), ModElement.of(E1, DPoly.const(-1))),
            ((0,), ModElement.of(E1, DPoly.d_power(1, -1))),
        )
        assert got == want

    def test_degree_zero(self):
        p = lp(("nu",), ((0,), ModElement.of(E1)))
        assert subst_dagger(p, ("lam",)) == lp(("lam",), ((0,), ModElement.of(E1)))

    def test_pure_d_square(self):
        # brute force: (-D)^2 = D^2 with sign (-1)^2 = 1
        p = lp(("nu",), ((2,), ModElement.of(E1)))
        got = subst_dagger(p, ())
        assert got == LambdaPoly.of((), ModElement.of(E1, DPoly.d_power(2)))

    def test_involution_on_random_inputs(self):
        rng = random.Random(7)
        for _ in range(30):
            p = rand_lambda(rng, ("nu",))
            back = subst_dagger(subst_dagger(p, ("lam",)).rename_context(("nu",)), ("lam",))
            assert back == p.rename_context(("lam",))


class TestExtractNth:
    def test_paper_example(self):
        # (D + 2*lam) x[1]  ->  [(0, D x[1]), (1, 2 x[1])]
        p = lp(
            ("lam",),
            ((0,), ModElement.of(X1, DPoly.d_power(1))),
            ((1,), ModElement.of(X1, DPoly.const(2))),
        )
        assert p.extract_nth() == [
            (0, ModElement.of(X1, DPoly.d_power(1))),
            (1, ModElement.of(X1, DPoly.const(2))),
        ]

    def test_zero(self):
        assert LambdaPoly.zero(("lam",)).extract_nth() == []

    def test_cubic_scaling(self):
        p = lp(("lam",), ((3,), ModElement.of(E1)))
        assert p.extract_nth() == [(3, ModElement.of(E1, DPoly.const(6)))]

    def test_roundtrip(self):
        # the inverse: sum over n of (nu^n / n!) * a_(n) b
        rng = random.Random(3)
        for _ in range(25):
            p = rand_lambda(rng, ("nu",))
            back = LambdaPoly.zero(("nu",))
            for n, m in p.extract_nth():
                back = back + LambdaPoly.of(("nu",), m.scale(Q(1, factorial(n))), (n,))
            assert back == p


class TestExactness:
    def test_add_sub_roundtrip(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rand_lambda(rng, ("lam", "mu"))
            q = rand_lambda(rng, ("lam", "mu"))
            assert (p + q) - q == p

    def test_non_rational_rejected(self):
        with pytest.raises(TypeError):
            DPoly.const(0.5)


class TestHelpers:
    def test_gen_binom_matches_comb(self):
        from math import comb

        for m in range(0, 9):
            for j in range(0, 10):
                assert gen_binom(m, j) == comb(m, j)

    def test_gen_binom_negative(self):
        assert gen_binom(-1, 2) == 1
        assert gen_binom(-2, 1) == -2
        assert gen_binom(-2, 3) == Q(-2 * -3 * -4, 6)

    def test_shifted_action(self):
        # (D + lam)^2 e = D^2 e + 2 lam D e + lam^2 e
        v = LambdaPoly.of(("lam",), ModElement.of(E1))
        got = shifted_action(v, "lam", 2)
        want = lp(
            ("lam",),
            ((0,), ModElement.of(E1, DPoly.d_power(2))),
            ((1,), ModElement.of(E1, DPoly.d_power(1, 2))),
            ((2,), ModElement.of(E1)),
        )
        assert got == want

    def test_multi_shifted_action_matches_iterated(self):
        rng = random.Random(19)
        for _ in range(15):
            v = rand_lambda(rng, ("a", "b"))
            got = multi_shifted_action(v, ("a", "b"), 2)
            step = shifted_action(shifted_action(v, "a", 1), "a", 1)
            # (D+a+b)^2 expanded manually via subst on a fresh variable
            direct = LambdaPoly.zero(v.context)
            from math import comb as c2

            # (D+a+b)^2 = sum over (i,j,k), i+j+k=2 of multinomials
            from conformal_kernel.symcore import _compositions

            for ka, kb, kd in _compositions(2, 3):
                coeff = 2
                from math import factorial

                coeff = factorial(2) // (factorial(ka) * factorial(kb) * factorial(kd))
                t = v.apply_mod(lambda m, kd=kd: m.d_apply(kd)).scale(coeff)
                t = t.mul_var("a", ka).mul_var("b", kb) if (ka or kb) else t
                direct = direct + t
            assert got == direct

    def test_align_and_subst_linear(self):
        p = lp(("t",), ((1,), ModElement.of(E1)))
        q = substitute(p, {"t": ({"lam": Q(1), "mu": Q(1)}, 0)}, ("lam", "mu"))
        want = lp(("lam", "mu"), ((1, 0), ModElement.of(E1)), ((0, 1), ModElement.of(E1)))
        assert q == want


def rand_subst_input(rng, ctx, subst, max_exp=4):
    """Random polynomial whose substituted variables reach degree max_exp."""
    out = LambdaPoly.zero(ctx)
    for _ in range(rng.randint(1, 6)):
        exp = tuple(rng.randint(0, max_exp if v in subst else 2) for v in ctx)
        out = out + LambdaPoly.of(ctx, rand_mod(rng), exp)
    return out


def _rat(sympy, c):
    c = Q(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(sympy, p):
    """Independent reading of a LambdaPoly through its public ``flat`` view:
    D and the generators become commuting symbols."""
    D = sympy.Symbol("D")
    expr = sympy.Integer(0)
    for exp, g, k, c in p.flat():
        mono = sympy.Integer(1)
        for v, e in zip(p.context, exp):
            mono *= sympy.Symbol(v) ** e
        expr += _rat(sympy, c) * mono * D ** k * sympy.Symbol(repr(g))
    return sympy.expand(expr)


def mod_to_sympy(sympy, me):
    """A ModElement read through ``items()``: sum over g of p(D) * g."""
    expr = sympy.Integer(0)
    for g, dp in me.items():
        expr += dpoly_to_sympy(sympy, dp) * sympy.Symbol(repr(g))
    return sympy.expand(expr)


def dpoly_to_sympy(sympy, dp):
    D = sympy.Symbol("D")
    return sum((_rat(sympy, c) * D ** k for k, c in dp), sympy.Integer(0))


class TestSubstMany:
    CTX = ("a", "b", "c", "u", "v")

    def test_matches_independent_expansion(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        scalars = [Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3)]
        for trial in range(12):
            subst = rng.sample(["a", "b", "c"], rng.randint(1, 3))
            subs = {}
            for v in subst:
                targets = {u: rng.choice(scalars) for u in rng.sample(["u", "v"], rng.randint(0, 2))}
                subs[v] = (targets, rng.choice(scalars))
            # cycle through a multi-target form with a D coefficient, a
            # single non-unit target and a pure D form
            subs[subst[0]] = [({"u": Q(2, 3), "v": -1}, Q(-1, 2)),
                              ({"v": Q(-2, 3)}, 0),
                              ({}, Q(2))][trial % 3]
            p = rand_subst_input(rng, self.CTX, subst)
            rest = tuple(v for v in self.CTX if v not in subs)
            got = substitute(p, subs, rest)
            assert got.context == rest
            D = sympy.Symbol("D")
            repl = {}
            for v, (targets, dco) in subs.items():
                form = sympy.Rational(Q(dco).numerator, Q(dco).denominator) * D
                for u, c in targets.items():
                    form += sympy.Rational(c.numerator, c.denominator) * sympy.Symbol(u)
                repl[sympy.Symbol(v)] = form
            want = sympy.expand(to_sympy(sympy, p).xreplace(repl))
            assert sympy.expand(to_sympy(sympy, got) - want) == 0, (p, subs)
            # one variable at a time gives the same value
            seq = p
            for v, form in subs.items():
                seq = substitute(seq, {v: form}, tuple(u for u in seq.context if u != v))
            assert seq == got

    def test_swap(self):
        # source and target contexts are separate: a <-> b needs no temporaries
        sympy = pytest.importorskip("sympy")
        rng = random.Random(53)
        a, b, D = sympy.symbols("a b D")
        for _ in range(8):
            p = rand_subst_input(rng, ("a", "b", "u"), ("a", "b"))
            swapped = substitute(p, {"a": ({"b": 1}, 0), "b": ({"a": 1}, 0)}, ("a", "b", "u"))
            want = to_sympy(sympy, p).xreplace({a: b, b: a})
            assert sympy.expand(to_sympy(sympy, swapped) - want) == 0, p
            assert substitute(swapped, {"a": ({"b": 1}, 0), "b": ({"a": 1}, 0)},
                              ("a", "b", "u")) == p
            # a swap with a D term: a -> b, b -> a - D
            got = substitute(p, {"a": ({"b": 1}, 0), "b": ({"a": 1}, -1)}, ("a", "b", "u"))
            want = to_sympy(sympy, p).xreplace({a: b, b: a - D})
            assert sympy.expand(to_sympy(sympy, got) - want) == 0, p

    def test_missing_variables_raise(self):
        p = lp(("a", "u"), ((2, 1), ModElement.of(E1)))
        with pytest.raises(ValueError, match="variable w missing"):
            substitute(p, {"a": ({"w": 1}, 0)}, ("u",))          # target not in context
        with pytest.raises(ValueError, match="variable a missing"):
            substitute(p, {"a": ({"a": 1}, 0)}, ("u",))          # target is substituted
        with pytest.raises(ValueError, match="substituted variable z"):
            substitute(p, {"z": ({"u": 1}, 0)}, ("a", "u"))      # substituted var absent
        with pytest.raises(ValueError, match="substituted variable z"):
            substitute(p, {"z": ({"u": 1}, 0)}, ("u",))
        with pytest.raises(ValueError, match="variable u missing"):
            substitute(p, {"a": ({}, 1)}, ("a",))                # u left out, absent from ctx


class TestSympyOracle:
    """The kernel's operations rebuilt in commuting symbols on small seeded
    inputs: D and the generators are sympy symbols, so D^k g reads as the
    product D**k * g and the Q[D]-action is multiplication."""

    @pytest.fixture
    def sympy(self):
        return pytest.importorskip("sympy")

    def test_pair_sesquilinearity(self, sympy):
        # (f(D) g1)_L (h(D) g2) = f(-L) h(D + L) (g1_L g2)
        D, Lsym, v = sympy.symbols("D L " + RULE_VAR)
        rng = random.Random(23)
        for _ in range(8):
            table = {(g1, g2): rand_lambda(rng, (RULE_VAR,)) for g1 in (E1, E2) for g2 in (E1, E2)}
            rule = StructureRule.from_table("product", table)
            U, W = rand_lambda(rng, ("a",)), rand_lambda(rng, ("a",))
            u, w = to_sympy(sympy, U), to_sympy(sympy, W)
            want = sympy.Integer(0)
            for (g1, g2), val in table.items():
                f = u.coeff(sympy.Symbol(repr(g1))).xreplace({D: -Lsym})
                h = w.coeff(sympy.Symbol(repr(g2))).xreplace({D: D + Lsym})
                want += f * h * to_sympy(sympy, val).xreplace({v: Lsym})
            got = pair(rule, U, W, "L")
            assert got.context == ("a", "L")
            assert sympy.expand(to_sympy(sympy, got) - want) == 0, (U, W)

    def test_subst_dagger(self, sympy):
        D, nu, lam, mu = sympy.symbols("D nu lam mu")
        rng = random.Random(29)
        for _ in range(10):
            p = rand_lambda(rng, ("nu",))
            want = to_sympy(sympy, p).xreplace({nu: -lam - mu - D})
            got = subst_dagger(p, ("lam", "mu"))
            assert sympy.expand(to_sympy(sympy, got) - want) == 0, p

    def test_shifted_actions(self, sympy):
        D, lam, mu = sympy.symbols("D lam mu")
        rng = random.Random(31)
        for _ in range(6):
            p = rand_lambda(rng, ("lam", "mu"))
            ps = to_sympy(sympy, p)
            for k in range(4):
                got = to_sympy(sympy, shifted_action(p, "mu", k))
                assert sympy.expand(got - (D + mu) ** k * ps) == 0, (p, k)
                got = to_sympy(sympy, multi_shifted_action(p, ("lam", "mu"), k))
                assert sympy.expand(got - (D + lam + mu) ** k * ps) == 0, (p, k)

    def test_mod_element_arithmetic_and_linear_rule(self, sympy):
        D = sympy.Symbol("D")
        rng = random.Random(37)
        images = {E1: rand_mod(rng), E2: rand_mod(rng)}
        rule = LinearRule(images.__getitem__)

        def S(me):
            return mod_to_sympy(sympy, me)

        for _ in range(12):
            a, b = rand_mod(rng), rand_mod(rng)
            c = Q(rng.randint(-4, 4), rng.randint(1, 3))
            dp = rand_dpoly(rng)
            k = rng.randint(0, 3)
            assert sympy.expand(S(a + b) - S(a) - S(b)) == 0
            assert sympy.expand(S(a - b) - S(a) + S(b)) == 0
            assert sympy.expand(S(-a) + S(a)) == 0 and (a - a).is_zero()
            assert sympy.expand(S(a.scale(c)) - _rat(sympy, c) * S(a)) == 0
            assert sympy.expand(S(a.d_apply(k)) - D ** k * S(a)) == 0
            assert sympy.expand(S(ModElement.combine((a, j, d) for j, d in dp))
                                - dpoly_to_sympy(sympy, dp) * S(a)) == 0
            # a Q[D]-module map: sum over g of (coefficient of g)(D) * image(g)
            want = sum((S(a).coeff(sympy.Symbol(repr(g))) * S(img) for g, img in images.items()),
                       sympy.Integer(0))
            assert sympy.expand(S(rule.apply(a)) - want) == 0, a

    # -- pairing at linear forms, and signed sums of pairings

    GENS = (E1, E2)

    def small_lambda(self, rng, ctx, terms=2):
        """1 to `terms` nonzero terms, exponents and D-powers up to 1 and 2."""
        out = LambdaPoly.zero(ctx)
        for _ in range(rng.randint(1, terms)):
            dp = DPoly([Q(rng.randint(-3, 3) or 1, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
            me = ModElement.of(rng.choice(self.GENS), dp)
            out = out + LambdaPoly.of(ctx, me, tuple(rng.randint(0, 1) for _ in ctx))
        return out

    def rand_rule(self, rng, kind="product"):
        table = {(g1, g2): self.small_lambda(rng, (RULE_VAR,))
                 for g1 in self.GENS for g2 in self.GENS}
        return StructureRule.from_table(kind, table), table

    def sym_pair(self, sympy, table, u, w, form):
        """u op_f w for expressions linear in the generator symbols: the
        D's of u's coefficient become -f, those of w's become D + f, and
        the rule variable becomes f."""
        D, v = sympy.symbols("D " + RULE_VAR)
        out = sympy.Integer(0)
        for (g1, g2), val in table.items():
            cu = u.coeff(sympy.Symbol(repr(g1))).xreplace({D: -form})
            cw = w.coeff(sympy.Symbol(repr(g2))).xreplace({D: D + form})
            out += cu * cw * to_sympy(sympy, val).xreplace({v: form})
        return sympy.expand(out)

    def sym_form(self, sympy, form):
        coeffs, d = form
        return d * sympy.Symbol("D") + sum((c * sympy.Symbol(u) for u, c in coeffs.items()),
                                           sympy.Integer(0))

    @pytest.mark.parametrize("uw_ctx, form, ctx", [
        (("lam",), ({"lam": 1, "mu": 1}, 0), ("lam", "mu")),             # lambda + mu
        (("a",), ({"lam": -1}, -1), ("a", "lam")),                       # -lambda - D
        (("a",), ({"c1": -1, "c2": -1, "c3": -1}, -1), ("c1", "a", "c2", "c3")),
        (("a",), ({}, -1), ("a",)),                                      # -D
        ((), ({}, -1), ()),
    ])
    def test_pair_at_forms(self, sympy, uw_ctx, form, ctx):
        rng = random.Random(43 + len(ctx))
        f = self.sym_form(sympy, form)
        for _ in range(4):
            rule, table = self.rand_rule(rng)
            U, W = self.small_lambda(rng, uw_ctx, 3), self.small_lambda(rng, uw_ctx, 3)
            got = pair_at(rule, U, W, form, ctx)
            assert got.context == ctx
            want = self.sym_pair(sympy, table, to_sympy(sympy, U), to_sympy(sympy, W), f)
            assert sympy.expand(to_sympy(sympy, got) - want) == 0, (U, W, form)

    def test_signed_sums_of_pairings(self, sympy):
        # each residual is a signed sum of nested pairings in one value
        from conformal_kernel.algebra import _pair_comm_residual, poisson_laws

        Ls, Ms = sympy.symbols("L M")
        rng = random.Random(47)
        for _ in range(3):
            (prod, tp), (br, tb) = self.rand_rule(rng), self.rand_rule(rng, "bracket")
            a, b, c = (self.small_lambda(rng, ()).coefficient(()) for _ in range(3))
            sa, sb, sc = (mod_to_sympy(sympy, x) for x in (a, b, c))
            laws = {name: fn for name, _, fn in poisson_laws(prod, br, "poisson")}

            def P(t, u, w, f):
                return self.sym_pair(sympy, t, u, w, f)

            def S(value):
                return to_sympy(sympy, value)

            assoc = P(tp, sa, P(tp, sb, sc, Ms), Ls) - P(tp, P(tp, sa, sb, Ls), sc, Ls + Ms)
            assert sympy.expand(S(laws["associativity"](a, b, c)) - assoc) == 0
            jac = (P(tb, sa, P(tb, sb, sc, Ms), Ls) - P(tb, P(tb, sa, sb, Ls), sc, Ls + Ms)
                   - P(tb, sb, P(tb, sa, sc, Ls), Ms))
            assert sympy.expand(S(laws["jacobi"](a, b, c)) - jac) == 0
            leib = (P(tb, sa, P(tp, sb, sc, Ms), Ls) - P(tp, P(tb, sa, sb, Ls), sc, Ls + Ms)
                    - P(tp, sb, P(tb, sa, sc, Ls), Ms))
            assert sympy.expand(S(laws["leibniz"](a, b, c)) - leib) == 0
            dagger = -Ls - sympy.Symbol("D")
            for sign in (1, -1):
                comm = P(tp, sa, sb, Ls) - sign * P(tp, sb, sa, dagger)
                assert sympy.expand(S(_pair_comm_residual(prod, sign, a, b)) - comm) == 0

    # -- every residual of a sweep against its displayed formula

    FAMILY = GenFamily("e", 1, 1, 2)  # members E1 and E2 at window 2

    def rand_ord_rule(self, rng):
        """A random ordinary table (D-free values) and its rule table."""
        table = {}
        for g1 in self.GENS:
            for g2 in self.GENS:
                table[(g1, g2)] = ModElement.zero()
                for g in rng.sample(self.GENS, rng.randint(1, 2)):
                    table[(g1, g2)] += ModElement.of(g, DPoly.const(Q(rng.randint(-3, 3) or 1)))
        lifted = {k: LambdaPoly.of((RULE_VAR,), v) for k, v in table.items()}
        return ord_table(table), lifted

    def assert_sweep(self, sympy, report, arity, want):
        """A witness on exactly the tuples where want(*symbols) is nonzero,
        equal to it there; every tuple of the window is checked."""
        tuples = list(itertools.product([ModElement.of(g) for g in self.GENS], repeat=arity))
        got = {t: to_sympy(sympy, r) for t, r in report.witnesses}
        assert (report.checked, report.escaped) == (len(tuples), 0), report
        assert got, report  # random rules: the law fails somewhere
        for t in tuples:
            w = want(*(mod_to_sympy(sympy, x) for x in t))
            assert sympy.expand(got.get(t, 0) - w) == 0, (report.name, t)

    @pytest.fixture
    def all_witnesses(self, monkeypatch):
        from conformal_kernel import algebra
        monkeypatch.setattr(algebra, "MAX_WITNESSES", 100)

    def laws(self, sympy):
        """P(table, u, w, form) and the variables L, M."""
        Ls, Ms = sympy.symbols("L M")
        return (lambda t, u, w, f: self.sym_pair(sympy, t, u, w, f)), Ls, Ms

    def test_module_laws(self, sympy, all_witnesses):
        from conformal_kernel.constructors import ConformalModule, check_module

        P, Ls, Ms = self.laws(sympy)
        dag = -Ms - sympy.Symbol("D")
        rng = random.Random(53)
        (prod, tp), (br, tb) = self.rand_rule(rng), self.rand_rule(rng, "bracket")
        (lft, tl), (rgt, tr), (lie, tq) = (self.rand_rule(rng, k) for k in ("left", "right", "lie"))
        alg = ConformalAlgebra("r", [self.FAMILY], prod, br, KIND_NC_POISSON)
        mod = ConformalModule("m", [self.FAMILY], lft, rgt, lie)
        want = {
            "module_assoc_left": lambda a, b, c: P(tl, P(tp, a, b, Ls), c, Ls + Ms) - P(tl, a, P(tl, b, c, Ms), Ls),
            "module_assoc_right": lambda v, a, b: P(tr, P(tr, v, a, Ls), b, Ls + Ms) - P(tr, v, P(tp, a, b, Ms), Ls),
            "module_assoc_mixed": lambda a, v, b: P(tr, P(tl, a, v, Ls), b, Ls + Ms) - P(tl, a, P(tr, v, b, Ms), Ls),
            "module_lie": lambda a, b, v: (P(tq, P(tb, a, b, Ls), v, Ls + Ms) - P(tq, a, P(tq, b, v, Ms), Ls)
                                           + P(tq, b, P(tq, a, v, Ls), Ms)),
            "module_poisson_bracket_left": lambda a, b, v: (
                P(tl, P(tb, a, b, Ls), v, Ls + Ms) - P(tq, a, P(tl, b, v, Ms), Ls) + P(tl, b, P(tq, a, v, Ls), Ms)),
            "module_poisson_bracket_right": lambda v, a, b: (
                P(tr, v, P(tb, a, b, Ls), Ms) - P(tq, a, P(tr, v, b, Ms), Ls) + P(tr, P(tq, a, v, Ls), b, Ls + Ms)),
            "module_poisson_product_action": lambda a, b, v: (
                P(tq, P(tp, a, b, Ls), v, dag) - P(tl, a, P(tq, b, v, dag), Ls)
                - P(tr, P(tq, a, v, dag), b, Ls + Ms)),
        }
        reports = check_module(alg, mod, 2)
        assert [r.name for r in reports] == list(want)
        for r in reports:
            self.assert_sweep(sympy, r, 3, want[r.name])

    def test_gd_and_pgd_laws(self, sympy, all_witnesses):
        from conformal_kernel.constructors import OrdinaryAlgebra, check_gd, check_pgd

        P, Ls, Ms = self.laws(sympy)
        rng = random.Random(59)
        (star, ts), (prod, tp), (br, tb) = (self.rand_ord_rule(rng) for _ in range(3))
        ord_ = OrdinaryAlgebra("r", [self.FAMILY], product=prod, bracket=br, star=star)

        def assoc(t, a, b, c):
            return P(t, a, P(t, b, c, Ms), Ls) - P(t, P(t, a, b, Ls), c, Ls + Ms)

        r = sympy.Symbol("·r")
        want = {
            "novikov_right_commute": lambda a, b, c: (P(ts, P(ts, a, b, Ls), c, Ls + Ms)
                                                      - P(ts, P(ts, a, c, Ls), b, Ls + Ms)),
            "novikov_left_symmetry": lambda a, b, c: assoc(ts, b, a, c) - assoc(ts, a, b, c),
            "gd_compatibility": lambda a, b, c: (
                P(tb, P(ts, a, b, Ls), c, Ls + Ms) + P(ts, P(tb, a, b, Ls), c, Ls + Ms)
                - P(ts, a, P(tb, b, c, Ms), Ls) - P(tb, P(ts, a, c, Ls), b, Ls + Ms)
                - P(ts, P(tb, a, c, Ls), b, Ls + Ms)),
            # both equalities of (b o c) * a = b o (c * a) = (b * a) o c, as rows
            "pgd_right_compat": lambda a, b, c: (
                P(ts, P(tp, b, c, Ls), a, Ls + Ms) - P(tp, b, P(ts, c, a, Ms), Ls)
                + r * (P(ts, P(tp, b, c, Ls), a, Ls + Ms) - P(tp, P(ts, b, a, Ls), c, Ls + Ms))),
            "pgd_left_derivation": lambda a, b, c: (
                P(ts, a, P(tp, b, c, Ms), Ls) - P(tp, P(ts, a, b, Ls), c, Ls + Ms)
                - P(tp, b, P(ts, a, c, Ls), Ms)),
        }
        reports = {r.name: r for r in check_pgd(ord_, 2)}
        for name, law in want.items():
            self.assert_sweep(sympy, reports[name], 3, law)

    def test_linear_deformation_cross_laws(self, sympy, all_witnesses):
        from conformal_kernel.deform import linear_deformation_check

        P, Ls, Ms = self.laws(sympy)
        rng = random.Random(61)
        (prod, tp), (br, tb) = self.rand_rule(rng), self.rand_rule(rng, "bracket")
        (varpi, tv), (omega, tw) = self.rand_rule(rng), self.rand_rule(rng, "bracket")
        alg = ConformalAlgebra("r", [self.FAMILY], prod, br, KIND_NC_POISSON)
        want = {
            "cross_product_cocycle": lambda a, b, c: (
                P(tv, a, P(tp, b, c, Ms), Ls) + P(tp, a, P(tv, b, c, Ms), Ls)
                - P(tv, P(tp, a, b, Ls), c, Ls + Ms) - P(tp, P(tv, a, b, Ls), c, Ls + Ms)),
            "cross_bracket_cocycle": lambda a, b, c: (
                P(tw, P(tb, a, b, Ls), c, Ls + Ms) - P(tw, a, P(tb, b, c, Ms), Ls)
                + P(tw, b, P(tb, a, c, Ls), Ms) - P(tb, a, P(tw, b, c, Ms), Ls)
                + P(tb, P(tw, a, b, Ls), c, Ls + Ms) + P(tb, b, P(tw, a, c, Ls), Ms)),
            "cross_mixed_cocycle": lambda a, b, c: (
                P(tb, a, P(tv, b, c, Ms), Ls) - P(tv, P(tb, a, b, Ls), c, Ls + Ms)
                - P(tv, b, P(tb, a, c, Ls), Ms) - P(tp, P(tw, a, b, Ls), c, Ls + Ms)
                - P(tp, b, P(tw, a, c, Ls), Ms) + P(tw, a, P(tp, b, c, Ms), Ls)),
        }
        reports = {r.name: r for r in linear_deformation_check(alg, varpi, omega, 2)}
        for name, law in want.items():
            self.assert_sweep(sympy, reports[name], 3, law)

    def test_convolution_and_obstruction(self, sympy):
        from conformal_kernel.algebra import associator, nested_sum, order_part
        from conformal_kernel.deform import DeformationSeries, obstruction

        P, Ls, Ms = self.laws(sympy)
        rng = random.Random(67)
        rules = [self.rand_rule(rng) for _ in range(3)]
        mu, t = [r for r, _ in rules], [t for _, t in rules]
        ds = DeformationSeries(ConformalAlgebra("r", [self.FAMILY], mu[0], kind=KIND_ASSOCIATIVE), mu[1:])
        for n in (1, 2):
            for _ in range(2):
                a, b, c = (self.small_lambda(rng, ()).coefficient(()) for _ in range(3))
                sa, sb, sc = (mod_to_sympy(sympy, x) for x in (a, b, c))
                conv = sum((P(t[r], sa, P(t[n - r], sb, sc, Ms), Ls)
                            - P(t[r], P(t[n - r], sa, sb, Ls), sc, Ls + Ms) for r in range(n + 1)),
                           sympy.Integer(0))
                got = to_sympy(sympy, nested_sum(order_part(associator(mu[0]), ds.series, n), a, b, c).build())
                assert sympy.expand(got - conv) == 0, (n, a, b, c)
        theta = obstruction(ds)  # theta_2, a sum over r + s = 3 with r, s >= 1
        for gens in itertools.product(self.GENS, repeat=3):
            sa, sb, sc = (sympy.Symbol(repr(g)) for g in gens)
            want = sum((P(t[r], P(t[3 - r], sa, sb, Ls), sc, Ls + Ms)
                        - P(t[r], sa, P(t[3 - r], sb, sc, Ms), Ls) for r in (1, 2)),
                       sympy.Integer(0))
            got = to_sympy(sympy, theta.value(gens).rename_context(("L", "M")))
            assert sympy.expand(got - want) == 0, gens
