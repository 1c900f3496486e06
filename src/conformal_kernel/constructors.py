"""Builders that turn ordinary algebraic data into conformal algebras, plus
conformal modules, their axiom checkers, and semidirect products.

Ordinary (non-conformal) algebras are presented the same way as conformal
ones (tables on generator pairs) except that values are plain module
elements with constant coefficients (no D, no spectral variables).  Such a
table is a conformal structure rule that is constant in its spectral
variable, so the ordinary axioms are checked with the conformal evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .algebra import (
    RULE_VAR,
    CheckReport,
    ConformalAlgebra,
    GenFamily,
    KIND_NC_POISSON,
    KIND_POISSON,
    LinearRule,
    PreconditionFailed,
    StructureRule,
    WindowEscape,
    _pair_comm_residual,
    _pair_into,
    _triple_assoc_residual,
    _triple_jacobi_residual,
    _triple_leibniz_residual,
    const_lp,
    eval_op,
    inner_first,
    outer_first,
    pair,
    pair_at,
    run_tuple_check,
    stack_rows,
    suite_fails,
    swapped,
    window_generators,
)
from .symcore import Accumulator, GenIndex, LambdaPoly, ModElement

OrdRule = Callable[[GenIndex, GenIndex], ModElement | None]

L, M = "L", "M"


# ---------------------------------------------------------------------------
# ordinary algebras
# ---------------------------------------------------------------------------

@dataclass
class OrdinaryAlgebra:
    """Finite-basis (or windowed-family) ordinary algebra data.

    Any of the operations may be absent; checkers demand what they need.
    Values must be D-free module elements.
    """

    name: str
    families: list[GenFamily]
    product: OrdRule | None = None
    bracket: OrdRule | None = None
    star: OrdRule | None = None
    derivation: LinearRule | None = None

    def generators(self, window: int) -> list[GenIndex]:
        return window_generators(self.families, window)


def ord_table(table: dict[tuple[GenIndex, GenIndex], ModElement], total: bool = True) -> OrdRule:
    def fn(g1, g2):
        v = table.get((g1, g2))
        if v is None:
            return ModElement.zero() if total else None
        return v
    return fn


def _lift(rule: OrdRule | None, kind: str) -> StructureRule | None:
    """An ordinary table as a lambda-free structure rule; None stays a window
    escape, and a D-dependent value is refused."""
    if rule is None:
        return None

    def fn(g1, g2):
        v = rule(g1, g2)
        return None if v is None else LambdaPoly.of((RULE_VAR,), _d_free(v))
    return StructureRule(kind, fn)


def _d_free(v: ModElement) -> ModElement:
    if any(k > 0 for _, k in v.bucket):
        raise ValueError("ordinary algebra element has a D-dependent coefficient")
    return v


def _sweep(ord_: OrdinaryAlgebra, window: int, checks) -> list[CheckReport]:
    """run_tuple_check of each (name, arity, residual) over all arity-tuples
    of the window's generators."""
    gens = [ModElement.of(g) for g in ord_.generators(window)]
    return [run_tuple_check(name, itertools.product(gens, repeat=k), fn)
            for name, k, fn in checks]


# ordinary axiom sweeps: an ordinary algebra is a conformal algebra with
# lambda-free rules, so each axiom is a signed sum of the associator terms,
# every one of them constant in (L, M)

def check_ordinary_poisson(ord_: OrdinaryAlgebra, window: int, commutative: bool = True) -> list[CheckReport]:
    prod, br = _lift(ord_.product, "product"), _lift(ord_.bracket, "bracket")
    # (ab)c - a(bc): the witnesses of ord_associativity carry this sign
    checks = [("ord_associativity", 3, lambda a, b, c: -_triple_assoc_residual(prod, a, b, c))]
    if commutative:
        checks.append(("ord_commutativity", 2, partial(_pair_comm_residual, prod, +1)))
    checks += [
        ("ord_antisymmetry", 2, partial(_pair_comm_residual, br, -1)),
        ("ord_jacobi", 3, partial(_triple_jacobi_residual, br)),
        ("ord_leibniz", 3, partial(_triple_leibniz_residual, prod, br)),
    ]
    return _sweep(ord_, window, checks)


def check_gd(ord_: OrdinaryAlgebra, window: int = 3) -> list[CheckReport]:
    """Novikov + Lie + Gel'fand-Dorfman compatibility."""
    star, br = _lift(ord_.star, "star"), _lift(ord_.bracket, "bracket")

    def right_commute(a, b, c):  # (a * b) * c = (a * c) * b
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        acc = Accumulator((L, M))
        outer_first(acc, star, pair(star, A, B, L), C)
        outer_first(acc, star, pair(star, A, C, L), B, -1)
        return acc.build()

    def gd(a, b, c):  # [a * b, c] + [a, b] * c = a * [b, c] + [a * c, b] + [a, c] * b
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        acc = Accumulator((L, M))
        outer_first(acc, br, pair(star, A, B, L), C)
        outer_first(acc, star, pair(br, A, B, L), C)
        inner_first(acc, star, A, pair(br, B, C, M), -1)
        outer_first(acc, br, pair(star, A, C, L), B, -1)
        outer_first(acc, star, pair(br, A, C, L), B, -1)
        return acc.build()

    return _sweep(ord_, window, [
        ("novikov_right_commute", 3, right_commute),
        ("novikov_left_symmetry", 3, lambda a, b, c: (_triple_assoc_residual(star, b, a, c)
                                                      - _triple_assoc_residual(star, a, b, c))),
        ("lie_antisymmetry", 2, partial(_pair_comm_residual, br, -1)),
        ("lie_jacobi", 3, partial(_triple_jacobi_residual, br)),
        ("gd_compatibility", 3, gd),
    ])


def check_pgd(ord_: OrdinaryAlgebra, window: int = 3, commutative: bool = True) -> list[CheckReport]:
    """GD + ordinary Poisson + the two product/star compatibility laws."""
    star, prod = _lift(ord_.star, "star"), _lift(ord_.product, "product")

    def right_compat(a, b, c):
        # both equalities of (b o c) * a = b o (c * a) = (b * a) o c, as rows
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        rows = [Accumulator((L, M)), Accumulator((L, M))]
        for acc in rows:
            outer_first(acc, star, pair(prod, B, C, L), A)
        inner_first(rows[0], prod, B, pair(star, C, A, M), -1)
        outer_first(rows[1], prod, pair(star, B, A, L), C, -1)
        return stack_rows([acc.build() for acc in rows])

    return check_gd(ord_, window) + check_ordinary_poisson(ord_, window, commutative) + _sweep(
        ord_, window, [
            ("pgd_right_compat", 3, right_compat),
            # a * (b o c) = (a * b) o c + b o (a * c): the Leibniz shape
            ("pgd_left_derivation", 3, partial(_triple_leibniz_residual, prod, star)),
        ])


def check_derivation(ord_: OrdinaryAlgebra, D: LinearRule, window: int = 3) -> list[CheckReport]:
    def on(rule):  # D(a op b) = D(a) op b + a op D(b)
        def residual(a, b):
            A, B = const_lp(a), const_lp(b)
            acc = Accumulator((L,))
            acc.add_lp(D.apply_lp(pair(rule, A, B, L)))
            _pair_into(acc, rule, const_lp(_d_free(D.apply(a))), B, ({L: 1}, 0), -1)
            _pair_into(acc, rule, A, const_lp(_d_free(D.apply(b))), ({L: 1}, 0), -1)
            return acc.build()
        return residual

    checks = [(f"derivation_on_{kind}", 2, on(_lift(rule, kind)))
              for kind, rule in (("product", ord_.product), ("bracket", ord_.bracket))
              if rule is not None]
    return _sweep(ord_, window, checks)


# ---------------------------------------------------------------------------
# conformal algebras from ordinary data
# ---------------------------------------------------------------------------

def current_algebra(ord_: OrdinaryAlgebra, kind: str = KIND_POISSON) -> ConformalAlgebra:
    """P = Q[D] (x) A with lambda-independent structure rules."""
    return ConformalAlgebra(
        f"current({ord_.name})", list(ord_.families),
        product=_lift(ord_.product or ord_table({}), "product"),
        bracket=_lift(ord_.bracket or ord_table({}), "bracket"),
        kind=kind,
    )


def quadratic_from_pgd(ord_: OrdinaryAlgebra, window: int = 3, kind: str = KIND_POISSON,
                       precheck: bool = True) -> ConformalAlgebra:
    """Current product plus quadratic bracket D(b*a) + L(a*b + b*a) + [b,a]."""
    if precheck:
        reports = check_pgd(ord_, window, commutative=(kind == KIND_POISSON))
        if suite_fails(reports):
            raise PreconditionFailed("PGD axioms fail", reports)
    star = ord_.star
    br = ord_.bracket or ord_table({})

    def bfn(g1, g2):
        ba = star(g2, g1)
        ab = star(g1, g2)
        lie = br(g2, g1)
        if ba is None or ab is None or lie is None:
            return None
        out = LambdaPoly.of((RULE_VAR,), ba.d_apply(1) + lie, (0,))
        return out + LambdaPoly.of((RULE_VAR,), ab + ba, (1,))

    return ConformalAlgebra(
        f"quadratic({ord_.name})", list(ord_.families),
        product=_lift(ord_.product, "product"),
        bracket=StructureRule("bracket", bfn),
        kind=kind,
    )


def pgd_from_derivation(ord_: OrdinaryAlgebra, D: LinearRule) -> OrdinaryAlgebra:
    """Attach the Novikov product a*b = a o D(b) to a Poisson algebra."""
    prod = _lift(ord_.product, "product")

    def star(g1, g2):
        return eval_op(prod, ModElement.of(g1), _d_free(D.entry(g2))).coefficient((0,))

    return OrdinaryAlgebra(f"{ord_.name}*D", list(ord_.families),
                           product=ord_.product, bracket=ord_.bracket or ord_table({}),
                           star=star, derivation=D)


def from_derivation(ord_: OrdinaryAlgebra, D: LinearRule, window: int = 3,
                    kind: str = KIND_POISSON) -> ConformalAlgebra:
    """Quadratic Poisson conformal algebra of a Poisson algebra with derivation."""
    reports = check_derivation(ord_, D, window)
    if suite_fails(reports):
        raise PreconditionFailed("D is not a derivation", reports)
    pgd = pgd_from_derivation(ord_, D)
    return quadratic_from_pgd(pgd, window, kind, precheck=False)


def direct_sum(p1: ConformalAlgebra, p2: ConformalAlgebra,
               prefixes: tuple[str, str] = ("1.", "2.")) -> ConformalAlgebra:
    """Componentwise structure on the disjoint union; cross terms vanish."""
    def remap(families, prefix):
        return [GenFamily(prefix + f.name, f.arity, f.lo, f.hi) for f in families]

    def side_of(g: GenIndex):
        for i, pre in enumerate(prefixes):
            if g.family.startswith(pre):
                return i, GenIndex(g.family[len(pre):], g.params)
        raise ValueError(f"generator {g} belongs to neither summand")

    def lift(rule_pair, kindname):
        def fn(g1, g2):
            s1, b1 = side_of(g1)
            s2, b2 = side_of(g2)
            if s1 != s2:
                return LambdaPoly.zero((RULE_VAR,))
            v = rule_pair[s1].entry(b1, b2)
            if v is None:
                return None
            return v.apply_mod(lambda me: me.relabel(
                lambda g: GenIndex(prefixes[s1] + g.family, g.params)))
        return StructureRule(kindname, fn)

    kind = p1.kind if p1.kind == p2.kind else KIND_NC_POISSON
    return ConformalAlgebra(
        f"({p1.name})(+)({p2.name})",
        remap(p1.families, prefixes[0]) + remap(p2.families, prefixes[1]),
        product=lift((p1.product, p2.product), "product"),
        bracket=lift((p1.bracket, p2.bracket), "bracket"),
        kind=kind,
    )


# ---------------------------------------------------------------------------
# conformal modules
# ---------------------------------------------------------------------------

ASSOC_MODULE = "assoc_module"
LIE_MODULE = "lie_module"
POISSON_MODULE = "poisson_module"


@dataclass
class ConformalModule:
    """Module data over a conformal algebra.

    ``left``  : (a, v) -> a o_L v        (A x V -> V[L])
    ``right`` : (v, a) -> v o_L a        (V x A -> V[L])
    ``lie``   : (a, v) -> a_L v          (A x V -> V[L])
    """

    name: str
    families: list[GenFamily]
    left: StructureRule | None = None
    right: StructureRule | None = None
    lie: StructureRule | None = None
    kind: str = POISSON_MODULE

    def generators(self, window: int) -> list[GenIndex]:
        return window_generators(self.families, window)


def adjoint_module(alg: ConformalAlgebra) -> ConformalModule:
    """(A; L, R, ad): left/right lambda-multiplication and the adjoint action."""
    kind = POISSON_MODULE
    if alg.bracket is None:
        kind = ASSOC_MODULE
    elif alg.product is None:
        kind = LIE_MODULE
    return ConformalModule(
        f"adjoint({alg.name})", list(alg.families),
        left=alg.product, right=alg.product, lie=alg.bracket, kind=kind,
    )


def check_module(alg: ConformalAlgebra, mod: ConformalModule, window: int = 3) -> list[CheckReport]:
    """Verify the module axiom set matching the declared kind on the window."""
    agens = [ModElement.of(g) for g in alg.generators(window)]
    vgens = [ModElement.of(g) for g in mod.generators(window)]
    reports: list[CheckReport] = []

    if mod.kind in (ASSOC_MODULE, POISSON_MODULE):
        prod, lft, rgt = alg.product, mod.left, mod.right

        def assoc(r_ab, r_out, r_bc, r_in):
            def residual(a, b, c):  # {a_L b}_{L+M} c - a_L {b_M c}
                A, B, C = const_lp(a), const_lp(b), const_lp(c)
                acc = Accumulator((L, M))
                outer_first(acc, r_out, pair(r_ab, A, B, L), C)
                inner_first(acc, r_in, A, pair(r_bc, B, C, M), -1)
                return acc.build()
            return residual

        for name, sets, rules in (("module_assoc_left", (agens, agens, vgens), (prod, lft, lft, lft)),
                                  ("module_assoc_right", (vgens, agens, agens), (rgt, rgt, prod, rgt)),
                                  ("module_assoc_mixed", (agens, vgens, agens), (lft, rgt, rgt, lft))):
            reports.append(run_tuple_check(name, itertools.product(*sets), assoc(*rules)))

    if mod.kind in (LIE_MODULE, POISSON_MODULE):
        br, lie = alg.bracket, mod.lie

        def lie_axiom(a, b, v):
            A, B, V = const_lp(a), const_lp(b), const_lp(v)
            acc = Accumulator((L, M))
            outer_first(acc, lie, pair(br, A, B, L), V)
            inner_first(acc, lie, A, pair(lie, B, V, M), -1)
            swapped(acc, lie, B, pair(lie, A, V, L))
            return acc.build()

        reports.append(run_tuple_check(
            "module_lie", itertools.product(agens, agens, vgens), lie_axiom))

    if mod.kind == POISSON_MODULE:
        prod, br = alg.product, alg.bracket
        lft, rgt, lie = mod.left, mod.right, mod.lie

        def poisson1(a, b, v):
            # [a_L b] o_{L+M} v = a_L (b o_M v) - b o_M (a_L v)
            A, B, V = const_lp(a), const_lp(b), const_lp(v)
            acc = Accumulator((L, M))
            outer_first(acc, lft, pair(br, A, B, L), V)
            inner_first(acc, lie, A, pair(lft, B, V, M), -1)
            swapped(acc, lft, B, pair(lie, A, V, L))
            return acc.build()

        def poisson2(v, a, b):
            # v o_M [a_L b] = a_L (v o_M b) - (a_L v) o_{L+M} b
            V, A, B = const_lp(v), const_lp(a), const_lp(b)
            acc = Accumulator((L, M))
            swapped(acc, rgt, V, pair(br, A, B, L))
            inner_first(acc, lie, A, pair(rgt, V, B, M), -1)
            outer_first(acc, rgt, pair(lie, A, V, L), B)
            return acc.build()

        def poisson3(a, b, v):
            # (a o_L b)_{-M-D} v = a o_L (b_{-M-D} v) + (a_{-M-D} v) o_{L+M} b
            A, B, V = const_lp(a), const_lp(b), const_lp(v)
            acc = Accumulator((L, M))
            _pair_into(acc, lie, pair(prod, A, B, L), V, ({M: -1}, -1))
            inner_first(acc, lft, A, pair_at(lie, B, V, ({M: -1}, -1), (M,)), -1)
            outer_first(acc, rgt, pair_at(lie, A, V, ({M: -1}, -1), (M,)), B, -1)
            return acc.build()

        reports.append(run_tuple_check(
            "module_poisson_bracket_left", itertools.product(agens, agens, vgens), poisson1))
        reports.append(run_tuple_check(
            "module_poisson_bracket_right", itertools.product(vgens, agens, agens), poisson2))
        reports.append(run_tuple_check(
            "module_poisson_product_action", itertools.product(agens, agens, vgens), poisson3))

    return reports


def semidirect_product(alg: ConformalAlgebra, mod: ConformalModule,
                       window: int = 3, prefix: str = "v.",
                       precheck: bool = True) -> ConformalAlgebra:
    """Algebra on A (+) V with (a+u) o (b+v) = a o b + a o v + u o b and
    [(a+u)_L (b+v)] = [a_L b] + a_L v - b_{-L-D} u."""
    if precheck:
        reports = check_module(alg, mod, window)
        if suite_fails(reports):
            raise PreconditionFailed("module axioms fail", reports)

    vfams = [GenFamily(prefix + f.name, f.arity, f.lo, f.hi) for f in mod.families]

    def tag(me: ModElement) -> ModElement:
        return me.relabel(lambda g: GenIndex(prefix + g.family, g.params))

    def split(g: GenIndex):
        if g.family.startswith(prefix):
            return True, GenIndex(g.family[len(prefix):], g.params)
        return False, g

    def lift_value(v: LambdaPoly | None, in_v: bool) -> LambdaPoly | None:
        if v is None:
            return None
        return v.apply_mod(tag) if in_v else v

    def pfn(g1, g2):
        v1, b1 = split(g1)
        v2, b2 = split(g2)
        if v1 and v2:
            return LambdaPoly.zero((RULE_VAR,))
        if not v1 and not v2:
            return lift_value(alg.product.entry(b1, b2), False)
        if not v1:  # a o v : left action
            return lift_value(mod.left.entry(b1, b2), True)
        return lift_value(mod.right.entry(b1, b2), True)  # u o b : right action

    def bfn(g1, g2):
        v1, b1 = split(g1)
        v2, b2 = split(g2)
        if v1 and v2:
            return LambdaPoly.zero((RULE_VAR,))
        if not v1 and not v2:
            return lift_value(alg.bracket.entry(b1, b2), False)
        if not v1:  # [a_L v] = a_L v
            return lift_value(mod.lie.entry(b1, b2), True)
        # [u_L b] = -b_{-L-D} u
        try:
            e = pair_at(mod.lie, const_lp(ModElement.of(b2)), const_lp(ModElement.of(b1)),
                        ({RULE_VAR: -1}, -1), (RULE_VAR,))
        except WindowEscape:
            return None
        return e.scale(-1).apply_mod(tag)

    return ConformalAlgebra(
        f"{alg.name}|x{mod.name}", list(alg.families) + vfams,
        product=StructureRule("product", pfn),
        bracket=StructureRule("bracket", bfn),
        kind=KIND_NC_POISSON,
    )
