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
from typing import Callable

from .algebra import (
    INNER,
    OUTER,
    RULE_VAR,
    SWAP,
    CheckReport,
    ConformalAlgebra,
    GenFamily,
    KIND_LIE,
    KIND_NC_POISSON,
    KIND_POISSON,
    LinearRule,
    PreconditionFailed,
    StructureRule,
    WindowEscape,
    _pair_into,
    const_lp,
    eval_op,
    leibniz,
    nested_sum,
    pair,
    pair_at,
    poisson_laws,
    run_tuple_check,
    stack_rows,
    suite_fails,
    sweep,
    table_residual,
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


# ordinary axiom sweeps: an ordinary algebra is a conformal algebra with
# lambda-free rules, so its laws are the conformal term tables, every one of
# them constant in (L, M)

def _poisson_checks(ord_: OrdinaryAlgebra, commutative: bool) -> list[tuple]:
    return poisson_laws(_lift(ord_.product, "product"), _lift(ord_.bracket, "bracket"),
                        KIND_POISSON if commutative else KIND_NC_POISSON, "ord_")


def _gd_checks(ord_: OrdinaryAlgebra) -> list[tuple]:
    star, br = _lift(ord_.star, "star"), _lift(ord_.bracket, "bracket")
    acb, bac = (0, 2, 1), (1, 0, 2)  # the triple read as (a, c, b) and as (b, a, c)
    # (a * b) * c = (a * c) * b
    right_commute = ((OUTER, star, star, 1), (OUTER, star, star, -1, acb))
    # the associator of * is symmetric in a and b
    left_symmetry = ((INNER, star, star, 1, bac), (OUTER, star, star, -1, bac),
                     (INNER, star, star, -1), (OUTER, star, star, 1))
    # [a * b, c] + [a, b] * c = a * [b, c] + [a * c, b] + [a, c] * b
    gd = ((OUTER, br, star, 1), (OUTER, star, br, 1), (INNER, star, br, -1),
          (OUTER, br, star, -1, acb), (OUTER, star, br, -1, acb))
    return [("novikov_right_commute", 3, table_residual(right_commute)),
            ("novikov_left_symmetry", 3, table_residual(left_symmetry)),
            *poisson_laws(None, br, KIND_LIE, "lie_"),
            ("gd_compatibility", 3, table_residual(gd))]


def check_ordinary_poisson(ord_: OrdinaryAlgebra, window: int, commutative: bool = True) -> list[CheckReport]:
    return sweep(ord_.generators(window), _poisson_checks(ord_, commutative))


def check_gd(ord_: OrdinaryAlgebra, window: int = 3) -> list[CheckReport]:
    """Novikov + Lie + Gel'fand-Dorfman compatibility."""
    return sweep(ord_.generators(window), _gd_checks(ord_))


def check_pgd(ord_: OrdinaryAlgebra, window: int = 3, commutative: bool = True) -> list[CheckReport]:
    """GD + ordinary Poisson + the two product/star compatibility laws.  The
    bracket's own laws run once, as GD's lie_antisymmetry and lie_jacobi."""
    star, prod = _lift(ord_.star, "star"), _lift(ord_.product, "product")
    # both equalities of (b o c) * a = b o (c * a) = (b * a) o c, as rows
    bca = (OUTER, star, prod, 1, (1, 2, 0))
    rows = ((bca, (INNER, prod, star, -1, (1, 2, 0))),
            (bca, (OUTER, prod, star, -1, (1, 0, 2))))

    def right_compat(a, b, c):
        return stack_rows([nested_sum(row, a, b, c) for row in rows])

    ordinary = [c for c in _poisson_checks(ord_, commutative)
                if c[0] not in ("ord_antisymmetry", "ord_jacobi")]
    return sweep(ord_.generators(window), [
        *_gd_checks(ord_), *ordinary,
        ("pgd_right_compat", 3, right_compat),
        # a * (b o c) = (a * b) o c + b o (a * c): the Leibniz shape
        ("pgd_left_derivation", 3, table_residual(leibniz(prod, star))),
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
    return sweep(ord_.generators(window), checks)


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
    prod, br, lft, rgt, lie = alg.product, alg.bracket, mod.left, mod.right, mod.lie
    laws = []  # (name, the sets the triple is drawn from, term table)

    if mod.kind in (ASSOC_MODULE, POISSON_MODULE):
        # {a_L b}_{L+M} c - a_L {b_M c}
        for name, sets, (r_ab, r_out, r_bc, r_in) in (
                ("module_assoc_left", (agens, agens, vgens), (prod, lft, lft, lft)),
                ("module_assoc_right", (vgens, agens, agens), (rgt, rgt, prod, rgt)),
                ("module_assoc_mixed", (agens, vgens, agens), (lft, rgt, rgt, lft))):
            laws.append((name, sets, ((OUTER, r_out, r_ab, 1), (INNER, r_in, r_bc, -1))))

    if mod.kind in (LIE_MODULE, POISSON_MODULE):
        # [a_L b]_{L+M} v = a_L (b_M v) - b_M (a_L v)
        laws.append(("module_lie", (agens, agens, vgens),
                     ((OUTER, lie, br, 1), (INNER, lie, lie, -1), (SWAP, lie, lie, 1))))

    if mod.kind == POISSON_MODULE:
        vab = (1, 0, 2)  # the triple (v, a, b) read as (a, v, b)
        laws += [
            # [a_L b] o_{L+M} v = a_L (b o_M v) - b o_M (a_L v)
            ("module_poisson_bracket_left", (agens, agens, vgens),
             ((OUTER, lft, br, 1), (INNER, lie, lft, -1), (SWAP, lft, lie, 1))),
            # v o_M [a_L b] = a_L (v o_M b) - (a_L v) o_{L+M} b
            ("module_poisson_bracket_right", (vgens, agens, agens),
             ((SWAP, rgt, br, 1, vab), (INNER, lie, rgt, -1, vab), (OUTER, rgt, lie, 1, vab))),
        ]

    reports = [run_tuple_check(name, itertools.product(*sets), table_residual(terms))
               for name, sets, terms in laws]

    if mod.kind == POISSON_MODULE:
        def poisson3(a, b, v):
            # (a o_L b)_{-M-D} v = a o_L (b_{-M-D} v) + (a_{-M-D} v) o_{L+M} b: the
            # inner pairings sit at the dagger form, outside the term shapes
            A, B, V = const_lp(a), const_lp(b), const_lp(v)
            acc = Accumulator((L, M))
            _pair_into(acc, lie, pair(prod, A, B, L), V, ({M: -1}, -1))
            _pair_into(acc, lft, A, pair_at(lie, B, V, ({M: -1}, -1), (M,)), ({L: 1}, 0), -1)
            _pair_into(acc, rgt, pair_at(lie, A, V, ({M: -1}, -1), (M,)), B, ({L: 1, M: 1}, 0), -1)
            return acc.build()

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
