"""Conformal algebras presented by structure rules on generators.

A structure rule assigns to each ordered pair of generators a single-variable
LambdaPoly (the value of the lambda-operation on that pair); evaluation on
arbitrary module elements is the sesquilinear extension

    (D a) op_v b = -v * (a op_v b),        a op_v (D b) = (D + v) * (a op_v b),

which holds by construction.  Axiom checkers sweep all generator tuples of a
finite window and report exact-zero residuals; a tuple whose evaluation needs
a rule entry outside the declared window is counted as inconclusive, never
silently skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .symcore import (
    Accumulator,
    GenIndex,
    LambdaPoly,
    ModElement,
    shifted_action,
)

RULE_VAR = "·v"  # canonical context name for stored rule values

L, M = "L", "M"  # spectral variable names used by the checkers


class WindowEscape(Exception):
    """A rule was consulted outside its declared window."""

    def __init__(self, what):
        super().__init__(f"outside rule window: {what}")
        self.what = what

    def __reduce__(self):
        # args hold the formatted message; rebuild from `what` instead, so a
        # copy made by pickle (as from a worker process) reads the same
        return type(self), (self.what,)


class PreconditionFailed(Exception):
    """A constructor's precondition checker rejected its input."""

    def __init__(self, message, reports=None):
        super().__init__(message)
        self.reports = reports or []


class UnboundedAnsatz(Exception):
    """Coboundary solving was requested without finite ansatz bounds."""


# ---------------------------------------------------------------------------
# generator families and windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenFamily:
    """A family of generators: concrete (arity 0) or integer-parameterized.

    ``lo``/``hi`` bound each parameter; ``hi=None`` leaves the family
    unbounded above (total rules).  Checks iterate parameters up to the
    requested window, intersected with the family bounds.
    """

    name: str
    arity: int = 0
    lo: int = 0
    hi: int | None = None

    def contains(self, params: tuple[int, ...]) -> bool:
        if len(params) != self.arity:
            return False
        return all(p >= self.lo and (self.hi is None or p <= self.hi) for p in params)

    def members(self, window: int) -> Iterator[GenIndex]:
        if self.arity == 0:
            yield GenIndex(self.name, ())
            return
        hi = window if self.hi is None else min(window, self.hi)
        rng = range(self.lo, hi + 1)
        for params in itertools.product(rng, repeat=self.arity):
            yield GenIndex(self.name, params)


def window_generators(families: Sequence[GenFamily], window: int) -> list[GenIndex]:
    out: list[GenIndex] = []
    for fam in families:
        out.extend(fam.members(window))
    return sorted(out)


# ---------------------------------------------------------------------------
# structure rules
# ---------------------------------------------------------------------------

class StructureRule:
    """Generator-pair table/rule for one bilinear lambda-operation.

    ``fn(g1, g2)`` returns the value as a LambdaPoly in the single variable
    RULE_VAR, or None when the pair is outside the window.  Concrete table
    entries take precedence over the family rule, and the two must agree on
    any overlap (checked when both are supplied).
    """

    def __init__(self, kind: str, fn: Callable[[GenIndex, GenIndex], LambdaPoly | None]):
        self.kind = kind
        self._fn = fn
        self._entries: dict[tuple[GenIndex, GenIndex], LambdaPoly | None] = {}
        self._shift_cache: dict[tuple[GenIndex, GenIndex, int], LambdaPoly] = {}

    @staticmethod
    def zero(kind: str) -> "StructureRule":
        return StructureRule(kind, lambda g1, g2: LambdaPoly.zero((RULE_VAR,)))

    @staticmethod
    def from_table(kind: str, table: dict[tuple[GenIndex, GenIndex], LambdaPoly],
                   total: bool = True) -> "StructureRule":
        """Finite table; missing pairs are zero when `total`, else escapes."""
        def fn(g1, g2):
            v = table.get((g1, g2))
            if v is None:
                return LambdaPoly.zero((RULE_VAR,)) if total else None
            return v
        return StructureRule(kind, fn)

    def entry(self, g1: GenIndex, g2: GenIndex) -> LambdaPoly | None:
        key = (g1, g2)
        if key not in self._entries:
            self._entries[key] = self._fn(g1, g2)
        return self._entries[key]

    def shifted_entry(self, g1: GenIndex, g2: GenIndex, dpow: int) -> LambdaPoly:
        """(D + v)^dpow applied to the rule value; raises WindowEscape."""
        key = (g1, g2, dpow)
        got = self._shift_cache.get(key)
        if got is None:
            base = self.entry(g1, g2)
            if base is None:
                raise WindowEscape((self.kind, g1, g2))
            got = shifted_action(base, RULE_VAR, dpow)
            self._shift_cache[key] = got
        return got

    def override(self, pair: tuple[GenIndex, GenIndex], value: LambdaPoly) -> "StructureRule":
        """A copy of this rule with one table entry replaced (perturbation probe)."""
        def fn(g1, g2, _pair=pair, _value=value):
            if (g1, g2) == _pair:
                return _value
            return self._fn(g1, g2)
        return StructureRule(self.kind, fn)


class LinearRule:
    """A Q[D]-module map given on generators (commutes with D by construction)."""

    def __init__(self, fn: Callable[[GenIndex], ModElement | None]):
        self._fn = fn
        self._entries: dict[GenIndex, ModElement | None] = {}

    @staticmethod
    def zero() -> "LinearRule":
        return LinearRule(lambda g: ModElement.zero())

    @staticmethod
    def scalar(c) -> "LinearRule":
        return LinearRule(lambda g: ModElement.of(g).scale(c))

    def entry(self, g: GenIndex) -> ModElement:
        if g not in self._entries:
            self._entries[g] = self._fn(g)
        v = self._entries[g]
        if v is None:
            raise WindowEscape(("linear", g))
        return v

    def apply(self, e: ModElement) -> ModElement:
        out = ModElement.zero()
        for g, p in e.terms.items():
            out = out + self.entry(g).dmul(p)
        return out

    def apply_lp(self, p: LambdaPoly) -> LambdaPoly:
        return p.apply_mod(self.apply)


# ---------------------------------------------------------------------------
# sesquilinear pairing
# ---------------------------------------------------------------------------

def pair(rule: StructureRule, U: LambdaPoly, W: LambdaPoly, var: str) -> LambdaPoly:
    """Evaluate the rule bilinearly on two module-valued polynomials.

    U and W share a context; the result lives in context + (var,).  For a
    term c*D^p g1 of U and d*D^q g2 of W the contribution is
    c*d*(-var)^p * (D+var)^q rule(g1,g2).
    """
    if U.context != W.context:
        raise ValueError(f"pairing context mismatch: {U.context} vs {W.context}")
    out_ctx = U.context + (var,)
    vpos = len(out_ctx) - 1
    acc = Accumulator(out_ctx)
    positions = [vpos]
    terms_w = W.flat()
    for eU, g1, pw1, c1 in U.flat():
        sign = c1 if pw1 % 2 == 0 else -c1
        for eW, g2, pw2, c2 in terms_w:
            val = rule.shifted_entry(g1, g2, pw2)
            mono = tuple(a + b for a, b in zip(eU, eW)) + (pw1,)
            acc.add_lp(val, sign * c2, mono, positions=positions)
    return acc.build()


def pair_at(rule: StructureRule, U: LambdaPoly, W: LambdaPoly,
            form: tuple[dict[str, int], int], ctx: tuple[str, ...]) -> LambdaPoly:
    """U op_f W at a linear form f = ({v: c_v}, d), read as in subst_many,
    in the variables of ctx; ctx holds U's context and is the result's."""
    return pair(rule, U, W, "·f").align(ctx + ("·f",)).subst_many({"·f": form})


def const_lp(e: ModElement, context: tuple[str, ...] = ()) -> LambdaPoly:
    return LambdaPoly.of(context, e)


def eval_op(rule: StructureRule, a: ModElement, b: ModElement, var: str = L) -> LambdaPoly:
    """a op_var b for plain module elements."""
    return pair(rule, const_lp(a), const_lp(b), var)


# The three terms every associator-type identity is a signed sum of, in the
# context (L, M).  Each takes the value of the inner operation, so that
# dagger-paired inner values fit as well as plain ones.

def inner_first(rule: StructureRule, X: LambdaPoly, V: LambdaPoly) -> LambdaPoly:
    """{X_L V} for an inner value V = {Y_M Z} in context (M,)."""
    return pair(rule, X.align((M,)), V, L).align((L, M))


def outer_first(rule: StructureRule, V: LambdaPoly, Z: LambdaPoly) -> LambdaPoly:
    """{V_{L+M} Z} for an inner value V = {X_L Y} in context (L,); a value in
    (M,), such as a dagger pairing, is taken the same way."""
    return pair_at(rule, V, Z.align(V.context), ({L: 1, M: 1}, 0), (L, M))


def swapped(rule: StructureRule, Y: LambdaPoly, V: LambdaPoly) -> LambdaPoly:
    """{Y_M V} for an inner value V = {X_L Z} in context (L,)."""
    return pair(rule, Y.align((L,)), V, M)


def stack_rows(rows: Sequence[LambdaPoly]) -> LambdaPoly:
    """Several residual rows of one context as one value: row k times
    ·r^k for a marker variable ·r, zero exactly when every row is."""
    ctx = rows[0].context + ("·r",)
    acc = Accumulator(ctx)
    for k, row in enumerate(rows):
        acc.add_lp(row.align(ctx).mul_var("·r", k))
    return acc.build()


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

MAX_WITNESSES = 4


@dataclass
class CheckReport:
    """Outcome of one axiom sweep over a finite tuple window."""

    name: str
    status: str
    witnesses: list[tuple[tuple, LambdaPoly]] = field(default_factory=list)
    checked: int = 0
    escaped: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def coverage(self) -> str:
        return f"checked={self.checked} escaped={self.escaped}"

    def __repr__(self) -> str:
        return f"<{self.name}: {self.status} ({self.coverage()})>"


def run_tuple_check(name: str, tuples: Iterable[tuple],
                    residual: Callable[..., LambdaPoly],
                    notes: Iterable[str] = ()) -> CheckReport:
    """Evaluate a residual on every tuple; exact zero everywhere is a pass."""
    [report] = _run_tuple_checks((name,), tuples, lambda *t: (residual(*t),))
    report.notes = list(notes)
    return report


def _run_tuple_checks(names: Sequence[str], tuples: Iterable[tuple],
                      residuals: Callable[..., Sequence[LambdaPoly]]) -> list[CheckReport]:
    """run_tuple_check of several residuals, evaluated together on each
    tuple, one report per name; a tuple whose evaluation escapes a rule
    window counts as escaped for all of them."""
    witnesses: list[list[tuple[tuple, LambdaPoly]]] = [[] for _ in names]
    checked = escaped = 0
    for t in tuples:
        try:
            rs = residuals(*t)
        except WindowEscape:
            escaped += 1
            continue
        checked += 1
        for wit, r in zip(witnesses, rs):
            if not r.is_zero() and len(wit) < MAX_WITNESSES:
                wit.append((t, r))
    return [CheckReport(name, sweep_status(wit, escaped), wit, checked, escaped)
            for name, wit in zip(names, witnesses)]


def sweep_status(witnesses, escaped: int) -> str:
    """A witness fails the sweep; otherwise any escaped tuple leaves it
    inconclusive."""
    if witnesses:
        return FAIL
    return INCONCLUSIVE if escaped else PASS


# ---------------------------------------------------------------------------
# conformal algebras
# ---------------------------------------------------------------------------

KIND_ASSOCIATIVE = "associative"
KIND_COMMUTATIVE = "commutative"
KIND_LIE = "lie"
KIND_POISSON = "poisson"
KIND_NC_POISSON = "noncommutative_poisson"

DEFAULT_WINDOW = 3


@dataclass
class ConformalAlgebra:
    name: str
    families: list[GenFamily]
    product: StructureRule | None = None
    bracket: StructureRule | None = None
    kind: str = KIND_POISSON

    def __post_init__(self):
        if self.kind in (KIND_POISSON, KIND_NC_POISSON):
            if self.product is None or self.bracket is None:
                raise ValueError(f"{self.kind} algebra needs both product and bracket")
        if self.kind == KIND_LIE and self.bracket is None:
            raise ValueError("lie algebra needs a bracket")
        if self.kind in (KIND_ASSOCIATIVE, KIND_COMMUTATIVE) and self.product is None:
            raise ValueError("associative algebra needs a product")

    def generators(self, window: int) -> list[GenIndex]:
        return window_generators(self.families, window)

    @property
    def commutative(self) -> bool:
        return self.kind in (KIND_POISSON, KIND_COMMUTATIVE)


# residuals ------------------------------------------------------------------

def _triple_assoc_residual(prod: StructureRule, a, b, c) -> LambdaPoly:
    A, B, C = const_lp(a), const_lp(b), const_lp(c)
    return (inner_first(prod, A, pair(prod, B, C, M))
            - outer_first(prod, pair(prod, A, B, L), C))


def _pair_comm_residual(prod: StructureRule, sign: int, a, b) -> LambdaPoly:
    A, B = const_lp(a), const_lp(b)
    return pair(prod, A, B, L) - pair_at(prod, B, A, ({L: -1}, -1), (L,)).scale(sign)


def _triple_jacobi_residual(br: StructureRule, a, b, c) -> LambdaPoly:
    A, B, C = const_lp(a), const_lp(b), const_lp(c)
    return (inner_first(br, A, pair(br, B, C, M))
            - outer_first(br, pair(br, A, B, L), C)
            - swapped(br, B, pair(br, A, C, L)))


def _triple_leibniz_residual(prod: StructureRule, br: StructureRule, a, b, c) -> LambdaPoly:
    A, B, C = const_lp(a), const_lp(b), const_lp(c)
    return (inner_first(br, A, pair(prod, B, C, M))
            - outer_first(prod, pair(br, A, B, L), C)
            - swapped(prod, B, pair(br, A, C, L)))


def _mods(gens: list[GenIndex]) -> list[ModElement]:
    return [ModElement.of(g) for g in gens]


def check_associativity(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> CheckReport:
    gens = _mods(alg.generators(window))
    return run_tuple_check(
        "associativity",
        itertools.product(gens, repeat=3),
        lambda a, b, c: _triple_assoc_residual(alg.product, a, b, c),
    )


def check_commutativity(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> CheckReport:
    gens = _mods(alg.generators(window))
    return run_tuple_check(
        "commutativity",
        itertools.product(gens, repeat=2),
        lambda a, b: _pair_comm_residual(alg.product, +1, a, b),
    )


def check_skew_symmetry(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> CheckReport:
    gens = _mods(alg.generators(window))
    return run_tuple_check(
        "skew_symmetry",
        itertools.product(gens, repeat=2),
        lambda a, b: _pair_comm_residual(alg.bracket, -1, a, b),
    )


def check_jacobi(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> CheckReport:
    gens = _mods(alg.generators(window))
    return run_tuple_check(
        "jacobi",
        itertools.product(gens, repeat=3),
        lambda a, b, c: _triple_jacobi_residual(alg.bracket, a, b, c),
    )


def check_leibniz(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> CheckReport:
    gens = _mods(alg.generators(window))
    return run_tuple_check(
        "leibniz",
        itertools.product(gens, repeat=3),
        lambda a, b, c: _triple_leibniz_residual(alg.product, alg.bracket, a, b, c),
    )


def check_poisson(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> list[CheckReport]:
    """The full axiom suite for the algebra's declared kind."""
    reports = [check_associativity(alg, window)]
    if alg.kind == KIND_POISSON:
        reports.append(check_commutativity(alg, window))
    else:
        reports.append(CheckReport("commutativity", PASS, notes=["skipped: noncommutative kind"]))
        reports[-1].checked = 0
    reports.append(check_skew_symmetry(alg, window))
    reports.append(check_jacobi(alg, window))
    reports.append(check_leibniz(alg, window))
    return reports


def check_suite(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> list[CheckReport]:
    """The axiom sweep matching the declared kind."""
    if alg.kind in (KIND_POISSON, KIND_NC_POISSON):
        return check_poisson(alg, window)
    if alg.kind == KIND_LIE:
        return [check_skew_symmetry(alg, window), check_jacobi(alg, window)]
    reports = [check_associativity(alg, window)]
    if alg.kind == KIND_COMMUTATIVE:
        reports.append(check_commutativity(alg, window))
    return reports


def suite_passes(reports: Iterable[CheckReport]) -> bool:
    return all(r.status == PASS for r in reports)


def suite_fails(reports: Iterable[CheckReport]) -> bool:
    """True when some axiom has a nonzero witness (escapes alone do not fail)."""
    return any(r.status == FAIL for r in reports)


def commutator_bracket(alg: ConformalAlgebra) -> StructureRule:
    """[a_v b] = a o_v b - b o_{-v-D} a, built entrywise from the product."""
    prod = alg.product

    def fn(g1, g2):
        e12 = prod.entry(g1, g2)
        e21 = prod.entry(g2, g1)
        if e12 is None or e21 is None:
            return None
        return e12 - e21.rename_context(("·w",)).subst_dagger((RULE_VAR,))

    return StructureRule("bracket", fn)


def nth_product_table(rule: StructureRule, gens: Sequence[GenIndex]) -> dict[tuple[GenIndex, GenIndex, int], ModElement]:
    """Extract all nonzero n-th products over a generator window."""
    out: dict[tuple[GenIndex, GenIndex, int], ModElement] = {}
    for g1 in gens:
        for g2 in gens:
            e = rule.entry(g1, g2)
            if e is None:
                raise WindowEscape((rule.kind, g1, g2))
            for n, m in e.extract_nth():
                out[(g1, g2, n)] = m
    return out
