"""Conformal algebras presented by structure rules on generators.

A structure rule assigns to each ordered pair of generators a single-variable
LambdaPoly (the value of the lambda-operation on that pair); evaluation on
arbitrary module elements is the sesquilinear extension

    (D a) op_v b = -v * (a op_v b),        a op_v (D b) = (D + v) * (a op_v b),

which holds by construction.  Every three-element identity (associativity,
Jacobi, Leibniz, and the module, Gel'fand-Dorfman, deformation and cross laws
built on them elsewhere) is a term table read by one evaluator,
``nested_sum``.  A term is (shape, outer rule, inner rule, sign), with an
optional item order for a term that reads the triple (a, b, c) permuted as
(X, Y, Z); the three shapes

    {X_L {Y_M Z}},    {{X_L Y}_{L+M} Z},    {Y_M {X_L Z}}

fix where the spectral variables L and M go, and the terms sum into one
accumulator per tuple.  ``order_part`` keeps the order-n part of a table read
along a series of rules mu_0, mu_1, ..., which gives the deformation laws.

This module is the one place that states the five Poisson laws, in
``poisson_laws``, each as (name, arity, terms).  A two-slot law's terms are
(rule, sign), read as a.b - sign * (b.a at the dagger); a three-slot law's
are a term table:

    associativity  associator(p)      commutativity  (p, +1)
    skew_symmetry  (b, -1)            jacobi         leibniz(b, b)
    leibniz        leibniz(p, b)

``check_suite`` runs the laws of the declared kind through the one sweep,
``sweep``, over all generator tuples of a finite window; the ordinary (PGD)
and coefficient-algebra checks read the same table with their own rules and
evaluators.  A tuple whose evaluation needs a rule entry outside the
declared window is counted as inconclusive, never silently skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .symcore import (
    Accumulator,
    GenIndex,
    LambdaPoly,
    ModElement,
    _merge,
    form_power,
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
        """The map on e; a zero scalar (a cancelled term of an unbuilt
        bucket) is skipped, not looked up."""
        return ModElement.combine((self.entry(g), k, c) for (g, k), c in e.bucket.items() if c)

    def apply_lp(self, p: LambdaPoly | Accumulator) -> LambdaPoly:
        """The map on every coefficient of p; p may be an Accumulator, read
        before its build."""
        return LambdaPoly.apply_mod(p, self.apply)


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
    if len(U.data.get((), ())) == 1 == len(W.data.get((), ())):
        [((g1, p), c1)], [((g2, q), c2)] = U.data[()].items(), W.data[()].items()
        if p == 0 and c1 == 1 == c2:  # g1 op (D^q g2): the cached entry itself
            return rule.shifted_entry(g1, g2, q).rename_context((var,))
    return pair_at(rule, U, W, ({var: 1}, 0), U.context + (var,))


def pair_at(rule: StructureRule, U: LambdaPoly, W: LambdaPoly,
            form: tuple[dict[str, int], int], ctx: tuple[str, ...]) -> LambdaPoly:
    """U op_f W at a linear form f = ({v: c_v}, d), read as
    sum(c_v * v) + d * D, in the variables of ctx; ctx holds U's and W's
    contexts and is the result's."""
    acc = Accumulator(ctx)
    _pair_into(acc, rule, U, W, form)
    return acc.build()


def _pair_into(acc: Accumulator, rule: StructureRule, U: LambdaPoly, W: LambdaPoly,
               form: tuple[dict[str, int], int], scale=1) -> None:
    """acc += scale * (U op_f W), f = ({v: c_v}, d) in acc's variables, which
    hold U's and W's: terms c1*D^p g1 of U and c2*D^q g2 of W add (-1)^p c1 c2
    f^(p+k) times slot k of (D+v)^q rule(g1, g2).  Substitution is a ring map
    and D commutes with the variables, so this is pairing in a fresh
    variable, then substituting f for it."""
    ctx = acc.context
    powers = {0: form_power(ctx, form, 0)}  # f^0, and a check of f's variables
    us = [(e, g, p, scale * c if p % 2 == 0 else -scale * c)
          for e, g, p, c in U.align(ctx).flat()]
    ws = W.align(ctx).flat()
    data = acc.data
    for eu, g1, p, c1 in us:
        for ew, g2, q, c2 in ws:
            mono = tuple(map(add, eu, ew))
            plain = not any(mono)
            c12 = c1 * c2
            for (k,), b in rule.shifted_entry(g1, g2, q).data.items():
                got = powers.get(k + p)
                if got is None:
                    got = powers[k + p] = form_power(ctx, form, k + p)
                for c, inc, kd in got:
                    _merge(data, inc if plain else tuple(map(add, mono, inc)), b, c12 * c, kd)


def const_lp(e: ModElement, context: tuple[str, ...] = ()) -> LambdaPoly:
    return LambdaPoly.of(context, e)


def eval_op(rule: StructureRule, a: ModElement, b: ModElement, var: str = L) -> LambdaPoly:
    """a op_var b for plain module elements."""
    return pair(rule, const_lp(a), const_lp(b), var)


# the shapes of a term of a three-element identity; nested_sum lays out L and M
INNER = "{X_L {Y_M Z}}"
OUTER = "{{X_L Y}_{L+M} Z}"
SWAP = "{Y_M {X_L Z}}"


def nested_sum(terms: Iterable[tuple], a: ModElement, b: ModElement, c: ModElement) -> Accumulator:
    """The sum of a term table at (a, b, c), unbuilt, in the context (L, M).
    A term is (shape, outer rule, inner rule, sign), read with
    (X, Y, Z) = (a, b, c); a fifth entry gives the positions in (a, b, c)
    of X, Y and Z, for a term that reads the triple permuted."""
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
    return acc


def table_residual(terms: Sequence[tuple]) -> Callable[..., LambdaPoly]:
    """(a, b, c) -> the built sum of the term table, for run_tuple_check."""
    return lambda a, b, c: nested_sum(terms, a, b, c).build()


def associator(p: StructureRule) -> tuple:
    """{a_L {b_M c}} - {{a_L b}_{L+M} c} for the product p."""
    return ((INNER, p, p, 1), (OUTER, p, p, -1))


def leibniz(p: StructureRule, b: StructureRule) -> tuple:
    """{a_L {b_M c}_p}_b - {{a_L b}_b _{L+M} c}_p - {b_M {a_L c}_b}_p: the
    bracket b acts on the product p as a derivation.  Jacobi is leibniz(b, b)."""
    return ((INNER, b, p, 1), (OUTER, p, b, -1), (SWAP, p, b, -1))


def order_part(terms: Iterable[tuple], series: dict, n: int, sign: int = 1) -> list[tuple]:
    """The order-n part of a term table read along a series {rule: [r_0,
    r_1, ...]} keyed by identity: each term once per split i + j = n of its
    outer and inner orders, times sign.  A split needing an order past the
    series is left out, and other rules have order 0."""
    out = []
    for shape, outer, inner, s, *order in terms:
        outers, inners = series.get(outer, [outer]), series.get(inner, [inner])
        out += [(shape, outers[i], inners[n - i], sign * s, *order)
                for i in range(n + 1) if i < len(outers) and n - i < len(inners)]
    return out


def stack_rows(rows: Sequence[LambdaPoly | Accumulator]) -> LambdaPoly:
    """Several residual rows of one context as one value: row k times
    ·r^k for a marker variable ·r, zero exactly when every row is.  A row
    may be an Accumulator, read before its build."""
    acc = Accumulator(rows[0].context + ("·r",))
    for k, row in enumerate(rows):
        for exp, b in row.data.items():
            _merge(acc.data, exp + (k,), b)
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

# the laws each kind declares, in report order
KIND_LAWS = {
    KIND_POISSON: ("associativity", "commutativity", "skew_symmetry", "jacobi", "leibniz"),
    KIND_NC_POISSON: ("associativity", "skew_symmetry", "jacobi", "leibniz"),
    KIND_LIE: ("skew_symmetry", "jacobi"),
    KIND_ASSOCIATIVE: ("associativity",),
    KIND_COMMUTATIVE: ("associativity", "commutativity"),
}


@dataclass
class ConformalAlgebra:
    name: str
    families: list[GenFamily]
    product: StructureRule | None = None
    bracket: StructureRule | None = None
    kind: str = KIND_POISSON

    def __post_init__(self):
        if self.kind not in KIND_LAWS:
            raise ValueError(f"unknown kind {self.kind!r}")
        # the kind's laws read the product, the bracket or both
        missing = [op for op, law in (("product", "associativity"), ("bracket", "skew_symmetry"))
                   if law in KIND_LAWS[self.kind] and getattr(self, op) is None]
        if missing:
            raise ValueError(f"{self.kind} algebra needs a {' and a '.join(missing)}")

    def generators(self, window: int) -> list[GenIndex]:
        return window_generators(self.families, window)

    @property
    def commutative(self) -> bool:
        return "commutativity" in KIND_LAWS[self.kind]


# the Poisson laws -------------------------------------------------------------

def law_residual(arity: int, terms: tuple) -> Callable[..., LambdaPoly]:
    """A law's residual on a pair or a triple of module elements."""
    return partial(_pair_comm_residual, *terms) if arity == 2 else table_residual(terms)


def _pair_comm_residual(prod: StructureRule, sign: int, a, b) -> LambdaPoly:
    A, B = const_lp(a), const_lp(b)
    acc = Accumulator((L,))
    _pair_into(acc, prod, A, B, ({L: 1}, 0))
    _pair_into(acc, prod, B, A, ({L: -1}, -1), -sign)
    return acc.build()


def poisson_laws(prod: StructureRule | None, br: StructureRule | None, kind: str,
                 prefix: str = "", evaluate=law_residual) -> list[tuple[str, int, Callable]]:
    """The laws of a kind on a product and a bracket, in report order, as
    (name, arity, evaluate(arity, terms)).  A prefix names the laws of
    another level ("ord_", "coeff_"), where skew symmetry is antisymmetry."""
    laws = {"associativity": (3, associator(prod)),
            "commutativity": (2, (prod, 1)),
            "skew_symmetry": (2, (br, -1)),
            "jacobi": (3, leibniz(br, br)),
            "leibniz": (3, leibniz(prod, br))}
    rename = {"skew_symmetry": "antisymmetry"} if prefix else {}
    return [(prefix + rename.get(name, name), laws[name][0], evaluate(*laws[name]))
            for name in KIND_LAWS[kind]]


def sweep(gens: Sequence[GenIndex], checks: Iterable[tuple]) -> list[CheckReport]:
    """run_tuple_check of each (name, arity, residual) over all arity-tuples
    of the generators."""
    elems = [ModElement.of(g) for g in gens]
    return [run_tuple_check(name, itertools.product(elems, repeat=k), fn)
            for name, k, fn in checks]


def check_suite(alg: ConformalAlgebra, window: int = DEFAULT_WINDOW) -> list[CheckReport]:
    """The axiom sweep of the declared kind; a noncommutative Poisson kind
    reports commutativity as skipped."""
    reports = sweep(alg.generators(window), poisson_laws(alg.product, alg.bracket, alg.kind))
    if alg.kind == KIND_NC_POISSON:  # in the poisson kind's place, after associativity
        reports.insert(1, CheckReport("commutativity", PASS, notes=["skipped: noncommutative kind"]))
    return reports


check_poisson = check_suite


def suite_passes(reports: Iterable[CheckReport]) -> bool:
    return all(r.status == PASS for r in reports)


def suite_fails(reports: Iterable[CheckReport]) -> bool:
    """True when some axiom has a nonzero witness (escapes alone do not fail)."""
    return any(r.status == FAIL for r in reports)


def commutator_bracket(alg: ConformalAlgebra) -> StructureRule:
    """[a_v b] = a o_v b - b o_{-v-D} a, built entrywise from the product."""
    prod = alg.product

    def fn(g1, g2):
        try:
            value = _pair_comm_residual(prod, 1, ModElement.of(g1), ModElement.of(g2))
        except WindowEscape:
            return None
        return value.rename_context((RULE_VAR,))

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
