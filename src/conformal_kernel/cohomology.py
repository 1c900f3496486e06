"""Cochain spaces and differentials of the conformal bicomplex.

A cochain of bidegree (m, n) takes m "bracket-type" arguments and n
"product-type" arguments; its value on a generator tuple is a module-valued
polynomial in the canonical slot variables c1..c_{m+n-1} (the final slot
carries no variable).  Evaluation on arbitrary module elements extends the
stored rule by the slot sesquilinearity rules, so those identities hold by
construction; the symmetry of a cochain in its bracket-type slots (with the
dagger substitution when n = 0) is a property of the stored rule, which the
differentials assume.  An argument sits at its linear form (``_form``): its
slot variable, or for the final argument the dagger -(sum of the others) - D.

Implemented differentials:

* ``d_h``   -- the Hochschild-type differential (m, n) -> (m, n+1) for n >= 1;
               bidegree (m, 0) enters through the inclusion into (m-1, 1);
* ``d_ce``  -- the Chevalley-Eilenberg-type differential (m, n) -> (m+1, n),
               one formula for every n (Bakalov-Kac-Voronov 1999); at n = 0
               its final argument sits at the dagger form;
* ``d_total`` -- the bigraded total differential with signs
               sum(d_ce + (-1)^m d_h), acting on graded cochains.

Cocycle testing, bounded-ansatz coboundary solving, and the module action of
the algebra on Hochschild cochains live here too.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import prod
from operator import add
from typing import Callable, Iterable, Sequence

from .algebra import (
    CheckReport,
    ConformalAlgebra,
    MAX_WITNESSES,
    PreconditionFailed,
    StructureRule,
    UnboundedAnsatz,
    WindowEscape,
    _pair_into,
    _run_tuple_checks,
    const_lp,
    pair,
    pair_at,
    run_tuple_check,
    sweep_status,
)
from .constructors import ConformalModule
from .linalg import solve_exact
from .symcore import (
    Accumulator,
    GenIndex,
    LambdaPoly,
    ModElement,
    Q,
    _expand,
    _merge,
    _positions,
    form_products,
    multi_shifted_action,
    substitute,
)


def canon_vars(k: int) -> tuple[str, ...]:
    return tuple(f"c{i + 1}" for i in range(k))


class Cochain:
    """Bidegree-(m, n) cochain given by a value rule on generator tuples.

    ``extra`` lists additional spectral variables carried by the values
    (action images like x_lam gamma are lambda-families of cochains); the
    extra variables take part in the final-slot sesquilinearity shift.
    """

    def __init__(self, m: int, n: int, value: Callable[[tuple[GenIndex, ...]], LambdaPoly],
                 extra: tuple[str, ...] = ()):
        if m < 0 or n < 0 or m + n == 0:
            raise ValueError(f"bad bidegree ({m},{n})")
        self.m = m
        self.n = n
        self.extra = tuple(extra)
        self._value = value
        self._cache: dict[tuple[GenIndex, ...], LambdaPoly] = {}

    @property
    def slots(self) -> int:
        return self.m + self.n

    @property
    def context(self) -> tuple[str, ...]:
        return canon_vars(self.slots - 1) + self.extra

    def value(self, gens: tuple[GenIndex, ...]) -> LambdaPoly:
        gens = tuple(gens)
        if len(gens) != self.slots:
            raise ValueError(f"need {self.slots} generators, got {len(gens)}")
        got = self._cache.get(gens)
        if got is None:
            got = self._value(gens)
            if got.context != self.context:
                raise ValueError(f"cochain value in context {got.context}, "
                                 f"expected {self.context}")
            self._cache[gens] = got
        return got

    def retag(self, m: int, n: int) -> "Cochain":
        """Re-read the same value rule at another bidegree with equal arity
        (the inclusion of (m+1, 0)-cochains into (m, 1)-cochains)."""
        if m + n != self.slots:
            raise ValueError("retag must preserve the number of slots")
        return Cochain(m, n, self.value, self.extra)

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.m, self.n, self.extra) != (other.m, other.n, other.extra):
            raise ValueError("cochain bidegree mismatch")
        return Cochain(self.m, self.n, lambda gens: self.value(gens) + other.value(gens),
                       self.extra)

    def scale(self, c) -> "Cochain":
        return Cochain(self.m, self.n, lambda gens: self.value(gens).scale(c), self.extra)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)


def zero_cochain(m: int, n: int) -> Cochain:
    ctx = canon_vars(m + n - 1)
    return Cochain(m, n, lambda gens: LambdaPoly.zero(ctx))


def linear_cochain(fn: Callable[[GenIndex], ModElement | None]) -> Cochain:
    """A Q[D]-module map P -> V as a bidegree-(1, 0) cochain."""
    def value(gens):
        v = fn(gens[0])
        if v is None:
            raise WindowEscape(("linear_cochain", gens[0]))
        return LambdaPoly.of((), v)
    return Cochain(1, 0, value)


def bilinear_cochain(rule: StructureRule) -> Cochain:
    """A structure rule (value in one spectral variable) as a (0, 2)-cochain."""
    def value(gens):
        e = rule.entry(gens[0], gens[1])
        if e is None:
            raise WindowEscape((rule.kind, gens))
        return e.rename_context(canon_vars(1))
    return Cochain(0, 2, value)


# ---------------------------------------------------------------------------
# multilinear evaluation with slot sesquilinearity
# ---------------------------------------------------------------------------

def eval_cochain(coch: Cochain, args: Sequence[LambdaPoly],
                 forms: Sequence[tuple[dict[str, int], int]], ctx: tuple[str, ...]) -> LambdaPoly:
    """Evaluate on module-valued polynomial arguments, with non-final slot p
    at the linear form forms[p] over ctx.

    The result lives in ctx, which holds the arguments' contexts and the
    cochain's extra variables (each stands for itself).  A D-power on
    non-final slot p contributes (-forms[p])^k; one on the final slot acts
    as (D + sum of the forms + sum of the extras)^k on the substituted
    value, so at a dagger form -(sum of the others) - D it collapses.  On
    plain generators at its own slot variables this is the value renamed,
    which is how the differentials read it (``_renamed``).
    """
    return _eval_into(Accumulator(ctx), coch, args, forms).build()


def _eval_into(acc: Accumulator, coch: Cochain, args: Sequence[LambdaPoly],
               forms: Sequence[tuple[dict[str, int], int]], scale=1) -> Accumulator:
    """acc += scale * eval_cochain(coch, args, forms, acc.context); returns
    acc.  The combinations of argument terms are grouped by generator tuple.
    A group's factor, the sum over its combinations of scalar * monomial *
    prod f_p^k_p (the final slot's form included), multiplies the cochain's
    value on the tuple, expanded once at the slot forms into a temporary."""
    s = coch.slots
    if len(args) != s or len(forms) != s - 1:
        raise ValueError("arity mismatch in eval_cochain")
    ctx = acc.context
    # one form per variable of coch.context, then the final slot's
    fs = tuple(forms) + tuple(({e: 1}, 0) for e in coch.extra)
    fs += (({u: t for u in ctx if (t := sum(c.get(u, 0) for c, _d in fs))},
            1 + sum(d for _c, d in fs)),)
    table = form_products(ctx, fs)  # the products symcore._expand reads
    pad = (0,) * len(coch.extra)
    positions = [_positions(a.context, ctx) for a in args]
    # generator tuple -> its factor, {(exponent, D-power): scalar}
    factors: dict[tuple[GenIndex, ...], dict[tuple, Q]] = {}
    for combo in itertools.product(*[a.flat() for a in args]):
        ks = tuple(t[2] for t in combo)
        # D^k on non-final slot p is (-f_p)^k: k more powers of f_p
        scalar = -scale if sum(ks[:-1]) % 2 else scale
        mono = [0] * len(ctx)
        for (exp, _g, _k, c), pos in zip(combo, positions):
            scalar *= c
            for p, e in zip(pos, exp):
                mono[p] += e
        factor = factors.setdefault(tuple(t[1] for t in combo), {})
        for c, inc, kd in table[ks[:-1] + pad + ks[-1:]]:
            at = tuple(map(add, mono, inc)), kd
            factor[at] = factor.get(at, 0) + scalar * c
    zero, data = (0,) * len(fs), acc.data
    for gens, factor in factors.items():
        value = _expand(Accumulator(ctx), coch.value(gens), fs, zero).data.items()
        for (inc, kd), c in factor.items():
            if c:
                for e, b in value:
                    _merge(data, tuple(map(add, inc, e)), b, c, kd)
    return acc


def _renamed(gamma: Cochain, gens: tuple[GenIndex, ...], names: Sequence[str]) -> LambdaPoly:
    """gamma on plain generators with its slot variables read as `names`,
    its extras as themselves: its value there, renamed."""
    return gamma.value(gens).rename_context(tuple(names) + gamma.extra)


def _gen_args(gens: Sequence[GenIndex], ctx: tuple[str, ...] = ()) -> list[LambdaPoly]:
    return [LambdaPoly.of(ctx, ModElement.of(g)) for g in gens]


def _form(ivars: Sequence[str | None], k: int) -> tuple[dict[str, int], int]:
    """The linear form of item k: its variable ivars[k], or for the final
    item (None) the dagger -(sum of the others) - D."""
    if ivars[k] is None:
        return {u: -1 for u in ivars if u is not None}, -1
    return {ivars[k]: 1}, 0


def _eval_pair_in_slot(gamma: Cochain, rule: StructureRule, items: Sequence[LambdaPoly],
                       ivars: Sequence[str | None], layout: Sequence,
                       ctx: tuple[str, ...]) -> LambdaPoly:
    """gamma on `items` with the pair B = {u_v w} of two of them in one
    slot, in context ``ctx``.

    ``layout`` lists gamma's slots in order: an item index, or the pair
    (i, j) of the item indices that B pairs.  ``ivars[k]`` is the output
    variable of item k; the final item has none (None), so in a slot that
    carries a variable it sits at the dagger form (``_form``).  B's slot
    form is the sum of its two items' forms, and its pair variable v is
    ivars[i] itself (no output variable occurs in the items' context).
    """
    return _pair_in_slot_into(Accumulator(ctx), gamma, rule, items, ivars, layout).build()


def _pair_in_slot_into(acc: Accumulator, gamma: Cochain, rule: StructureRule,
                       items: Sequence[LambdaPoly], ivars: Sequence[str | None],
                       layout: Sequence, scale=1) -> Accumulator:
    """acc += scale * _eval_pair_in_slot(..., acc.context); returns acc."""
    (i, j), = [slot for slot in layout if isinstance(slot, tuple)]
    B = pair(rule, items[i], items[j], ivars[i])
    args = [B if slot == (i, j) else items[slot] for slot in layout]
    (ci, di), (cj, dj) = _form(ivars, i), _form(ivars, j)
    pair_form = {u: t for u in {**ci, **cj} if (t := ci.get(u, 0) + cj.get(u, 0))}, di + dj
    forms = [pair_form if slot == (i, j) else _form(ivars, slot)
             for slot in layout[:-1]]  # the final slot carries no variable
    return _eval_into(acc, gamma, args, forms, scale)


# ---------------------------------------------------------------------------
# the differentials
# ---------------------------------------------------------------------------

def d_h(P: ConformalAlgebra, V: ConformalModule, gamma: Cochain) -> Cochain:
    """Hochschild-type differential (m, n) -> (m, n+1); for n = 0 the rule is
    first re-read at bidegree (m-1, 1) through the inclusion."""
    if gamma.n == 0:
        if gamma.m < 1:
            raise ValueError("d_h needs a product-type slot")
        gamma = gamma.retag(gamma.m - 1, 1)
    m, n = gamma.m, gamma.n
    out_vars = canon_vars(m + n)
    xvars = out_vars[:m]
    avars = out_vars[m:]

    def value(gens):
        xs, asr = gens[:m], gens[m:]
        out = Accumulator(out_vars)
        items, ivars = _gen_args(gens), out_vars + (None,)

        # a1 o_(mu1) gamma(x's; a2..a_{n+1})
        inner = _renamed(gamma, xs + asr[1:], xvars + avars[1:])
        _pair_into(out, V.left, const_lp(ModElement.of(asr[0])), inner, ({avars[0]: 1}, 0))

        # merged products a_i a_{i+1} (items m+i-1, m+i), sign (-1)^i
        for i in range(1, n + 1):
            p = m + i - 1
            layout = [*range(p), (p, p + 1), *range(p + 2, m + n + 1)]
            _pair_in_slot_into(out, gamma, P.product, items, ivars, layout, (-1) ** i)

        # gamma(x's; a1..a_n) o_(flat) a_{n+1}, sign (-1)^{n+1}
        w = _renamed(gamma, xs + asr[:n], xvars + avars[:n - 1])
        _pair_into(out, V.right, w, const_lp(ModElement.of(asr[n])),
                   ({v: 1 for v in out_vars}, 0), (-1) ** (n + 1))
        return out.build()

    return Cochain(m, n + 1, value)


def d_ce(P: ConformalAlgebra, V: ConformalModule, gamma: Cochain) -> Cochain:
    """Chevalley-Eilenberg-type differential (m, n) -> (m+1, n), for every
    n >= 0 the formula of Bakalov, Kac and Voronov ("Cohomology of conformal
    algebras", Comm. Math. Phys. 200, 1999) on the bracket-type arguments
    x_1..x_{m+1}, each at its form (``_form``): x_i acts on gamma with x_i
    left out, sign (-1)^(i+1); x_i is bracketed into each product-type
    slot, sign (-1)^i; [x_i x_j] fills the first slot, sign (-1)^(i+j).  At
    n = 0 the final argument x_{m+1} acts at the dagger form, and
    [x_i x_{m+1}] sits at lambda_i + (-sum lambda - D).  The formula assumes
    the stored rule's symmetry in the bracket-type slots, with the dagger
    substitution at n = 0; on a rule without it, such as a symmetric
    product rule retagged to (2, 0), other arrangements of the same formula
    give other images."""
    m, n = gamma.m, gamma.n
    out_vars = canon_vars(m + n)
    s = m + n + 1  # the image's items

    def value(gens):
        out = Accumulator(out_vars)
        items, ivars = _gen_args(gens), out_vars + (None,)
        for i in range(m + 1):
            rest = [t for t in range(s) if t != i]
            # x_i acting on the value with x_i left out
            inner = _renamed(gamma, tuple(gens[t] for t in rest), [ivars[t] for t in rest[:-1]])
            _pair_into(out, V.lie, const_lp(ModElement.of(gens[i])), inner, _form(ivars, i),
                       (-1) ** i)
            # x_i bracketed into each product-type slot
            for j in range(m + 1, s):
                layout = [(i, j) if t == j else t for t in rest]
                _pair_in_slot_into(out, gamma, P.bracket, items, ivars, layout, -(-1) ** i)

        # [x_i x_j] in the first slot
        for i, j in itertools.combinations(range(m + 1), 2):
            layout = [(i, j)] + [t for t in range(s) if t not in (i, j)]
            _pair_in_slot_into(out, gamma, P.bracket, items, ivars, layout, (-1) ** (i + j))
        return out.build()

    return Cochain(m + 1, n, value)


def d_ce_degree0(V: ConformalModule, v: ModElement) -> Cochain:
    """The reconstructed degree-0 rule: v -> (a -> a_{-D} v)."""
    def value(gens):
        return pair_at(V.lie, const_lp(ModElement.of(gens[0])), const_lp(v), ({}, -1), ())
    return Cochain(1, 0, value)


# ---------------------------------------------------------------------------
# graded cochains and the total differential
# ---------------------------------------------------------------------------

Graded = dict[tuple[int, int], Cochain]


def canonical_bidegree(m: int, n: int) -> tuple[int, int]:
    """Degree-1 components are differentiated at (1, 0)."""
    return (1, 0) if (m, n) == (0, 1) else (m, n)


def d_total(P: ConformalAlgebra, V: ConformalModule, graded: Graded,
            degree0: ModElement | None = None) -> Graded:
    """One step of the total differential sum(d_ce + (-1)^m d_h), each d_h
    image added at its own bidegree (m, n+1), or (m-1, 2) from (m, 0), with
    the sign of its own m.

    Components at every bidegree are produced (including the transient m = 1
    column the bigraded sum passes through); same-bidegree contributions add.
    """
    out: Graded = {}

    def add(key, coch):
        out[key] = out[key] + coch if key in out else coch

    if degree0 is not None:
        add((1, 0), d_ce_degree0(V, degree0))
    for (m, n), gamma in graded.items():
        m, n = canonical_bidegree(m, n)
        if (gamma.m, gamma.n) != (m, n):
            gamma = gamma.retag(m, n)
        add((m + 1, n), d_ce(P, V, gamma))
        h = d_h(P, V, gamma)
        add((h.m, h.n), h.scale((-1) ** h.m))
    return out


def cochain_zero_on(coch: Cochain, tuples: Iterable[tuple[GenIndex, ...]]) -> bool:
    return all(coch.value(t).is_zero() for t in tuples)


def is_cocycle(P: ConformalAlgebra, V: ConformalModule, graded: Graded,
               window_tuples: Callable[[int], list[tuple[GenIndex, ...]]],
               degree0: ModElement | None = None) -> CheckReport:
    """Exact-zero test of the total differential on supplied tuple windows."""
    image = d_total(P, V, graded, degree0)
    return run_tuple_check(
        "is_cocycle",
        ((key,) + t for key in sorted(image) for t in window_tuples(image[key].slots)),
        lambda key, *t: image[key].value(t))


# ---------------------------------------------------------------------------
# the module action on Hochschild cochains
# ---------------------------------------------------------------------------

def hochschild_action_value(P: ConformalAlgebra, V: ConformalModule, gamma: Cochain,
                            x_lp: LambdaPoly, var: str,
                            gens: tuple[GenIndex, ...]) -> LambdaPoly:
    """Value of (x_var gamma) on a generator tuple, for x a module-valued
    polynomial in its own outer context (the action is linear in x with
    (D x)_var gamma = -var * (x_var gamma)).  The result context is
    canonical-slot vars + merged extras + (var,)."""
    s = gamma.slots
    base = canon_vars(s - 1)
    c0 = x_lp.context
    out_extra = tuple(dict.fromkeys(gamma.extra + c0)) + (var,)
    full = base + out_extra

    acc = Accumulator(full)
    _pair_into(acc, V.lie, x_lp, gamma.value(gens), ({var: 1}, 0))  # in base + gamma.extra

    # x paired into each slot: x is item 0, a_i item i
    items, ivars = [x_lp] + _gen_args(gens, c0), (var,) + base + (None,)
    for i in range(1, s + 1):
        layout = [*range(1, i), (0, i), *range(i + 1, s + 1)]
        _pair_in_slot_into(acc, gamma, P.bracket, items, ivars, layout, -1)
    return acc.build()


def hochschild_module_action(P: ConformalAlgebra, V: ConformalModule,
                             x: ModElement, gamma: Cochain, var: str) -> Cochain:
    """x_var gamma as a cochain whose values carry the extra variable `var`."""
    if gamma.m != 0:
        raise ValueError("the module action lives on bidegree (0, n) cochains")

    def value(gens):
        return hochschild_action_value(P, V, gamma, const_lp(x), var, gens)

    return Cochain(gamma.m, gamma.n, value, extra=gamma.extra + (var,))


def cochain_dtilde(gamma: Cochain) -> Cochain:
    """The D-action on Hochschild cochains: value -> (sum slot vars + D) value;
    the extra variables ride along unshifted."""
    def value(gens):
        return multi_shifted_action(gamma.value(gens), canon_vars(gamma.slots - 1), 1)
    return Cochain(gamma.m, gamma.n, value, gamma.extra)


# ---------------------------------------------------------------------------
# seeded random cochains with the declared symmetry
# ---------------------------------------------------------------------------

def _hash_ints(seed, *key) -> list[int]:
    h = hashlib.blake2b(repr((seed,) + key).encode(), digest_size=16).digest()
    return list(h)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def symmetrize(raw: Callable[[tuple[GenIndex, ...]], LambdaPoly], m: int, n: int) -> Callable:
    """Antisymmetrize a raw rule over the m bracket-type slots.

    For n = 0 the slot group action moves the final (variable-free) slot via
    the dagger substitution; for n >= 1 it is a plain signed permutation of
    the slot variables.
    """
    s = m + n
    base = canon_vars(s - 1)
    ivars = base + (None,)

    def sym_value(gens):
        acc = Accumulator(base)
        for perm in itertools.permutations(range(m)):
            order = list(perm) + list(range(m, s))
            v = raw(tuple(gens[order[j]] for j in range(s)))
            _expand(acc, v, tuple(_form(ivars, order[j]) for j in range(s - 1)), (),
                    _perm_sign(perm))
        return acc.build()

    return sym_value


def random_cochain(m: int, n: int, seed: int, family: str = "x",
                   d_max: int = 2, l_max: int = 2, n_terms: int = 2) -> Cochain:
    """Seeded random cochain on a 1-parameter generator family, symmetrized
    over the bracket-type slots; values are deterministic functions of the
    tuple, so the rule is total on the family."""
    s = m + n
    nvars = s - 1

    def raw(gens):
        total = sum(g.params[0] for g in gens)
        acc = Accumulator(canon_vars(nvars))
        for t in range(n_terms):
            h = _hash_ints(seed, tuple(g.params for g in gens), t)
            coeff = h[0] % 5 - 2
            if coeff == 0:
                continue
            dpow = h[1] % (d_max + 1)
            exp = tuple(h[2 + i] % (l_max + 1) for i in range(nvars))
            shift = h[2 + nvars] % 3
            tgt = total - shift
            if tgt < 0:
                continue
            acc.add_lp(LambdaPoly(acc.context, {exp: {(GenIndex(family, (tgt,)), dpow): coeff}}))
        return acc.build()

    if m >= 2:
        return Cochain(m, n, symmetrize(raw, m, n))
    return Cochain(m, n, raw)


def _sample_family(P: ConformalAlgebra, V: ConformalModule) -> str:
    """The algebra's generator family for random_cochain and
    random_gen_tuples, which draw parameters from 0 up.  The cochains take
    their values on it too, so V must be declared on the same families."""
    fams = P.families
    if len(fams) != 1 or fams[0].arity != 1 or fams[0].lo != 0:
        raise PreconditionFailed("random cochains need a single 1-parameter family with min 0")
    if list(V.families) != list(fams):
        raise PreconditionFailed("random cochains take values on the algebra's family, "
                                 "and the module is declared on other families")
    return fams[0].name


def random_gen_tuples(arity: int, count: int, seed: int, family: str = "x",
                      max_param: int = 2) -> list[tuple[GenIndex, ...]]:
    out = []
    for t in range(count):
        h = _hash_ints(seed, "tuple", arity, t)
        out.append(tuple(GenIndex(family, (h[i] % (max_param + 1),)) for i in range(arity)))
    return out


# ---------------------------------------------------------------------------
# complex identity suites
# ---------------------------------------------------------------------------

def fgv_bidegrees(max_degree: int) -> list[tuple[int, int]]:
    """Bidegrees (m, n) with 1 <= m+n <= max_degree and m != 1, degree-1
    canonicalized at (1, 0)."""
    out = []
    for k in range(1, max_degree + 1):
        for m in range(0, k + 1):
            n = k - m
            if m == 1 and n != 0:
                continue
            if (m, n) == (0, 1):
                m, n = 1, 0
            if (m, n) == (1, 0) and k != 1:
                continue
            out.append((m, n))
    return sorted(set(out))


# Units of the running check_complex_identities call, reached by forked
# workers through inheritance: closures over algebras do not pickle.
_UNITS: list[Callable[[], CheckReport]] = []


def _run_unit(i: int) -> CheckReport:
    return _UNITS[i]()


def _run_units(units: list[Callable[[], CheckReport]], weights: list[int]) -> list[CheckReport]:
    """The results of the zero-argument `units`, in unit order.

    With two or more usable cores the units run in a pool of forked
    workers, heaviest first; only unit indices go out and only results come
    back.  They run here, in order, with one core or one unit, without
    `fork`, in a daemonic process (which may not start children), and when
    the process has other threads: a forked child holds a copy of their
    locks but not the threads that would release them."""
    global _UNITS
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else 1, len(units))
    if workers < 2:
        return [u() for u in units]
    import multiprocessing  # here, not at import: it costs every command ~9 ms
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return [u() for u in units]
    order = sorted(range(len(units)), key=lambda i: -weights[i])
    _UNITS = units
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = dict(zip(order, pool.imap(_run_unit, order, chunksize=1)))
    finally:
        _UNITS = []
    return [done[i] for i in range(len(units))]


def _sweep(si: int, cases) -> CheckReport:
    """One sample's sweep over (tag, residual on a tuple, tuples) cases; a
    witness is keyed (tag, si) + tuple."""
    residual = {tag: fn for tag, fn, _tuples in cases}
    return run_tuple_check("", ((tag, si) + t for tag, _fn, tuples in cases for t in tuples),
                           lambda tag, _si, *t: residual[tag](t))


def check_complex_identities(P: ConformalAlgebra, V: ConformalModule,
                             samples: int = 20, seed: int = 0, max_degree: int = 4,
                             tuples_per_sample: int = 2, d_max: int = 2) -> list[CheckReport]:
    """Randomized exact verification of the differential identities:
    d_ce^2 = 0, d_h^2 = 0, both mixed commuting squares, and the square of
    the total differential, per bidegree up to `max_degree`.

    Every (section, bidegree, sample) is an independent unit with its own
    seeded cochain and tuples.  The units may run on several cores; each
    section sums its units' counts and keeps the first witnesses in unit
    order, so the reports do not depend on the number of cores.  A tuple
    whose evaluation escapes a rule window counts as escaped.  Raises
    PreconditionFailed unless the algebra is one 1-parameter family with
    min 0, the generators random cochains are drawn on, and V is declared
    on that family too: the cochains take their values there."""
    fam = _sample_family(P, V)
    bidegs = fgv_bidegrees(max_degree)

    def l_max(m, n):
        return 2 if m + n <= 3 else 1  # keeps the largest bidegrees tractable

    def square(tag, si, gamma, tuples):
        lhs = d_h(P, V, d_ce(P, V, gamma))
        rhs = d_ce(P, V, d_h(P, V, gamma))
        return _sweep(si, [(tag, lambda t: lhs.value(t) - rhs.value(t), tuples)])

    def d2(m, n, si):
        gamma = random_cochain(m, n, seed=seed * 100003 + si * 17 + m * 7 + n, family=fam,
                               d_max=d_max, l_max=l_max(m, n))
        tuples = random_gen_tuples(m + n + 2, tuples_per_sample, seed + si + 1, fam)
        return _sweep(si, [(("d_ce2", m, n), d_ce(P, V, d_ce(P, V, gamma)).value, tuples),
                           (("d_h2", m, n), d_h(P, V, d_h(P, V, gamma)).value, tuples)])

    def bottom(m, si):
        gamma = random_cochain(m, 0, seed=seed * 31 + si * 5 + m, family=fam,
                               l_max=l_max(m, 0))
        tuples = random_gen_tuples(m + 2, tuples_per_sample, seed + 7 * si + m, fam)
        return square(("square_bottom", m), si, gamma, tuples)

    def inner(m, n, si):
        gamma = random_cochain(m, n, seed=seed * 57 + si * 3 + m + 11 * n, family=fam,
                               l_max=l_max(m, n))
        tuples = random_gen_tuples(m + n + 2, tuples_per_sample, seed + 13 * si + n, fam)
        return square(("square_inner", m, n), si, gamma, tuples)

    def total(m, n, si):
        gamma = random_cochain(m, n, seed=seed * 91 + si * 29 + 3 * m + n, family=fam,
                               l_max=l_max(m, n))
        twice = d_total(P, V, d_total(P, V, {(m, n): gamma}))
        return _sweep(si, [(("d_total2", m, n, key), twice[key].value,
                            random_gen_tuples(twice[key].slots, 1,
                                              seed + si + key[0] * 5 + key[1], fam))
                           for key in sorted(twice)])

    # (report name, its units as (weight, unit)); the weight is the slot
    # count of the composed differential's image
    sections = [(f"d2_zero_({m},{n})",
                 [(m + n + 2, partial(d2, m, n, si)) for si in range(samples)])
                for (m, n) in bidegs]
    sections.append(("square_dh_dce_bottom_row",
                     [(m + 2, partial(bottom, m, si)) for m in (1, 2, 3) for si in range(samples)]))
    sections.append(("square_dh_dce_inner",
                     [(m + n + 2, partial(inner, m, n, si))
                      for (m, n) in [(0, 2), (0, 3), (2, 2)] for si in range(samples)]))
    sections.append(("d_total_squared_zero",
                     [(m + n + 2, partial(total, m, n, si))
                      for (m, n) in bidegs if m + n <= max_degree - 1 for si in range(samples)]))

    units = [u for _name, us in sections for u in us]
    results = iter(_run_units([u for _w, u in units], [w for w, _u in units]))
    reports = []
    for name, us in sections:
        parts = [next(results) for _ in us]
        witnesses = [w for r in parts for w in r.witnesses][:MAX_WITNESSES]
        checked, escaped = sum(r.checked for r in parts), sum(r.escaped for r in parts)
        reports.append(CheckReport(name, sweep_status(witnesses, checked, escaped), witnesses,
                                   checked, escaped))
    return reports


def check_action_module_laws(P: ConformalAlgebra, V: ConformalModule,
                             samples: int = 20, seed: int = 0, n: int = 2) -> list[CheckReport]:
    """The module laws of the action on (0, n) cochains, law by law:

    * sesquilinearity in the acting element, (D x) action = -lam (x action);
    * the bracket law [x y]_{lam+mu} = x_lam y_mu - y_mu x_lam;
    * compatibility with the cochain D-action, in two forms: the bare
      identity x_lam(Dt gamma) = (Dt+lam)(x_lam gamma), which FAILS with the
      exact structural defect lam * {a_1...[x_lam a_n]}_gamma, and the
      engine-derived identity carrying that defect term, which holds exactly.

    A tuple on which any law escapes a rule window counts as escaped for
    all four laws.  Raises PreconditionFailed unless the algebra is one
    1-parameter family with min 0 and V is declared on it (see
    check_complex_identities).
    """
    fam = _sample_family(P, V)
    lam, mu = "·L", "·M"

    @lru_cache(maxsize=1)  # the tuples of one sample come in a row
    def sample(si):
        gamma = random_cochain(0, n, seed=seed * 7919 + si, family=fam)
        h = _hash_ints(seed, "act", si)
        x = ModElement.of(GenIndex(fam, (h[0] % 3,)))
        y = ModElement.of(GenIndex(fam, (h[1] % 3,)))
        return (gamma, x, y, hochschild_module_action(P, V, x, gamma, lam),
                hochschild_module_action(P, V, x.d_apply(1), gamma, lam),
                hochschild_module_action(P, V, x, cochain_dtilde(gamma), lam))

    def residuals(si, *t):
        gamma, x, y, act_x, act_dx, act_x_dt = sample(si)
        base = act_x.value(t)
        # sesquilinearity in the acting element
        v1 = act_dx.value(t) + base.mul_var(lam)

        # bare D-compatibility
        lhs = act_x_dt.value(t)
        rhs = multi_shifted_action(base, gamma.context, 1) + base.mul_var(lam)
        v2 = lhs - rhs

        # D-compatibility with the defect term lam * gamma(a_1,...,[x_lam a_n])
        defect = _eval_pair_in_slot(
            gamma, P.bracket, [const_lp(x)] + _gen_args(t), (lam,) + gamma.context + (None,),
            [*range(1, n), (0, n)], gamma.context + (lam,)).mul_var(lam)

        # the bracket law
        w = pair(P.bracket, const_lp(x), const_lp(y), lam)
        full = (lam, mu) + gamma.context
        lhs3 = substitute(hochschild_action_value(P, V, gamma, w, "·s", t),
                          {"·s": ({lam: 1, mu: 1}, 0)}, full)
        xy = hochschild_action_value(
            P, V, hochschild_module_action(P, V, y, gamma, mu), const_lp(x), lam, t)
        yx = hochschild_action_value(
            P, V, hochschild_module_action(P, V, x, gamma, lam), const_lp(y), mu, t)
        v3 = lhs3 - xy.align(full) + yx.align(full)
        return v1, v3, v2, v2 - defect

    reports = _run_tuple_checks(
        ["action_sesquilinearity", "action_bracket_law", "action_dtilde_bare_law",
         "action_dtilde_with_defect_term"],
        ((si,) + t for si in range(samples) for t in random_gen_tuples(n, 2, seed + si, fam)),
        residuals)
    reports[2].notes = ["bare D-compatibility law x(Dt g) = (Dt+lam)(x g); a nonzero "
                        "residual equals the structural defect lam*{a_1..[x_lam a_n]}_g "
                        "of the action rule"]
    reports[3].notes = ["engine-derived identity: x(Dt g) = (Dt+lam)(x g) + "
                        "lam*{a_1..[x_lam a_n]}_g"]
    return reports


# ---------------------------------------------------------------------------
# ansatz bases and coboundary solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzBounds:
    d_deg: int
    l_deg: int
    param_deg: int = 2


# an ansatz term's tag: a trailing generator parameter, under a family
# prefix that no manifest name can spell
_TAG = "τ·"


def _tag(g: GenIndex, j: int) -> GenIndex:
    return GenIndex(_TAG + g.family, g.params + (j,))


def _untag(g: GenIndex) -> tuple[GenIndex, int | None]:
    if g.family.startswith(_TAG):
        return GenIndex(g.family[len(_TAG):], g.params[:-1]), g.params[-1]
    return g, None


def _from_terms(ctx: tuple[str, ...], terms: Iterable[tuple]) -> LambdaPoly:
    """The LambdaPoly of distinct (exponent, generator, D-power, scalar) terms."""
    data: dict = {}
    for exp, g, k, c in terms:
        data.setdefault(exp, {})[g, k] = c
    return LambdaPoly(ctx, data)


class CochainBasis(list):
    """cochain_basis's Cochains, element j the monomial monomials[j] = (d,
    slot-var exponents, beta, shift).  site(s), kept per site, is the table
    (column, exponent, generator, D-power, coefficient) of all their values
    at s, symmetrized for m >= 2 with each raw term tagged by its column;
    element j reads column j.  generic holds each distinct term of site(s)
    once under a tag of its own; owners[tag] lists its (column, coefficient)s."""

    def __init__(self, m: int, n: int, fam, bounds: AnsatzBounds):
        self.m, self.n, self.fam = m, n, fam
        self.context = canon_vars(m + n - 1)
        self.param_exps = [pe for pe in itertools.product(range(bounds.param_deg + 1), repeat=m + n)
                           if sum(pe) <= bounds.param_deg]
        var_exps = [ve for ve in itertools.product(range(bounds.l_deg + 1), repeat=m + n - 1)
                    if sum(ve) <= bounds.l_deg]
        self.shifts = range(bounds.d_deg + bounds.l_deg + 1)
        self.monomials = list(itertools.product(self.param_exps, var_exps,
                                                range(bounds.d_deg + 1), self.shifts))
        self.site = lru_cache(maxsize=None)(self._site)
        self.owners: list[list[tuple[int, Q]]] = []
        self.generic = Cochain(m, n, self._generic)
        super().__init__(Cochain(m, n, partial(self._column, j)) for j in range(len(self.monomials)))

    def _raw(self, s: tuple[GenIndex, ...]) -> list[tuple]:
        ps = [g.params[0] for g in s]
        coeff = {pe: prod(map(pow, ps, pe)) for pe in self.param_exps}
        tgt = {h: GenIndex(self.fam.name, (sum(ps) - h,)) for h in self.shifts
               if self.fam.contains((sum(ps) - h,))}
        return [(j, ve, tgt[h], beta, coeff[pe])
                for j, (pe, ve, beta, h) in enumerate(self.monomials) if coeff[pe] and h in tgt]

    def _site(self, s: tuple[GenIndex, ...]) -> list[tuple]:
        if self.m < 2:
            return self._raw(s)
        sym = symmetrize(lambda gens: _from_terms(self.context, (
            (exp, _tag(g, j), k, c) for j, exp, g, k, c in self._raw(gens))), self.m, self.n)
        return [(j, exp, g, k, c) for exp, tg, k, c in sym(s).flat() for g, j in [_untag(tg)]]

    def _column(self, j: int, s: tuple[GenIndex, ...]) -> LambdaPoly:
        return _from_terms(self.context, (row[1:] for row in self.site(s) if row[0] == j))

    def _generic(self, s: tuple[GenIndex, ...]) -> LambdaPoly:
        if any(g.family.startswith(_TAG) for g in s):
            raise RuntimeError(f"differential read its argument at {s}, "
                               f"a site that holds an ansatz term")
        terms: dict[tuple, list] = {}
        for j, exp, g, k, c in self.site(s):
            terms.setdefault((exp, g, k), []).append((j, c))
        first = len(self.owners)
        self.owners += terms.values()
        return _from_terms(self.context, ((exp, _tag(g, first + i), k, 1)
                                          for i, (exp, g, k) in enumerate(terms)))


def cochain_basis(m: int, n: int, families, bounds: AnsatzBounds) -> CochainBasis:
    """Monomial basis of (m, n)-cochains on a single 1-parameter family:

        (prod p_i^{d_i}) * (slot-var monomial) * D^beta * x[sum p_i - shift]

    for shifts 0 .. d_deg + l_deg, and zero where x[sum p_i - shift] is
    outside the family, with the bracket-type slots antisymmetrized when
    m >= 2.  Distinct monomial supports keep the elements linearly
    independent.
    """
    if bounds is None:
        raise UnboundedAnsatz("coboundary solving needs finite ansatz bounds")
    fams = [f for f in families if f.arity == 1]
    if len(fams) != 1 or len(families) != 1:
        raise UnboundedAnsatz("ansatz basis implemented for single 1-parameter families")
    return CochainBasis(m, n, fams[0], bounds)


def _tagged_module(V: ConformalModule) -> ConformalModule:
    """V read on tagged generators: each rule strips the tag, reads V's
    cached entry and tags the output again."""
    def lift(rule):
        def fn(g1, g2):
            (b1, j1), (b2, j2) = _untag(g1), _untag(g2)
            e, j = rule.entry(b1, b2), j2 if j1 is None else j1
            return e if e is None or j is None else e.apply_mod(
                lambda me: me.relabel(lambda g: _tag(g, j)))
        return None if rule is None else StructureRule(rule.kind, fn)
    return replace(V, left=lift(V.left), right=lift(V.right), lie=lift(V.lie))


def _ansatz_columns(diff: Callable[[ConformalModule, Cochain], Cochain], W: ConformalModule,
                    basis: CochainBasis, t: tuple[GenIndex, ...], first: int = 0
                    ) -> dict[tuple, dict[int, Q]]:
    """The block {(exponent, generator, D-power): {first + j: coefficient}}
    of diff(V, basis[j]).value(t) for all j, zero sums dropped, by linearity
    from one evaluation of diff(W, basis.generic), W = _tagged_module(V):
    on a fixed tuple a differential reads gamma only through gamma.value(s),
    Q-linearly, and W carries the tags through V's rules, so an image term
    with a tag, untagged, is the image of that tag's term alone, spread over
    its owners' columns.  A read at a site that holds a tagged generator, or
    an image term without a tag, raises: the differential is then not
    linear in this sense.  A WindowEscape propagates."""
    block: dict[tuple, dict[int, Q]] = {}
    for exp, g, k, c in diff(W, basis.generic).value(t).flat():
        b, tag = _untag(g)
        if tag is None:
            raise RuntimeError(f"differential image term {g} on {t} holds no ansatz term")
        row = block.setdefault((exp, b, k), {})
        for j, cz in basis.owners[tag]:
            row[first + j] = row.get(first + j, 0) + c * cz
    return {term: kept for term, row in block.items()
            if (kept := {j: v for j, v in row.items() if v})}


def _block(values: Sequence[LambdaPoly], first: int = 0) -> dict[tuple, dict[int, Q]]:
    """The block of the values, in columns first, first + 1, ..."""
    block: dict[tuple, dict[int, Q]] = {}
    for j, v in enumerate(values, first):
        for exp, g, k, c in v.flat():
            block.setdefault((exp, g, k), {})[j] = c
    return block


def _solve_on(points: Iterable, row: Callable[..., list], ncols: int
              ) -> tuple[list[Q] | None, int]:
    """Exact c with sum_j c_j z_j = target at every point, term by term,
    where row(point) lists blocks that add up to the z_j's values there and
    the target's in column ncols; the points where row meets a WindowEscape
    are left out and counted.  Each (point, term) is a row, a point met
    twice adding into its rows.  Sorted by first nonzero column, the point's
    first place and the term, the system depends on the values alone, not
    on how they were computed; it goes to solve_exact as a dense matrix."""
    rows: dict[tuple, dict[int, Q]] = {}
    first: dict = {}  # point -> its place among the points kept
    escaped = 0
    for p in points:
        try:
            blocks = row(p)
        except WindowEscape:
            escaped += 1
            continue
        first.setdefault(p, len(first))
        for term, r in itertools.chain.from_iterable(block.items() for block in blocks):
            acc = rows.setdefault((p, term), {})
            for j, c in r.items():
                acc[j] = acc.get(j, 0) + c
    A, b = [], []
    for key in sorted(rows, key=lambda key: (min(rows[key]), first[key[0]], key[1])):
        b.append(rows[key].pop(ncols, 0))
        A.append([0] * ncols)
        for j, c in rows[key].items():
            A[-1][j] = c
    return solve_exact(A, b), escaped


def solve_ansatz(diff: Callable[[ConformalModule, Cochain], Cochain], V: ConformalModule,
                 basis: CochainBasis, target: Cochain,
                 tuples: Iterable[tuple[GenIndex, ...]]) -> tuple[list[Q] | None, int]:
    """Exact c with sum_i c_i diff(V, basis_i) = target on the tuples, and
    the number of tuples left out because a column or the target escapes a
    rule window there; the columns come from _ansatz_columns."""
    W = _tagged_module(V)
    return _solve_on(tuples, lambda t: [_ansatz_columns(diff, W, basis, t),
                                        _block([target.value(t)], len(basis))], len(basis))


def degree0_basis(V: ConformalModule, bounds: AnsatzBounds, window: int = 3) -> list[ModElement]:
    """Module elements D^j g spanning the degree-0 ansatz."""
    out = []
    for g in sorted(g for fam in V.families for g in fam.members(window)):
        for j in range(bounds.d_deg + 1):
            out.append(ModElement({(g, j): 1}))
    return out


def coboundary_solve(P: ConformalAlgebra, V: ConformalModule, graded: Graded,
                     bounds: AnsatzBounds,
                     tuples: Callable[[int], list[tuple[GenIndex, ...]]]
                     ) -> tuple[Graded | None, int]:
    """Search a degree-(k-1) preimage of a degree-k cocycle within the
    bounded ansatz; at target degree 1 the preimages are module elements
    v with image a -> a_{-D} v; also the number of (component, tuple)
    points left out because a value escapes a rule window there."""
    degree = {m + n for (m, n) in graded}
    if len(degree) != 1:
        raise ValueError("graded cochain must be homogeneous")
    k = degree.pop()
    if k == 1:
        target = (graded.get((1, 0)) or graded.get((0, 1))).retag(1, 0)
        basis0 = degree0_basis(V, bounds)
        images0 = [d_ce_degree0(V, v) for v in basis0]
        sol, escaped = _solve_on(
            tuples(1), lambda t: [_block([img.value(t) for img in images0] + [target.value(t)])],
            len(basis0))
        if sol is None:
            return None, escaped
        return {(0, 0): ModElement.combine((v, 0, c) for c, v in zip(sol, basis0))}, escaped
    # candidate bidegree -> its basis, and the image components d_total gives it
    bases = {key: cochain_basis(*key, P.families, bounds)
             for key in fgv_bidegrees(k - 1) if sum(key) == k - 1}
    reach = {key: sorted(d_total(P, V, {key: basis[0]})) for key, basis in bases.items()}
    target_keys = sorted(set(graded).union(*reach.values()))
    W = _tagged_module(V)
    candidates = [(key, coch) for key, basis in bases.items() for coch in basis]
    firsts = dict(zip(bases, itertools.accumulate(map(len, bases.values()), initial=0)))

    def row(point):
        tk, t = target_keys[point[0]], point[1]
        blocks = [_block([graded[tk].value(t)] if tk in graded else [], len(candidates))]
        for key, basis in bases.items():
            if tk in reach[key]:
                diff = lambda U, g, key=key: d_total(P, U, {key: g})[tk]
                blocks.append(_ansatz_columns(diff, W, basis, t, firsts[key]))
        return blocks

    sol, escaped = _solve_on(
        [(ci, t) for ci, tk in enumerate(target_keys) for t in tuples(sum(tk))], row,
        len(candidates))
    if sol is None:
        return None, escaped
    out: Graded = {}
    for c, (key, coch) in zip(sol, candidates):
        if c == 0:
            continue
        out[key] = out[key] + coch.scale(c) if key in out else coch.scale(c)
    return out or {key: zero_cochain(*key) for key in list(bases)[:1]}, escaped
