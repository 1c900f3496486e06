"""Exact symbolic kernel: rational scalars, polynomials in the formal
derivation symbol D (written ``∂`` in math sources), free-module elements
over Q[D], and polynomials in named spectral variables with module-valued
coefficients.

Everything here is an immutable value in normal form: zero coefficients are
never stored, so structural equality is semantic equality.  All arithmetic
is exact: scalars are ints where integral and ``fractions.Fraction``
otherwise; there are no floats anywhere.

A linear form ``({u: c_u}, d)`` over a context reads sum(c_u * u) + d * D,
with D-powers acting on the module coefficient from the left.  ``substitute``
is the one way to put forms in for variables: it multiplies the cached
powers of the forms (``form_power``), one cached product per exponent
vector.  Pairing at a linear form (``algebra.pair_at``) expands the same
powers straight into an ``Accumulator``.  Cochain evaluation
(``cohomology._eval_into``) expands a value once per generator tuple, with
no shift, into a temporary, and multiplies that into its caller's
accumulator by the cached products of the powers its argument terms add.
A merge into an accumulator carries the D-offset of the product term, so
no D-shifted copy of a bucket is built on the way.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

Q = Fraction

ZERO = 0
ONE = 1


def qify(x):
    """Coerce to an exact rational scalar; integral values stay plain ints
    (same arithmetic, much faster), floats are rejected."""
    if isinstance(x, int):
        return x
    if isinstance(x, Q):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"non-rational scalar: {x!r}")


def gen_binom(m: int, j: int):
    """Generalized binomial C(m, j) = m(m-1)...(m-j+1)/j! for any integer m."""
    if j < 0:
        return 0
    num = 1
    for t in range(j):
        num *= m - t
    return qify(Q(num, factorial(j)))


# ---------------------------------------------------------------------------
# polynomials in D
# ---------------------------------------------------------------------------

class DPoly:
    """Univariate polynomial in the derivation symbol D over Q.

    Coefficients are stored densely (index = power of D) with the trailing
    zeros stripped, so two equal polynomials are structurally identical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [qify(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Q, ...] = tuple(cs)

    @staticmethod
    def const(c) -> "DPoly":
        return DPoly((qify(c),))

    @staticmethod
    def d_power(k: int, c=ONE) -> "DPoly":
        """c * D^k"""
        return DPoly((ZERO,) * k + (qify(c),))

    def __iter__(self) -> Iterator[tuple[int, Q]]:
        for k, c in enumerate(self.coeffs):
            if c != 0:
                yield k, c

    def __eq__(self, other) -> bool:
        return isinstance(other, DPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self:
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}D" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# generators and free-module elements
# ---------------------------------------------------------------------------

class GenIndex(NamedTuple):
    """A basis generator: a family name plus an integer parameter tuple.

    Concrete generators are families of arity 0 (empty parameter tuple);
    parameterized families (e.g. the monomials ``x[m]``) carry parameters.
    """

    family: str
    params: tuple[int, ...] = ()

    def __repr__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}[{','.join(str(p) for p in self.params)}]"


def gen(family: str, *params: int) -> GenIndex:
    return GenIndex(family, tuple(params))


class ModElement:
    """Element of a free Q[D]-module, stored as the bucket one exponent slot
    of a LambdaPoly holds: {(generator, D-power): nonzero scalar}.

    The constructor takes the bucket as is and shares it; buckets are never
    written to once built.  ``of`` reads a DPoly coefficient, and ``items``
    groups the bucket back into (generator, DPoly) pairs for display.
    """

    __slots__ = ("bucket",)

    def __init__(self, bucket: dict[tuple[GenIndex, int], Q] | None = None):
        self.bucket: dict[tuple[GenIndex, int], Q] = {} if bucket is None else bucket

    @staticmethod
    def zero() -> "ModElement":
        return ModElement()

    @staticmethod
    def of(g: GenIndex, coeff: DPoly | None = None) -> "ModElement":
        """coeff(D) g, with coeff = 1 by default."""
        return ModElement({(g, 0): ONE} if coeff is None else {(g, k): c for k, c in coeff})

    @staticmethod
    def combine(parts: Iterable[tuple["ModElement", int, Q]]) -> "ModElement":
        """sum of c * D^k * e over the (e, k, c) in parts."""
        out: dict = {}
        for e, k, c in parts:
            _merge(out, None, e.bucket, c, k)
        return ModElement(_clean_bucket(out.get(None, {})))

    def is_zero(self) -> bool:
        return not self.bucket

    def items(self) -> list[tuple[GenIndex, DPoly]]:
        """(generator, coefficient) pairs, sorted by generator."""
        coeffs: dict[GenIndex, list] = {}
        for (g, k), c in self.bucket.items():
            cs = coeffs.setdefault(g, [])
            cs.extend([ZERO] * (k + 1 - len(cs)))
            cs[k] = c
        return [(g, DPoly(coeffs[g])) for g in sorted(coeffs)]

    def relabel(self, f: Callable[[GenIndex], GenIndex]) -> "ModElement":
        """Rename every generator by the injective map f."""
        return ModElement({(f(g), k): c for (g, k), c in self.bucket.items()})

    def __add__(self, other: "ModElement") -> "ModElement":
        return ModElement.combine(((self, 0, ONE), (other, 0, ONE)))

    def __neg__(self) -> "ModElement":
        return self.scale(-1)

    def __sub__(self, other: "ModElement") -> "ModElement":
        return ModElement.combine(((self, 0, ONE), (other, 0, -1)))

    def scale(self, c) -> "ModElement":
        c = qify(c)
        if c == 0:
            return ModElement()
        if c == 1:
            return self
        return ModElement({gk: qify(c * v) for gk, v in self.bucket.items()})

    def d_apply(self, power: int) -> "ModElement":
        """Multiply every coefficient by D^power."""
        if not power:
            return self
        return ModElement({(g, j + power): c for (g, j), c in self.bucket.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, ModElement) and self.bucket == other.bucket

    def __hash__(self) -> int:
        return hash(frozenset(self.bucket.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({p})·{g}" for g, p in self.items()).replace("+ -", "- ")


def d_apply(e: ModElement, power: int) -> ModElement:
    """Module-level alias for the Q[D]-action e -> D^power e."""
    return e.d_apply(power)


# ---------------------------------------------------------------------------
# spectral-variable polynomials
# ---------------------------------------------------------------------------

class LambdaPoly:
    """Polynomial in an ordered context of spectral variables with
    free-module coefficients; an element of A[lambda_1, ..., lambda_k].

    Stored form (``data``): dense exponent vector (one slot per context
    variable) -> {(generator, D-power): nonzero scalar}, with no empty inner
    map, so structural equality is semantic equality.  The reserved symbol
    D never appears as a context variable: D-content lives in the inner
    keys.  Each inner map is a ModElement's bucket, shared, never copied.

    The constructor takes ``data`` as is; build values with ``of``,
    ``zero``, the arithmetic below or an ``Accumulator``.
    """

    __slots__ = ("context", "data")

    def __init__(self, context: tuple[str, ...], data: dict[tuple[int, ...], dict] | None = None):
        if len(set(context)) != len(context):
            raise ValueError(f"duplicate spectral variables in context {context}")
        self.context = tuple(context)
        self.data: dict[tuple[int, ...], dict[tuple[GenIndex, int], Q]] = {} if data is None else data

    # -- constructors
    @staticmethod
    def zero(context: tuple[str, ...] = ()) -> "LambdaPoly":
        return LambdaPoly(context)

    @staticmethod
    def of(context: tuple[str, ...], me: ModElement, exp: tuple[int, ...] | None = None) -> "LambdaPoly":
        if exp is None:
            exp = (0,) * len(context)
        return LambdaPoly(context, {tuple(exp): me.bucket} if me.bucket else None)

    # -- queries
    def is_zero(self) -> bool:
        return not self.data

    def items(self) -> list[tuple[tuple[int, ...], ModElement]]:
        return [(e, ModElement(self.data[e])) for e in sorted(self.data)]

    def flat(self) -> list[tuple[tuple[int, ...], GenIndex, int, Q]]:
        """The nonzero terms as (exponent, generator, D-power, scalar)."""
        return [(exp, g, k, c) for exp, b in self.data.items() for (g, k), c in b.items()]

    def coefficient(self, exp: tuple[int, ...]) -> ModElement:
        return ModElement(self.data.get(tuple(exp)))

    # -- arithmetic
    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        if self.context != other.context:
            raise ValueError(f"context mismatch: {self.context} vs {other.context}")
        acc = Accumulator(self.context)
        acc.add_lp(self)
        acc.add_lp(other)
        return acc.build()

    def __neg__(self) -> "LambdaPoly":
        return self.scale(-1)

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def scale(self, c) -> "LambdaPoly":
        c = qify(c)
        if c == 0:
            return LambdaPoly(self.context)
        if c == 1:
            return self
        return LambdaPoly(self.context, {e: {gk: qify(c * v) for gk, v in b.items()}
                                         for e, b in self.data.items()})

    def mul_var(self, name: str, power: int = 1) -> "LambdaPoly":
        i = self.context.index(name)
        if not power:
            return self
        return LambdaPoly(self.context, {e[:i] + (e[i] + power,) + e[i + 1:]: b
                                         for e, b in self.data.items()})

    def apply_mod(self, f: Callable[[ModElement], ModElement]) -> "LambdaPoly":
        """Map a linear function over every coefficient."""
        out = {}
        for e, b in self.data.items():
            v = f(ModElement(b)).bucket
            if v:
                out[e] = v
        return LambdaPoly(self.context, out)

    # -- context management
    def rename_context(self, new_context: tuple[str, ...]) -> "LambdaPoly":
        """Positional rename; the exponent vectors are untouched."""
        if len(new_context) != len(self.context):
            raise ValueError("rename must preserve context length")
        return LambdaPoly(tuple(new_context), self.data)

    def align(self, new_context: tuple[str, ...]) -> "LambdaPoly":
        """Embed into a larger context (every current variable must occur)."""
        new_context = tuple(new_context)
        if new_context == self.context:
            return self
        pos = _positions(self.context, new_context)
        n = len(new_context)
        out = {}
        for e, b in self.data.items():
            ne = [0] * n
            for p, k in zip(pos, e):
                ne[p] = k
            out[tuple(ne)] = b
        return LambdaPoly(new_context, out)

    def extract_nth(self) -> list[tuple[int, ModElement]]:
        """n-th products of a single-variable polynomial: pairs (n, n! * [nu^n])."""
        if len(self.context) != 1:
            raise ValueError("extract_nth needs a single-variable context")
        return [(k, ModElement(b).scale(factorial(k))) for (k,), b in sorted(self.data.items())]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaPoly)
            and self.context == other.context
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.context, frozenset((e, frozenset(b.items()))
                                             for e, b in self.data.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, m in self.items():
            mono = "".join(
                f"{v}" + (f"^{k}" if k > 1 else "")
                for v, k in zip(self.context, e) if k
            )
            parts.append(f"{mono}·({m})" if mono else f"({m})")
        return " + ".join(parts)


def _positions(names: tuple[str, ...], context: tuple[str, ...]) -> list[int]:
    """Index in `context` of each of `names` (ValueError if one is absent)."""
    try:
        return [context.index(v) for v in names]
    except ValueError:
        missing = [v for v in names if v not in context]
        raise ValueError(f"variable {missing[0]} missing from target context {context}") from None


def _merge(out: dict, exp: tuple[int, ...], bucket: dict, scale=ONE, kd: int = 0):
    """out[exp] += scale * D^kd * bucket, into a fresh inner map: stored
    values are never written to, and no shifted copy is built."""
    tgt = out.get(exp)
    if kd:
        if tgt is None:
            out[exp] = {(g, j + kd): scale * c for (g, j), c in bucket.items()}
        else:
            for (g, j), c in bucket.items():
                gk = (g, j + kd)
                tgt[gk] = tgt.get(gk, 0) + scale * c
    elif tgt is None:
        out[exp] = dict(bucket) if scale == 1 else {gk: scale * c for gk, c in bucket.items()}
    elif scale == 1:
        for gk, c in bucket.items():
            tgt[gk] = tgt.get(gk, 0) + c
    else:
        for gk, c in bucket.items():
            tgt[gk] = tgt.get(gk, 0) + scale * c


def _clean(context: tuple[str, ...], items) -> "LambdaPoly":
    """LambdaPoly from (exp, bucket) pairs with distinct exps: zero scalars
    dropped, integral Fractions made ints."""
    terms = {}
    for exp, bucket in items:
        clean = _clean_bucket(bucket)
        if clean:
            terms[exp] = clean
    return LambdaPoly(context, terms)


def _clean_bucket(bucket: dict) -> dict:
    """The bucket with zero scalars dropped and integral Fractions made ints."""
    return {gk: qify(c) for gk, c in bucket.items() if c}


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_EXPANSION_CACHE: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}


def _multinomial_expansion(k: int, parts: int) -> list[tuple[int, tuple[int, ...]]]:
    """Cached [(multinomial coefficient, split)] for (x_1+..+x_parts)^k."""
    key = (k, parts)
    got = _EXPANSION_CACHE.get(key)
    if got is None:
        got = []
        for split in _compositions(k, parts):
            c = factorial(k)
            for part in split:
                c //= factorial(part)
            got.append((c, split))
        _EXPANSION_CACHE[key] = got
    return got


_FORM_POWERS: dict[tuple, list[tuple[Q, tuple[int, ...], int]]] = {}


def form_power(context: tuple[str, ...], form: tuple[dict[str, Q], Q],
               n: int) -> list[tuple[Q, tuple[int, ...], int]]:
    """f^n for a linear form f = ({v: c_v}, d) over `context`, read as
    sum(c_v * v) + d * D: cached [(scalar, exponent vector, D-power)]."""
    key = (context, tuple(form[0].items()), form[1], n)
    got = _FORM_POWERS.get(key)
    if got is None:
        pos = _positions(tuple(form[0]), context)
        cs = list(form[0].values()) + [form[1]]
        got = []
        for mult, split in _multinomial_expansion(n, len(cs)):
            mult *= prod(c ** k for c, k in zip(cs, split))
            if mult:
                exp = tuple(split[pos.index(i)] if i in pos else 0 for i in range(len(context)))
                got.append((qify(mult), exp, split[-1]))
        _FORM_POWERS[key] = got
    return got


_MOVED_PRODUCTS: dict[tuple, list[tuple[Q, tuple[int, ...], int]]] = {}


class _FormProducts(dict):
    """{exps: prod of forms[i]^exps[i]} over ctx, an entry filled on first
    read (``_form_product``)."""

    __slots__ = ("ctx", "forms")

    def __init__(self, ctx, forms):
        super().__init__()
        self.ctx, self.forms = ctx, tuple((dict(c), d) for c, d in forms)

    def __missing__(self, exps):
        got = self[exps] = _form_product(self.ctx, self.forms, exps)
        return got


_FORM_PRODUCTS: dict[tuple, _FormProducts] = {}  # (context, forms) -> their table


def form_products(ctx: tuple[str, ...], forms) -> _FormProducts:
    """The cached table of products of the linear forms `forms` over ctx, by
    exponent vector: [(scalar, exponent vector, D-power)] per entry."""
    key = (ctx,) + tuple((tuple(c.items()), d) for c, d in forms)
    got = _FORM_PRODUCTS.get(key)
    if got is None:
        got = _FORM_PRODUCTS[key] = _FormProducts(ctx, forms)
    return got


def substitute(lp: "LambdaPoly", forms: dict[str, tuple[dict[str, Q], Q]],
               ctx: tuple[str, ...]) -> "LambdaPoly":
    """lp with each variable v of its context replaced by the linear form
    forms[v] = ({u: c_u}, d) over ctx; a variable left out maps to itself.
    Source and target contexts are separate, so a form may name lp's own
    variables (a swap needs no temporaries).  The result lives in ctx.  A
    form variable, or a variable left out, missing from ctx raises
    ValueError, and so does a key of forms that is not a variable of lp."""
    for v in forms:
        if v not in lp.context:
            raise ValueError(f"substituted variable {v} missing from context {lp.context}")
    fs = tuple(forms.get(v) or ({v: 1}, 0) for v in lp.context)
    return _expand(Accumulator(ctx), lp, fs, (0,) * len(fs)).build()


def _expand(acc: "Accumulator", lp: "LambdaPoly", forms, shift: tuple[int, ...],
            scale=ONE, mono: tuple[int, ...] | None = None) -> "Accumulator":
    """Add each term b * prod(v_i^e_i) of lp, e padded by zeros to the length
    of forms (ValueError if longer), as scale * mono * b *
    prod(forms[i]^(e_i + shift[i])) over acc's context, for a monomial mono
    of that context (None for 1); return acc.  Products are cached per
    exponent vector."""
    table = form_products(acc.context, forms)
    data = acc.data
    for e, b in lp.data.items():
        for c, inc, kd in table[tuple(map(add, e, shift)) + e[len(shift):] + shift[len(e):]]:
            _merge(data, inc if mono is None else tuple(map(add, mono, inc)), b, scale * c, kd)
    return acc


def _form_product(ctx: tuple[str, ...], forms, exps: tuple[int, ...]
                  ) -> list[tuple[Q, tuple[int, ...], int]]:
    """prod of forms[i]^exps[i] over ctx, like terms merged, as [(scalar,
    exponent vector, D-power)].  A form that is one variable moves its
    exponent there; the product of the other forms' powers is cached."""
    mono, rest = [0] * len(ctx), []
    for (c, d), n in zip(forms, exps, strict=True):
        if not d and list(c.values()) == [1]:
            mono[_positions(tuple(c), ctx)[0]] += n
        else:
            rest.append(((c, d), n))
    key = (ctx,) + tuple((tuple(c.items()), d, n) for (c, d), n in rest)
    got = _MOVED_PRODUCTS.get(key)
    if got is None:
        terms = {((0,) * len(ctx), 0): ONE}
        for form, n in rest:
            nxt: dict = {}
            for c2, e2, d2 in form_power(ctx, form, n):  # also checks the form
                for (e1, d1), c1 in terms.items():
                    k = (tuple(map(add, e1, e2)), d1 + d2)
                    nxt[k] = nxt.get(k, 0) + c1 * c2
            terms = nxt
        got = _MOVED_PRODUCTS[key] = [(qify(c), x, d) for (x, d), c in terms.items() if c]
    return [(c, tuple(map(add, mono, x)), d) for c, x, d in got]


class Accumulator:
    """Mutable builder of a LambdaPoly in its stored form; zero scalars may
    collect until ``build`` drops them."""

    __slots__ = ("context", "data")

    def __init__(self, context: tuple[str, ...]):
        self.context = tuple(context)
        self.data: dict[tuple[int, ...], dict[tuple[GenIndex, int], Q]] = {}

    def add_lp(self, lp: "LambdaPoly", scale=ONE, mono: tuple[int, ...] | None = None):
        """Add scale * monomial * lp, lp in this accumulator's context; lp
        may be another Accumulator, read before its build."""
        keys = lp.data if mono is None else [tuple(map(add, mono, exp)) for exp in lp.data]
        for key, b in zip(keys, lp.data.values()):
            _merge(self.data, key, b, scale)

    def build(self) -> "LambdaPoly":
        return _clean(self.context, self.data.items())


def shifted_action(value: LambdaPoly, var: str, power: int) -> LambdaPoly:
    """Apply the operator (D + var)^power to a LambdaPoly containing `var`.

    Realizes the second sesquilinearity rule a_lambda(D b) = (D+lambda) a_lambda b.
    """
    return multi_shifted_action(value, (var,), power)


def multi_shifted_action(value: LambdaPoly, vars: tuple[str, ...], power: int) -> LambdaPoly:
    """Apply (D + v_1 + ... + v_k)^power; used for the final cochain slot."""
    if power == 0:
        return value
    fs = tuple(({v: 1}, 0) for v in value.context) + (({v: 1 for v in vars}, 1),)
    shift = (0,) * len(value.context) + (power,)
    return _expand(Accumulator(value.context), value, fs, shift).build()
