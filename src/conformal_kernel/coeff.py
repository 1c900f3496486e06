"""Coefficient algebra of a conformal algebra on finite mode windows.

Basis symbols are pairs (generator, mode n) for integer n, reduced modulo
the rewrite (D a)_n -> -n a_{n-1}; products and brackets are the binomial
convolutions of the n-th products,

    [a_m, b_n] = sum_j C(m,j) (a_[j] b)_{m+n-j},
    a_m o b_n  = sum_j C(m,j) (a_(j) b)_{m+n-j},

with the generalized binomial for negative modes.  All ordinary Poisson
axioms, the mode derivation D(a_n) = -n a_{n-1}, and the combinatorial
binomial lemma behind the Leibniz proof are exact checks here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    INNER,
    KIND_LAWS,
    OUTER,
    CheckReport,
    ConformalAlgebra,
    PASS,
    PreconditionFailed,
    StructureRule,
    WindowEscape,
    poisson_laws,
    run_tuple_check,
    stack_rows,
)
from .symcore import GenIndex, LambdaPoly, ModElement, Q, gen_binom, qify

Mode = tuple[GenIndex, int]


class CoeffElement:
    """Finite rational combination of mode symbols (g, n), n in Z."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mode, Q] | None = None, _trusted=False):
        if terms is None:
            self.terms: dict[Mode, Q] = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {k: v for k, v in terms.items() if v != 0}

    @staticmethod
    def zero() -> "CoeffElement":
        return CoeffElement()

    @staticmethod
    def of(g: GenIndex, n: int, c=1) -> "CoeffElement":
        c = qify(c)
        return CoeffElement({(g, n): c} if c else {}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def __add__(self, other: "CoeffElement") -> "CoeffElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return CoeffElement(out, _trusted=True)

    def __neg__(self) -> "CoeffElement":
        return CoeffElement({k: -v for k, v in self.terms.items()}, _trusted=True)

    def __sub__(self, other: "CoeffElement") -> "CoeffElement":
        return self + (-other)

    def scale(self, c) -> "CoeffElement":
        c = qify(c)
        if not c:
            return CoeffElement()
        return CoeffElement({k: c * v for k, v in self.terms.items()}, _trusted=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoeffElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for (g, n), c in self.items():
            bits.append(f"{c}·({g})_{n}")
        return " + ".join(bits).replace("+ -", "- ")


def coeff_normalize(me: ModElement, n: int) -> CoeffElement:
    """(D^k g)_n -> (-1)^k n(n-1)...(n-k+1) g_{n-k}, summed over the element."""
    out = CoeffElement.zero()
    for (g, k), c in me.bucket.items():
        fall = 1
        for t in range(k):
            fall *= n - t
        out = out + CoeffElement.of(g, n - k, c * fall * (-1) ** k)
    return out


@dataclass
class ModeWindow:
    n_min: int
    n_max: int
    gen_window: int

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ValueError("empty mode window")

    def modes(self) -> range:
        return range(self.n_min, self.n_max + 1)


class CoeffAlgebra:
    """Mode-indexed view of a conformal algebra with cached n-th products."""

    def __init__(self, alg: ConformalAlgebra):
        self.alg = alg
        self._nth: dict[tuple[str, GenIndex, GenIndex], list[tuple[int, ModElement]]] = {}
        self._ops: dict[tuple, CoeffElement] = {}

    def _nth_products(self, rule: StructureRule, g1: GenIndex, g2: GenIndex):
        key = (rule.kind, g1, g2)
        got = self._nth.get(key)
        if got is None:
            e = rule.entry(g1, g2)
            if e is None:
                raise WindowEscape((rule.kind, g1, g2))
            got = e.extract_nth()
            self._nth[key] = got
        return got

    def _basis_op(self, rule: StructureRule, a: Mode, b: Mode) -> CoeffElement:
        key = (rule.kind, a, b)
        try:
            return self._ops[key]
        except KeyError:
            pass
        (g1, m), (g2, n) = a, b
        out = CoeffElement.zero()
        for j, me in self._nth_products(rule, g1, g2):
            c = gen_binom(m, j)
            if c:
                out = out + coeff_normalize(me, m + n - j).scale(c)
        self._ops[key] = out
        return out

    def _accumulate(self, out: dict[Mode, Q], rule: StructureRule, u: CoeffElement,
                    v: CoeffElement, sign: int = 1):
        """out += sign * rule(u, v) on the term map of a coefficient element;
        entries that cancel are removed (every scalar of an element is
        nonzero and sign is +-1, so a sum that cancels had an entry)."""
        for a, c1 in u.terms.items():
            for b, c2 in v.terms.items():
                c = sign * c1 * c2
                for k, x in self._basis_op(rule, a, b).terms.items():
                    nv = out.get(k, 0) + c * x
                    if nv:
                        out[k] = nv
                    else:
                        del out[k]

    def _bilinear(self, rule: StructureRule, u: CoeffElement, v: CoeffElement) -> CoeffElement:
        out = CoeffElement()
        self._accumulate(out.terms, rule, u, v)
        return out

    def bracket(self, u: CoeffElement, v: CoeffElement) -> CoeffElement:
        return self._bilinear(self.alg.bracket, u, v)

    def product(self, u: CoeffElement, v: CoeffElement) -> CoeffElement:
        return self._bilinear(self.alg.product, u, v)

    def derivation(self, u: CoeffElement) -> CoeffElement:
        """D(a_n) = -n a_{n-1}, extended linearly."""
        out = CoeffElement.zero()
        for (g, n), c in u.terms.items():
            out = out + CoeffElement.of(g, n - 1, -n * c)
        return out


def coeff_bracket(alg: ConformalAlgebra, a: Mode, b: Mode) -> CoeffElement:
    ca = CoeffAlgebra(alg)
    return ca.bracket(CoeffElement.of(*a), CoeffElement.of(*b))


def coeff_product(alg: ConformalAlgebra, a: Mode, b: Mode) -> CoeffElement:
    ca = CoeffAlgebra(alg)
    return ca.product(CoeffElement.of(*a), CoeffElement.of(*b))


def _as_report_value(e: CoeffElement) -> LambdaPoly:
    """Pack a coefficient element into a LambdaPoly so CheckReport can carry it."""
    return LambdaPoly.of((), ModElement({(GenIndex(f"{g.family}@{n}", g.params), 0): qify(c)
                                         for (g, n), c in e.items()}))


def check_coeff_poisson(alg: ConformalAlgebra, window: ModeWindow) -> list[CheckReport]:
    """Ordinary Poisson axioms of Coeff P over all basis mode tuples in the
    window: unordered pairs for the two-slot laws, ordered triples for the
    rest, reported by arity, then name.  Each residual accumulates in one
    coefficient element; witnesses are wrapped into report polynomials only
    when nonzero."""
    ca = CoeffAlgebra(alg)
    gens = alg.generators(window.gen_window)
    elem = {(g, n): CoeffElement.of(g, n) for g in gens for n in window.modes()}
    acc, B = ca._accumulate, ca._basis_op

    def residual(arity, terms):
        # a law on basis modes (g, n): a.b - sign * b.a for terms (rule,
        # sign); a term table with INNER X.(Y.Z), OUTER (X.Y).Z, SWAP Y.(X.Z)
        if arity == 2:
            rule, sign = terms

            def two(a, b):
                out = {}
                acc(out, rule, elem[a], elem[b])
                acc(out, rule, elem[b], elem[a], -sign)
                return CoeffElement(out, _trusted=True)
            return two

        def three(X, Y, Z):
            out = {}
            for shape, outer, inner, sign in terms:
                if shape == INNER:
                    acc(out, outer, elem[X], B(inner, Y, Z), sign)
                elif shape == OUTER:
                    acc(out, outer, B(inner, X, Y), elem[Z], sign)
                else:
                    acc(out, outer, elem[Y], B(inner, X, Z), sign)
            return CoeffElement(out, _trusted=True)
        return three

    laws = poisson_laws(alg.product, alg.bracket, alg.kind, "coeff_", residual)
    reports = []
    for name, arity, fn in sorted(laws, key=lambda law: (law[1], law[0])):
        # tuples of basis modes (g, n); a witness shows their elements
        tuples = (itertools.combinations_with_replacement(elem, 2) if arity == 2
                  else itertools.product(elem, repeat=3))
        rep = run_tuple_check(name, tuples, fn)
        rep.witnesses = [(tuple(elem[m] for m in t), _as_report_value(r))
                         for t, r in rep.witnesses]
        reports.append(rep)
    return reports


def coeff_derivation_check(alg: ConformalAlgebra, window: ModeWindow) -> CheckReport:
    """D is a derivation of each coefficient operation the kind declares."""
    ca = CoeffAlgebra(alg)
    ops = [op for op, law in ((ca.product, "associativity"), (ca.bracket, "skew_symmetry"))
           if law in KIND_LAWS[alg.kind]]
    gens = alg.generators(window.gen_window)
    elems = [CoeffElement.of(g, n) for g in gens for n in window.modes()]

    def residual(u, v):
        D = ca.derivation
        return stack_rows([_as_report_value(D(op(u, v)) - op(D(u), v) - op(u, D(v)))
                           for op in ops])

    return run_tuple_check("coeff_derivation", itertools.product(elems, repeat=2), residual)


def annihilation_relations_check(alg: ConformalAlgebra, window: ModeWindow,
                                 seed: int = 0) -> CheckReport:
    """coeff_normalize is well defined on the quotient presentation:
    linearity in the element plus compatibility with the D-rewrite."""
    import random

    rng = random.Random(seed)
    gens = alg.generators(window.gen_window)

    def term():
        g = rng.choice(gens)
        return ModElement({(g, k): c for k, c in enumerate([rng.randint(-3, 3) for _ in range(4)])
                           if c})

    samples = []
    for _ in range(20):
        a = ModElement.zero()
        b = ModElement.zero()
        for _ in range(2):
            a = a + term()
            b = b + term()
        alpha = Q(rng.randint(-4, 4), rng.randint(1, 3))
        n = rng.randint(window.n_min, window.n_max)
        samples.append((a, b, alpha, n))

    def residual(a, b, alpha, n):
        lin = coeff_normalize(a.scale(alpha) + b, n) - coeff_normalize(a, n).scale(alpha) \
            - coeff_normalize(b, n)
        rew = coeff_normalize(a.d_apply(1), n) - coeff_normalize(a, n - 1).scale(-n)
        return stack_rows([_as_report_value(lin), _as_report_value(rew)])

    return run_tuple_check("coeff_quotient_relations", samples, residual)


def binomial_identity_check(m_max: int = 8, n_max: int = 8) -> CheckReport:
    """sum_i C(m,i) C(n,i'+j'-i) C(i,i') = C(m,i') C(m+n-i',j') exhaustively."""
    def residual(m, n, ip, jp):
        lhs = Q(0)
        for i in range(ip, m + 1):
            lhs += gen_binom(m, i) * gen_binom(n, ip + jp - i) * gen_binom(i, ip)
        rhs = gen_binom(m, ip) * gen_binom(m + n - ip, jp)
        return LambdaPoly.of((), ModElement.of(GenIndex("residual", ())).scale(lhs - rhs))

    return run_tuple_check(
        "binomial_identity",
        ((m, n, ip, jp) for m in range(m_max + 1) for n in range(n_max + 1)
         for ip in range(m + 1) for jp in range(m + n + 1)),
        residual)


def closed_form_comparison(alg: ConformalAlgebra, window: ModeWindow) -> CheckReport:
    """For a single 1-parameter family with a quadratic bracket, compare the
    computed bracket constants against the two rival closed forms
    (l*m - k*n) and (k*m - l*n) on (x^k)_m, (x^l)_n and report which matches.
    Raises PreconditionFailed on any other algebra, or a kind without a bracket.
    """
    if "skew_symmetry" not in KIND_LAWS[alg.kind]:
        raise PreconditionFailed(f"kind {alg.kind} declares no bracket to compare")
    if len(alg.families) != 1 or alg.families[0].arity != 1:
        raise PreconditionFailed("the closed forms need a single 1-parameter family")
    fam = alg.families[0]
    ca = CoeffAlgebra(alg)
    match_lm_kn = True
    match_km_ln = True
    checked = 0
    for g1 in fam.members(window.gen_window):
        for g2 in fam.members(window.gen_window):
            k, l = g1.params[0], g2.params[0]
            tgt = k + l - 1
            for m in window.modes():
                for n in window.modes():
                    got = ca.bracket(CoeffElement.of(g1, m), CoeffElement.of(g2, n))
                    checked += 1
                    want1 = (CoeffElement.of(GenIndex(fam.name, (tgt,)), m + n - 1, Q(l * m - k * n))
                             if tgt >= 0 else CoeffElement.zero())
                    want2 = (CoeffElement.of(GenIndex(fam.name, (tgt,)), m + n - 1, Q(k * m - l * n))
                             if tgt >= 0 else CoeffElement.zero())
                    if got != want1:
                        match_lm_kn = False
                    if got != want2:
                        match_km_ln = False
    notes = []
    if match_lm_kn and not match_km_ln:
        notes.append("bracket constants match (l*m - k*n); "
                     "transposed variant (k*m - l*n) does NOT match; flagged discrepancy")
    elif match_km_ln and not match_lm_kn:
        notes.append("bracket constants match (k*m - l*n); "
                     "transposed variant (l*m - k*n) does NOT match; flagged discrepancy")
    elif match_lm_kn and match_km_ln:
        notes.append("bracket constants match both closed forms (degenerate window)")
    else:
        notes.append("bracket constants match neither closed form")
    return CheckReport("closed_form_comparison", PASS, checked=checked, notes=notes)
