"""Truncated formal deformations of commutative associative conformal
algebras, obstruction theory, semi-classical limits, Nijenhuis operators and
linear deformations of noncommutative Poisson conformal algebras.

The deformation parameter is a series index: a deformation of order N is the
list of bilinear rules mu_0..mu_N (mu_0 the undeformed product) and every
statement is an order-by-order polynomial identity.  Two independent code
paths verify associativity of the truncated product: the direct convolution
identity per order, and the ordinary associativity sweep on an auxiliary
algebra whose generators carry the series index as an extra parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    CheckReport,
    ConformalAlgebra,
    FAIL,
    GenFamily,
    KIND_NC_POISSON,
    KIND_POISSON,
    LinearRule,
    PreconditionFailed,
    RULE_VAR,
    StructureRule,
    UnboundedAnsatz,
    check_associativity,
    check_poisson,
    const_lp,
    pair,
    run_tuple_check,
    suite_fails,
)
from .cohomology import (
    AnsatzBounds,
    Cochain,
    bilinear_cochain,
    canon_vars,
    cochain_basis,
    d_h,
    is_cocycle,
    solve_linear_combination,
    zero_cochain,
)
from .constructors import ConformalModule
from .symcore import GenIndex, LambdaPoly, ModElement

L, M = "L", "M"


def regular_bimodule(alg: ConformalAlgebra) -> ConformalModule:
    """A acting on itself by left/right multiplication (associative side)."""
    return ConformalModule(f"reg({alg.name})", list(alg.families),
                           left=alg.product, right=alg.product,
                           lie=alg.bracket, kind="assoc_module")


@dataclass
class DeformationSeries:
    """mu_0..mu_N with mu_0 the product of the (checked) base algebra."""

    alg: ConformalAlgebra
    higher: list[StructureRule]

    def __post_init__(self):
        if self.alg.product is None:
            raise ValueError("deformation needs a base product")

    @property
    def order(self) -> int:
        return len(self.higher)

    def mu(self, k: int) -> StructureRule:
        if k == 0:
            return self.alg.product
        return self.higher[k - 1]

    def truncate(self, order: int) -> "DeformationSeries":
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return DeformationSeries(self.alg, self.higher[:order])

    def extend_with(self, rule: StructureRule) -> "DeformationSeries":
        return DeformationSeries(self.alg, self.higher + [rule])

    def hbar_algebra(self, prefix: str = "ħ·") -> ConformalAlgebra:
        """A[hbar]/hbar^{N+1} as an algebra whose generators carry the series
        power as a trailing parameter; the independent associativity path."""
        N = self.order
        fams = [GenFamily(prefix + f.name, f.arity + 1, 0, f.hi) for f in self.alg.families]

        def split(g: GenIndex):
            return GenIndex(g.family[len(prefix):], g.params[:-1]), g.params[-1]

        def tag(me: ModElement, k: int) -> ModElement:
            return ModElement({GenIndex(prefix + g.family, g.params + (k,)): p
                               for g, p in me.terms.items()})

        def fn(g1, g2):
            b1, k1 = split(g1)
            b2, k2 = split(g2)
            out = LambdaPoly.zero((RULE_VAR,))
            for j in range(0, N + 1 - k1 - k2):
                e = self.mu(j).entry(b1, b2)
                if e is None:
                    return None
                out = out + e.apply_mod(lambda me, k=k1 + k2 + j: tag(me, k))
            return out

        return ConformalAlgebra(f"hbar({self.alg.name})", fams,
                                product=StructureRule("product", fn),
                                bracket=StructureRule.zero("bracket"),
                                kind=KIND_NC_POISSON)


def _convolution_residual(ds: DeformationSeries, n: int, a, b, c) -> LambdaPoly:
    """sum_{r+s=n} {a_L {b_M c}_{mu_s}}_{mu_r} - {{a_L b}_{mu_s}_{L+M} c}_{mu_r}."""
    A, B, C = const_lp(a), const_lp(b), const_lp(c)
    out = LambdaPoly.zero((L, M))
    for r in range(n + 1):
        s = n - r
        lhs = pair(ds.mu(r), A.align((M,)), pair(ds.mu(s), B, C, M), L).align((L, M))
        rhs = pair(ds.mu(r), pair(ds.mu(s), A, B, L), C.align((L,)), "·t")
        rhs = rhs.align((L, M, "·t")).subst_linear("·t", {L: 1, M: 1})
        out = out + lhs - rhs
    return out


def check_n_deformation(ds: DeformationSeries, window: int = 3,
                        cross_check: bool = True) -> CheckReport:
    """Order-by-order associativity of the truncated deformation."""
    gens = [ModElement.of(g) for g in ds.alg.generators(window)]
    orders = range(ds.order + 1)
    rep = run_tuple_check(
        "n_deformation",
        ((n,) + t for n in orders for t in itertools.product(gens, repeat=3)),
        lambda n, a, b, c: _convolution_residual(ds, n, a, b, c),
    )
    if cross_check and rep.status != "inconclusive":
        alt = check_associativity(ds.hbar_algebra(), window)
        agree = (alt.status == rep.status)
        rep.notes.append(
            f"series-index associativity cross-check: {alt.status}"
            + ("" if agree else " (DISAGREES with convolution path)"))
        if not agree:
            rep.status = FAIL
    return rep


def infinitesimal_is_cocycle(ds: DeformationSeries, window: int = 3) -> CheckReport:
    """Order-1 condition: the convolution identity at n = 1 coincides with
    d_H mu_1 = 0; both paths are computed and cross-asserted."""
    if ds.order < 1:
        raise PreconditionFailed("series has no first-order term")
    gens = [ModElement.of(g) for g in ds.alg.generators(window)]
    mu1 = bilinear_cochain(ds.mu(1))
    dmu1 = d_h(ds.alg, regular_bimodule(ds.alg), mu1)

    def residual(a, b, c):
        direct = _convolution_residual(ds, 1, a, b, c)
        # d_H mu1 evaluated on the same triple must agree (cross-assertion)
        ga = next(iter(a.terms)), next(iter(b.terms)), next(iter(c.terms))
        via_dh = dmu1.value(ga).rename_context((L, M))
        if via_dh != direct:
            return LambdaPoly.of((L, M), ModElement.of(GenIndex("·mismatch", ())))
        return direct

    return run_tuple_check(
        "infinitesimal_cocycle",
        itertools.product(gens, repeat=3),
        residual,
        notes=["cross-asserted against the Hochschild differential of mu_1"],
    )


def equivalence_check(ds: DeformationSeries, ds2: DeformationSeries,
                      phi: LinearRule, window: int = 3) -> CheckReport:
    """mu_1 - mu_1' = d_H phi: Id + hbar*phi is a homomorphism mod hbar^2."""
    gens = [ModElement.of(g) for g in ds.alg.generators(window)]
    prod = ds.alg.product

    def residual(a, b):
        lhs = pair(ds.mu(1), const_lp(a), const_lp(b), L) \
            - pair(ds2.mu(1), const_lp(a), const_lp(b), L)
        rhs = pair(prod, const_lp(a), const_lp(phi.apply(b)), L) \
            + pair(prod, const_lp(phi.apply(a)), const_lp(b), L) \
            - phi.apply_lp(pair(prod, const_lp(a), const_lp(b), L))
        return lhs - rhs

    return run_tuple_check("equivalence", itertools.product(gens, repeat=2), residual)


def obstruction(ds: DeformationSeries, precheck_window: int | None = None) -> Cochain:
    """theta_n as a (0, 3)-cochain; d_H theta_n = 0 whenever the series is a
    conformal n-deformation."""
    if precheck_window is not None:
        rep = check_n_deformation(ds, precheck_window, cross_check=False)
        if rep.status == FAIL:
            raise PreconditionFailed("series fails the deformation identity", [rep])
    n = ds.order
    ctx = canon_vars(2)

    def value(gens):
        A, B, C = (const_lp(ModElement.of(g)) for g in gens)
        out = LambdaPoly.zero((L, M))
        for r in range(1, n + 1):
            s = n + 1 - r
            t1 = pair(ds.mu(r), pair(ds.mu(s), A, B, L), C.align((L,)), "·t")
            t1 = t1.align((L, M, "·t")).subst_linear("·t", {L: 1, M: 1})
            t2 = pair(ds.mu(r), A.align((M,)), pair(ds.mu(s), B, C, M), L).align((L, M))
            out = out + t1 - t2
        return out.rename_context(ctx)

    return Cochain(0, 3, value)


def obstruction_is_cocycle(ds: DeformationSeries, window: int = 2) -> CheckReport:
    theta = obstruction(ds)
    dtheta = d_h(ds.alg, regular_bimodule(ds.alg), theta)
    gens = ds.alg.generators(window)
    return run_tuple_check(
        "obstruction_cocycle",
        itertools.product(gens, repeat=4),
        lambda *t: dtheta.value(t),
    )


def extend_deformation(ds: DeformationSeries, bounds: AnsatzBounds,
                       window: int = 3) -> DeformationSeries | None:
    """Solve d_H mu_{n+1} = theta_n in the bounded ansatz; on success the
    extension is re-verified through check_n_deformation."""
    if bounds is None:
        raise UnboundedAnsatz("extension solving needs ansatz bounds")
    theta = obstruction(ds)
    V = regular_bimodule(ds.alg)
    basis = cochain_basis(0, 2, ds.alg.families, bounds)
    images = [d_h(ds.alg, V, z) for z in basis]
    tuples = [t for t in itertools.product(ds.alg.generators(window), repeat=3)]
    sol = solve_linear_combination(images, theta, tuples)
    if sol is None:
        return None
    mu_next_cochain = None
    for c, z in zip(sol, basis):
        if c == 0:
            continue
        zc = z.scale(c)
        mu_next_cochain = zc if mu_next_cochain is None else mu_next_cochain + zc
    if mu_next_cochain is None:
        mu_next_cochain = zero_cochain(0, 2)

    def rule_fn(g1, g2, coch=mu_next_cochain):
        return coch.value((g1, g2)).rename_context((RULE_VAR,))

    extended = ds.extend_with(StructureRule("product", rule_fn))
    rep = check_n_deformation(extended, window, cross_check=False)
    if rep.status == FAIL:
        return None
    return extended


def semiclassical_limit(ds: DeformationSeries, window: int = 3
                        ) -> tuple[ConformalAlgebra, list[CheckReport]]:
    """Extract the bracket [a_L b] = {a_L b}_{mu_1} - {b_{-L-D} a}_{mu_1} and
    verify the Poisson suite; Jacobi is only guaranteed with order >= 2 data,
    so lower-order input yields an explicitly labeled partial report."""
    if ds.order < 1:
        raise PreconditionFailed("semi-classical limit needs at least order 1")
    pre = check_n_deformation(ds, window, cross_check=False)
    if pre.status == FAIL:
        raise PreconditionFailed("series fails the deformation identity", [pre])
    mu1 = ds.mu(1)

    def bfn(g1, g2):
        e12 = mu1.entry(g1, g2)
        e21 = mu1.entry(g2, g1)
        if e12 is None or e21 is None:
            return None
        return e12 - e21.rename_context(("·w",)).subst_dagger((RULE_VAR,))

    out = ConformalAlgebra(f"scl({ds.alg.name})", list(ds.alg.families),
                           product=ds.alg.product,
                           bracket=StructureRule("bracket", bfn),
                           kind=KIND_POISSON)
    reports = check_poisson(out, window)
    if ds.order < 2:
        for r in reports:
            if r.name == "jacobi":
                r.notes.append("partial: series order < 2, Jacobi not guaranteed")
    return out, reports


# ---------------------------------------------------------------------------
# Nijenhuis operators and linear deformations
# ---------------------------------------------------------------------------

def _deformed_product_value(rule: StructureRule, N: LinearRule, a, b) -> LambdaPoly:
    """N(a) op b + a op N(b) - N(a op b) in the rule variable."""
    A, B = const_lp(a), const_lp(b)
    return (pair(rule, const_lp(N.apply(a)), B, RULE_VAR)
            + pair(rule, A, const_lp(N.apply(b)), RULE_VAR)
            - N.apply_lp(pair(rule, A, B, RULE_VAR)))


def nijenhuis_check(P: ConformalAlgebra, N: LinearRule, window: int = 3) -> list[CheckReport]:
    """Both deformed-square identities; N commutes with D by construction."""
    gens = [ModElement.of(g) for g in P.generators(window)]
    reports = []
    for rule, name in ((P.product, "nijenhuis_product"), (P.bracket, "nijenhuis_bracket")):
        if rule is None:
            continue

        def residual(a, b, rule=rule):
            lhs = N.apply_lp(_deformed_product_value(rule, N, a, b))
            rhs = pair(rule, const_lp(N.apply(a)), const_lp(N.apply(b)), RULE_VAR)
            return lhs - rhs

        reports.append(run_tuple_check(
            name, itertools.product(gens, repeat=2), residual,
            notes=["N commutes with D by construction (rule given on generators)"]))
    return reports


def nijenhuis_deform(P: ConformalAlgebra, N: LinearRule, window: int = 3,
                     precheck: bool = True) -> ConformalAlgebra:
    """The deformed structures a o_N b and [a b]_N; a Poisson conformal
    algebra whenever N passes nijenhuis_check, with N a homomorphism from the
    deformed structure to the original."""
    if precheck and suite_fails(nijenhuis_check(P, N, window)):
        raise PreconditionFailed("Nijenhuis identities fail")

    def make(rule, kind):
        def fn(g1, g2):
            return _deformed_product_value(rule, N, ModElement.of(g1), ModElement.of(g2))
        return StructureRule(kind, fn)

    return ConformalAlgebra(f"nij({P.name})", list(P.families),
                            product=make(P.product, "product"),
                            bracket=make(P.bracket, "bracket"),
                            kind=KIND_NC_POISSON)


def nijenhuis_homomorphism_check(P: ConformalAlgebra, deformed: ConformalAlgebra,
                                 N: LinearRule, window: int = 3) -> CheckReport:
    """N(a op_N b) = N(a) op N(b) for both operations."""
    gens = [ModElement.of(g) for g in P.generators(window)]

    def residual(a, b):
        out = LambdaPoly.zero((RULE_VAR, "·r"))
        for orig, defd, mark in ((P.product, deformed.product, 0), (P.bracket, deformed.bracket, 1)):
            lhs = N.apply_lp(pair(defd, const_lp(a), const_lp(b), RULE_VAR))
            rhs = pair(orig, const_lp(N.apply(a)), const_lp(N.apply(b)), RULE_VAR)
            out = out + (lhs - rhs).align((RULE_VAR, "·r")).mul_var("·r", mark)
        return out

    return run_tuple_check("nijenhuis_homomorphism",
                           itertools.product(gens, repeat=2), residual)


def linear_deformation_check(P: ConformalAlgebra, varpi: StructureRule,
                             omega: StructureRule, window: int = 3,
                             t_samples: Sequence[int] = ()) -> list[CheckReport]:
    """(varpi, omega) generates a linear deformation: the pair is itself a
    noncommutative Poisson structure, the three cross conditions hold, and
    the graded sum is a 2-cocycle of the total complex.  All identities are
    polynomial in the deformation parameter (t_samples kept for diagnostics
    only)."""
    gens = [ModElement.of(g) for g in P.generators(window)]
    pair_alg = ConformalAlgebra(f"lin({P.name})", list(P.families),
                                product=varpi, bracket=omega, kind=KIND_NC_POISSON)
    reports = [CheckReport(f"pair_{r.name}", r.status, r.witnesses, r.checked,
                           r.escaped, r.notes)
               for r in check_poisson(pair_alg, window)]

    prod, br = P.product, P.bracket
    sum_LM = {L: 1, M: 1}

    def cross1(a, b, c):
        # Hochschild condition of varpi over the base product
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        t1 = pair(varpi, A.align((M,)), pair(prod, B, C, M), L).align((L, M))
        t2 = pair(prod, A.align((M,)), pair(varpi, B, C, M), L).align((L, M))
        t3 = pair(varpi, pair(prod, A, B, L), C.align((L,)), "·t")
        t3 = t3.align((L, M, "·t")).subst_linear("·t", sum_LM)
        t4 = pair(prod, pair(varpi, A, B, L), C.align((L,)), "·t")
        t4 = t4.align((L, M, "·t")).subst_linear("·t", sum_LM)
        return t1 + t2 - t3 - t4

    def cross2(a, b, c):
        # Chevalley-Eilenberg condition of omega over the base bracket
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        t1 = pair(omega, pair(br, A, B, L), C.align((L,)), "·t")
        t1 = t1.align((L, M, "·t")).subst_linear("·t", sum_LM)
        t2 = pair(omega, A.align((M,)), pair(br, B, C, M), L).align((L, M))
        t3 = pair(omega, B.align((L,)), pair(br, A, C, L), M).align((L, M))
        t4 = pair(br, A.align((M,)), pair(omega, B, C, M), L).align((L, M))
        t5 = pair(br, pair(omega, A, B, L), C.align((L,)), "·t")
        t5 = t5.align((L, M, "·t")).subst_linear("·t", sum_LM)
        t6 = pair(br, B.align((L,)), pair(omega, A, C, L), M).align((L, M))
        return t1 - t2 + t3 - t4 + t5 + t6

    def cross3(a, b, c):
        # mixed condition linking varpi and omega
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        t1 = pair(br, A.align((M,)), pair(varpi, B, C, M), L).align((L, M))
        t2 = pair(varpi, pair(br, A, B, L), C.align((L,)), "·t")
        t2 = t2.align((L, M, "·t")).subst_linear("·t", sum_LM)
        t3 = pair(varpi, B.align((L,)), pair(br, A, C, L), M).align((L, M))
        t4 = pair(prod, pair(omega, A, B, L), C.align((L,)), "·t")
        t4 = t4.align((L, M, "·t")).subst_linear("·t", sum_LM)
        t5 = pair(prod, B.align((L,)), pair(omega, A, C, L), M).align((L, M))
        t6 = pair(omega, A.align((M,)), pair(prod, B, C, M), L).align((L, M))
        return t1 - t2 - t3 - t4 - t5 + t6

    triples = list(itertools.product(gens, repeat=3))
    reports.append(run_tuple_check("cross_product_cocycle", triples,
                                   lambda a, b, c: cross1(a, b, c)))
    reports.append(run_tuple_check("cross_bracket_cocycle", triples,
                                   lambda a, b, c: cross2(a, b, c)))
    reports.append(run_tuple_check("cross_mixed_cocycle", triples,
                                   lambda a, b, c: cross3(a, b, c)))

    # the graded 2-cocycle assertion through the total differential
    from .constructors import adjoint_module

    V = adjoint_module(P)
    graded = {(0, 2): bilinear_cochain(varpi), (2, 0): bilinear_cochain(omega).retag(2, 0)}
    gen_pool = P.generators(window)

    def tuples_of(slots):
        return list(itertools.product(gen_pool[:max(2, min(3, len(gen_pool)))], repeat=slots))

    rep = is_cocycle(P, V, graded, tuples_of)
    rep.name = "fgv_two_cocycle"
    rep.notes.append("d_total(omega + varpi) = 0, cross-checked against the "
                     "three displayed conditions")
    if t_samples:
        rep.notes.append(f"diagnostic t-samples {list(t_samples)}: identities are "
                         "verified symbolically in t, samples not needed for the verdict")
    reports.append(rep)
    return reports


def trivial_deformation_check(P: ConformalAlgebra, varpi: StructureRule,
                              omega: StructureRule, N: LinearRule,
                              window: int = 3) -> CheckReport:
    """The five trivial-deformation equations for the generator N."""
    gens = [ModElement.of(g) for g in P.generators(window)]

    def residual(a, b):
        rows = []
        rows.append(pair(varpi, const_lp(a), const_lp(b), RULE_VAR)
                    - _deformed_product_value(P.product, N, a, b))
        rows.append(N.apply_lp(pair(varpi, const_lp(a), const_lp(b), RULE_VAR))
                    - pair(P.product, const_lp(N.apply(a)), const_lp(N.apply(b)), RULE_VAR))
        rows.append(pair(omega, const_lp(a), const_lp(b), RULE_VAR)
                    - _deformed_product_value(P.bracket, N, a, b))
        rows.append(N.apply_lp(pair(omega, const_lp(a), const_lp(b), RULE_VAR))
                    - pair(P.bracket, const_lp(N.apply(a)), const_lp(N.apply(b)), RULE_VAR))
        out = LambdaPoly.zero((RULE_VAR, "·r"))
        for k, r in enumerate(rows):
            out = out + r.align((RULE_VAR, "·r")).mul_var("·r", k)
        return out

    return run_tuple_check(
        "trivial_deformation", itertools.product(gens, repeat=2), residual,
        notes=["N commutes with D by construction"])
