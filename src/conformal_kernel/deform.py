"""Truncated formal deformations of commutative associative conformal
algebras, obstruction theory, semi-classical limits, Nijenhuis operators and
linear deformations of noncommutative Poisson conformal algebras.

The deformation parameter is a series index: a deformation of order N is the
list of bilinear rules mu_0..mu_N (mu_0 the undeformed product) and every
statement is an order-by-order polynomial identity.  Two independent code
paths verify associativity of the truncated product: the direct convolution
identity per order, and the ordinary associativity sweep on an auxiliary
algebra whose generators carry the series index as an extra parameter.  That
sweep lifts the base window's generators to every series power 0..N and keeps
only the triples whose powers sum to at most N: every other triple has a zero
residual in A[hbar]/hbar^{N+1} whatever the mu's are.
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
    KIND_ASSOCIATIVE,
    KIND_NC_POISSON,
    KIND_POISSON,
    LinearRule,
    PreconditionFailed,
    RULE_VAR,
    StructureRule,
    UnboundedAnsatz,
    _triple_assoc_residual,
    check_poisson,
    commutator_bracket,
    const_lp,
    inner_first,
    outer_first,
    pair,
    run_tuple_check,
    stack_rows,
    suite_fails,
    swapped,
)
from .cohomology import (
    AnsatzBounds,
    Cochain,
    bilinear_cochain,
    canon_vars,
    cochain_basis,
    d_h,
    is_cocycle,
    solve_ansatz,
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


_HBAR = "ħ·"


def _hbar_gen(g: GenIndex, k: int, prefix: str = _HBAR) -> GenIndex:
    """g times hbar^k as a generator of the series-index algebra."""
    return GenIndex(prefix + g.family, g.params + (k,))


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

    def hbar_algebra(self, prefix: str = _HBAR) -> ConformalAlgebra:
        """A[hbar]/hbar^{N+1} as an algebra whose generators carry the series
        power as a trailing parameter; the independent associativity path.

        Its families only name the lifted generators: one parameter range
        cannot hold both the base family's and the powers 0..N.  The sweep
        in check_n_deformation uses the base window's generators, each
        lifted to every power 0..N."""
        N = self.order
        fams = [GenFamily(prefix + f.name, f.arity + 1, 0, f.hi) for f in self.alg.families]

        def split(g: GenIndex):
            return GenIndex(g.family[len(prefix):], g.params[:-1]), g.params[-1]

        def tag(me: ModElement, k: int) -> ModElement:
            return ModElement({_hbar_gen(g, k, prefix): p for g, p in me.terms.items()})

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
        out = (out + inner_first(ds.mu(r), A, pair(ds.mu(s), B, C, M))
               - outer_first(ds.mu(r), pair(ds.mu(s), A, B, L), C))
    return out


def _hbar_associativity(ds: DeformationSeries, window: int) -> CheckReport:
    """Associativity of A[hbar]/hbar^{N+1} on the base window's generators
    lifted to the series powers 0..N.  A triple whose powers sum past N is
    left out: a product of powers k1 + k2 > N is an empty sum, and every
    power in either bracketing is at least k1 + k2 + k3, so its residual is
    zero whatever the mu's are."""
    N = ds.order
    base = ds.alg.generators(window)
    lifted = [[ModElement.of(_hbar_gen(g, k)) for g in base] for k in range(N + 1)]
    powers = [ks for ks in itertools.product(range(N + 1), repeat=3) if sum(ks) <= N]
    prod = ds.hbar_algebra().product
    return run_tuple_check(
        "associativity",
        (t for ks in powers for t in itertools.product(*(lifted[k] for k in ks))),
        lambda a, b, c: _triple_assoc_residual(prod, a, b, c),
    )


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
        alt = _hbar_associativity(ds, window)
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
            out = (out + outer_first(ds.mu(r), pair(ds.mu(s), A, B, L), C)
                   - inner_first(ds.mu(r), A, pair(ds.mu(s), B, C, M)))
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
    extension is re-verified through check_n_deformation.  Tuples that
    escape a rule window are left out; solve_extension counts them."""
    return solve_extension(ds, bounds, window)[0]


def solve_extension(ds: DeformationSeries, bounds: AnsatzBounds,
                    window: int = 3) -> tuple[DeformationSeries | None, int]:
    """extend_deformation's result and the number of window triples left
    out of the solve because d_H of some ansatz element or theta_n escapes
    a rule window there."""
    if bounds is None:
        raise UnboundedAnsatz("extension solving needs ansatz bounds")
    theta = obstruction(ds)
    V = regular_bimodule(ds.alg)
    basis = cochain_basis(0, 2, ds.alg.families, bounds)
    tuples = itertools.product(ds.alg.generators(window), repeat=3)
    sol, escaped = solve_ansatz(lambda z: d_h(ds.alg, V, z), basis, theta, tuples)
    if sol is None:
        return None, escaped
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
        return None, escaped
    return extended, escaped


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
    # the bracket is the commutator of mu_1, read as a product of its own
    mu1_alg = ConformalAlgebra("mu1", list(ds.alg.families), product=ds.mu(1),
                               kind=KIND_ASSOCIATIVE)
    out = ConformalAlgebra(f"scl({ds.alg.name})", list(ds.alg.families),
                           product=ds.alg.product,
                           bracket=commutator_bracket(mu1_alg),
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
        return stack_rows([
            N.apply_lp(pair(defd, const_lp(a), const_lp(b), RULE_VAR))
            - pair(orig, const_lp(N.apply(a)), const_lp(N.apply(b)), RULE_VAR)
            for orig, defd in ((P.product, deformed.product), (P.bracket, deformed.bracket))])

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

    def cross1(a, b, c):
        # Hochschild condition of varpi over the base product
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        return (inner_first(varpi, A, pair(prod, B, C, M))
                + inner_first(prod, A, pair(varpi, B, C, M))
                - outer_first(varpi, pair(prod, A, B, L), C)
                - outer_first(prod, pair(varpi, A, B, L), C))

    def cross2(a, b, c):
        # Chevalley-Eilenberg condition of omega over the base bracket
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        return (outer_first(omega, pair(br, A, B, L), C)
                - inner_first(omega, A, pair(br, B, C, M))
                + swapped(omega, B, pair(br, A, C, L))
                - inner_first(br, A, pair(omega, B, C, M))
                + outer_first(br, pair(omega, A, B, L), C)
                + swapped(br, B, pair(omega, A, C, L)))

    def cross3(a, b, c):
        # mixed condition linking varpi and omega
        A, B, C = const_lp(a), const_lp(b), const_lp(c)
        return (inner_first(br, A, pair(varpi, B, C, M))
                - outer_first(varpi, pair(br, A, B, L), C)
                - swapped(varpi, B, pair(br, A, C, L))
                - outer_first(prod, pair(omega, A, B, L), C)
                - swapped(prod, B, pair(omega, A, C, L))
                + inner_first(omega, A, pair(prod, B, C, M)))

    triples = list(itertools.product(gens, repeat=3))
    reports.append(run_tuple_check("cross_product_cocycle", triples, cross1))
    reports.append(run_tuple_check("cross_bracket_cocycle", triples, cross2))
    reports.append(run_tuple_check("cross_mixed_cocycle", triples, cross3))

    # the graded 2-cocycle assertion through the total differential
    from .constructors import adjoint_module

    V = adjoint_module(P)
    graded = {(0, 2): bilinear_cochain(varpi), (2, 0): bilinear_cochain(omega).retag(2, 0)}
    gen_pool = P.generators(window)

    def tuples_of(slots):
        return list(itertools.product(gen_pool, repeat=slots))

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
        for rule, base in ((varpi, P.product), (omega, P.bracket)):
            ab = pair(rule, const_lp(a), const_lp(b), RULE_VAR)
            rows.append(ab - _deformed_product_value(base, N, a, b))
            rows.append(N.apply_lp(ab)
                        - pair(base, const_lp(N.apply(a)), const_lp(N.apply(b)), RULE_VAR))
        return stack_rows(rows)

    return run_tuple_check(
        "trivial_deformation", itertools.product(gens, repeat=2), residual,
        notes=["N commutes with D by construction"])
