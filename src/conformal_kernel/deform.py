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

from .algebra import (
    INNER,
    OUTER,
    SWAP,
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
    _pair_into,
    _triple_assoc_residual,
    check_poisson,
    commutator_bracket,
    const_lp,
    leibniz,
    nested_sum,
    pair,
    run_tuple_check,
    stack_rows,
    suite_fails,
    table_residual,
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
from .symcore import Accumulator, GenIndex, LambdaPoly, ModElement

L, M = "L", "M"


def regular_bimodule(alg: ConformalAlgebra) -> ConformalModule:
    """A acting on itself by left/right multiplication (associative side)."""
    return ConformalModule(f"reg({alg.name})", list(alg.families),
                           left=alg.product, right=alg.product,
                           lie=alg.bracket, kind="assoc_module")


_HBAR = "ħ·"


def _hbar_gen(g: GenIndex, k: int) -> GenIndex:
    """g times hbar^k as a generator of the series-index algebra."""
    return GenIndex(_HBAR + g.family, g.params + (k,))


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

    def hbar_algebra(self) -> ConformalAlgebra:
        """A[hbar]/hbar^{N+1} as an algebra whose generators carry the series
        power as a trailing parameter; the independent associativity path.

        Its families only name the lifted generators: one parameter range
        cannot hold both the base family's and the powers 0..N.  The sweep
        in check_n_deformation uses the base window's generators, each
        lifted to every power 0..N."""
        N = self.order
        fams = [GenFamily(_HBAR + f.name, f.arity + 1, 0, f.hi) for f in self.alg.families]

        def split(g: GenIndex):
            return GenIndex(g.family[len(_HBAR):], g.params[:-1]), g.params[-1]

        def tag(me: ModElement, k: int) -> ModElement:
            return me.relabel(lambda g: _hbar_gen(g, k))

        def fn(g1, g2):
            b1, k1 = split(g1)
            b2, k2 = split(g2)
            acc = Accumulator((RULE_VAR,))
            for j in range(0, N + 1 - k1 - k2):
                e = self.mu(j).entry(b1, b2)
                if e is None:
                    return None
                acc.add_lp(e.apply_mod(lambda me, k=k1 + k2 + j: tag(me, k)))
            return acc.build()

        return ConformalAlgebra(f"hbar({self.alg.name})", fams,
                                product=StructureRule("product", fn),
                                bracket=StructureRule.zero("bracket"),
                                kind=KIND_NC_POISSON)


def _convolution_terms(ds: DeformationSeries, n: int, lo: int) -> list[tuple]:
    """The term table of sum_{r+s=n} {a_L {b_M c}_{mu_s}}_{mu_r} -
    {{a_L b}_{mu_s}_{L+M} c}_{mu_r} over r, s >= lo."""
    return [term for r in range(lo, n + 1 - lo)
            for term in ((INNER, ds.mu(r), ds.mu(n - r), 1), (OUTER, ds.mu(r), ds.mu(n - r), -1))]


def _convolution_residual(ds: DeformationSeries, n: int, a, b, c) -> LambdaPoly:
    """The order-n convolution identity at (a, b, c): r and s from 0."""
    return nested_sum(_convolution_terms(ds, n, 0), a, b, c).build()


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
    d_H mu_1 = 0.  The residual is the convolution value; d_H mu_1 is
    evaluated on the same triple, and a triple where the two differ fails
    the check with a note."""
    if ds.order < 1:
        raise PreconditionFailed("series has no first-order term")
    mu1 = bilinear_cochain(ds.mu(1))
    dmu1 = d_h(ds.alg, regular_bimodule(ds.alg), mu1)
    disagree = 0

    def residual(a, b, c):
        nonlocal disagree
        direct = _convolution_residual(ds, 1, *map(ModElement.of, (a, b, c)))
        if dmu1.value((a, b, c)).rename_context((L, M)) != direct:
            disagree += 1
        return direct

    rep = run_tuple_check(
        "infinitesimal_cocycle",
        itertools.product(ds.alg.generators(window), repeat=3),
        residual,
        notes=["cross-asserted against the Hochschild differential of mu_1"],
    )
    if disagree:
        rep.status = FAIL
        rep.notes[-1] += f" (DISAGREES with d_H mu_1 on {disagree} tuples)"
    return rep


def equivalence_check(ds: DeformationSeries, ds2: DeformationSeries,
                      phi: LinearRule, window: int = 3) -> CheckReport:
    """mu_1 - mu_1' = d_H phi: Id + hbar*phi is a homomorphism mod hbar^2."""
    gens = [ModElement.of(g) for g in ds.alg.generators(window)]
    prod = ds.alg.product

    def residual(a, b):
        A, B = const_lp(a), const_lp(b)
        acc = Accumulator((L,))
        _pair_into(acc, ds.mu(1), A, B, ({L: 1}, 0))
        _pair_into(acc, ds2.mu(1), A, B, ({L: 1}, 0), -1)
        return _deformed_product(acc, prod, phi, a, b, L, -1).build()

    return run_tuple_check("equivalence", itertools.product(gens, repeat=2), residual)


def obstruction(ds: DeformationSeries) -> Cochain:
    """theta_n as a (0, 3)-cochain: minus the order-(n+1) convolution sum
    over r, s >= 1, the terms that do not hold mu_{n+1}; d_H theta_n = 0
    whenever the series is a conformal n-deformation."""
    terms = [(shape, o, i, -sign) for shape, o, i, sign in _convolution_terms(ds, ds.order + 1, 1)]
    ctx = canon_vars(2)

    def value(gens):
        return nested_sum(terms, *map(ModElement.of, gens)).build().rename_context(ctx)

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

def _deformed_product(acc: Accumulator, rule: StructureRule, N: LinearRule, a, b,
                      var: str, scale) -> Accumulator:
    """acc += scale * (N(a) op_var b + a op_var N(b) - N(a op_var b)); returns acc."""
    A, B = const_lp(a), const_lp(b)
    _pair_into(acc, rule, const_lp(N.apply(a)), B, ({var: 1}, 0), scale)
    _pair_into(acc, rule, A, const_lp(N.apply(b)), ({var: 1}, 0), scale)
    acc.add(N.apply_lp(pair(rule, A, B, var)), -scale)
    return acc


def _minus_images(value: LambdaPoly, rule: StructureRule, N: LinearRule, a, b) -> Accumulator:
    """value - N(a) op N(b), in the rule variable, unbuilt."""
    acc = Accumulator((RULE_VAR,))
    acc.add_lp(value)
    _pair_into(acc, rule, const_lp(N.apply(a)), const_lp(N.apply(b)), ({RULE_VAR: 1}, 0), -1)
    return acc


def nijenhuis_check(P: ConformalAlgebra, N: LinearRule, window: int = 3) -> list[CheckReport]:
    """Both deformed-square identities; N commutes with D by construction."""
    gens = [ModElement.of(g) for g in P.generators(window)]
    reports = []
    for rule, name in ((P.product, "nijenhuis_product"), (P.bracket, "nijenhuis_bracket")):
        if rule is None:
            continue

        def residual(a, b, rule=rule):
            deformed = _deformed_product(Accumulator((RULE_VAR,)), rule, N, a, b, RULE_VAR, 1)
            return _minus_images(N.apply_lp(deformed), rule, N, a, b).build()

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
            return _deformed_product(Accumulator((RULE_VAR,)), rule, N, ModElement.of(g1),
                                     ModElement.of(g2), RULE_VAR, 1).build()
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
            _minus_images(N.apply_lp(pair(defd, const_lp(a), const_lp(b), RULE_VAR)), orig, N, a, b)
            for orig, defd in ((P.product, deformed.product), (P.bracket, deformed.bracket))])

    return run_tuple_check("nijenhuis_homomorphism",
                           itertools.product(gens, repeat=2), residual)


def linear_deformation_check(P: ConformalAlgebra, varpi: StructureRule,
                             omega: StructureRule, window: int = 3) -> list[CheckReport]:
    """(varpi, omega) generates a linear deformation: the pair is itself a
    noncommutative Poisson structure, the three cross conditions hold, and
    the graded sum is a 2-cocycle of the total complex.  All identities are
    polynomial in the deformation parameter t, so they are checked
    symbolically in t."""
    gens = [ModElement.of(g) for g in P.generators(window)]
    pair_alg = ConformalAlgebra(f"lin({P.name})", list(P.families),
                                product=varpi, bracket=omega, kind=KIND_NC_POISSON)
    reports = [CheckReport(f"pair_{r.name}", r.status, r.witnesses, r.checked,
                           r.escaped, r.notes)
               for r in check_poisson(pair_alg, window)]

    prod, br = P.product, P.bracket
    # the parts linear in t of associativity, Jacobi (negated) and Leibniz
    # for the product prod + t*varpi and the bracket br + t*omega
    cross = {
        # Hochschild condition of varpi over the base product
        "cross_product_cocycle": ((INNER, varpi, prod, 1), (INNER, prod, varpi, 1),
                                  (OUTER, varpi, prod, -1), (OUTER, prod, varpi, -1)),
        # Chevalley-Eilenberg condition of omega over the base bracket
        "cross_bracket_cocycle": ((OUTER, omega, br, 1), (INNER, omega, br, -1), (SWAP, omega, br, 1),
                                  (INNER, br, omega, -1), (OUTER, br, omega, 1), (SWAP, br, omega, 1)),
        # mixed condition linking varpi and omega
        "cross_mixed_cocycle": leibniz(varpi, br) + leibniz(prod, omega),
    }
    triples = list(itertools.product(gens, repeat=3))
    reports += [run_tuple_check(name, triples, table_residual(terms)) for name, terms in cross.items()]

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
            acc = Accumulator((RULE_VAR,))
            acc.add_lp(ab)
            rows.append(_deformed_product(acc, base, N, a, b, RULE_VAR, -1))
            rows.append(_minus_images(N.apply_lp(ab), base, N, a, b))
        return stack_rows(rows)

    return run_tuple_check(
        "trivial_deformation", itertools.product(gens, repeat=2), residual,
        notes=["N commutes with D by construction"])
