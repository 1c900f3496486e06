import itertools
import multiprocessing
import os
import random
import threading

import pytest

from conformal_kernel import cohomology
from conformal_kernel.algebra import (
    RULE_VAR,
    ConformalAlgebra,
    GenFamily,
    LinearRule,
    PreconditionFailed,
    StructureRule,
    WindowEscape,
    eval_op,
    pair,
    const_lp,
)
from conformal_kernel.cohomology import (
    AnsatzBounds,
    Cochain,
    _ansatz_columns,
    _tagged_module,
    bilinear_cochain,
    canon_vars,
    check_action_module_laws,
    check_complex_identities,
    cochain_basis,
    cochain_dtilde,
    cochain_zero_on,
    coboundary_solve,
    d_ce,
    d_ce_degree0,
    d_h,
    d_total,
    hochschild_module_action,
    is_cocycle,
    linear_cochain,
    random_cochain,
    random_gen_tuples,
    zero_cochain,
)
from conformal_kernel.constructors import (
    ConformalModule,
    OrdinaryAlgebra,
    adjoint_module,
    from_derivation,
    ord_table,
)
from conformal_kernel.deform import obstruction, regular_bimodule
from conformal_kernel.manifest import parse_file
from conformal_kernel.report import render_reports
from conformal_kernel.symcore import (
    Accumulator, DPoly, GenIndex, LambdaPoly, ModElement, Q, gen, substitute)

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


def xg(m):
    return gen("x", m)


@pytest.fixture(scope="module")
def setup():
    def prod(g1, g2):
        return ModElement.of(xg(g1.params[0] + g2.params[0]))

    ordx = OrdinaryAlgebra("polyx", [GenFamily("x", 1, lo=0)], product=prod, bracket=ord_table({}))
    D = LinearRule(lambda g: ModElement.of(xg(g.params[0] - 1), DPoly.const(g.params[0]))
                   if g.params[0] >= 1 else ModElement.zero())
    P = from_derivation(ordx, D, window=2)
    V = adjoint_module(P)
    return P, V


def tuples_for(slots, count=3, seed=5):
    return random_gen_tuples(slots, count, seed)


class TestDifferentialBasics:
    def test_zero_cochain_maps_to_zero(self, setup):
        P, V = setup
        for m, n in [(0, 2), (2, 0), (2, 1)]:
            z = zero_cochain(m, n)
            assert cochain_zero_on(d_ce(P, V, z), tuples_for(m + n + 1))
            g1 = z if n else z.retag(m - 1, 1)
            assert cochain_zero_on(d_h(P, V, g1), tuples_for(m + n + 1))

    def test_one_cochain_dce_formula(self, setup):
        # d phi (a_L b) = a_L phi(b) - b_{-L-D} phi(a) - phi([a_L b])
        P, V = setup
        phi = linear_cochain(lambda g: ModElement.of(xg(g.params[0]), DPoly.d_power(1)))
        dphi = d_ce(P, V, phi)
        a = ModElement.of(xg(2))
        b = ModElement.of(xg(1))
        t1 = eval_op(P.bracket, a, phi.value((xg(1),)).coefficient(()), "c1")
        t2 = eval_op(P.bracket, b, phi.value((xg(2),)).coefficient(()), "w")
        t2 = substitute(t2, {"w": ({"c1": -1}, -1)}, ("c1",))
        br = eval_op(P.bracket, a, b, "c1")
        t3 = LambdaPoly.zero(("c1",))
        for (e,), me in br.items():
            acc = ModElement.zero()
            for g, p in me.items():
                acc = acc + ModElement.combine(
                    (ModElement.of(xg(g.params[0]), DPoly.d_power(1)), j, d) for j, d in p)
            t3 = t3 + LambdaPoly.of(("c1",), acc, (e,))
        assert dphi.value((xg(2), xg(1))) == t1 - t2 - t3

    def test_degree0_rule(self, setup):
        # v -> (a -> a_{-D} v), flagged as the reconstructed degree-0 rule
        P, V = setup
        v = ModElement.of(xg(1))
        c = d_ce_degree0(V, v)
        got = c.value((xg(2),))
        want = substitute(eval_op(P.bracket, ModElement.of(xg(2)), v, "w"), {"w": ({}, -1)}, ())
        assert got == want.align(())

    def test_dh_of_hom_is_product_defect(self, setup):
        P, V = setup
        phi = linear_cochain(lambda g: ModElement.of(xg(g.params[0])))
        d = d_h(P, V, phi)
        # identity map: a o phi(b) - phi(a o b) + phi(a) o b = a o b
        got = d.value((xg(1), xg(1)))
        want = eval_op(P.product, ModElement.of(xg(1)), ModElement.of(xg(1)), "c1")
        assert got == want

    @pytest.mark.parametrize("extra", [("z", "w"), ("z",)])
    def test_value_with_variables_beyond_the_forms_raises(self, extra):
        # a (0, 2)-cochain is read at one slot form plus the final slot's: a
        # value with two more variables than its context has no form for the
        # last one, and one more is not read as the final slot's form
        ctx, exp = canon_vars(1) + extra, (0,) + (1,) * len(extra)
        coch = Cochain(0, 2, lambda gens: LambdaPoly(ctx, {exp: {(xg(0), 0): 1}}))
        with pytest.raises(ValueError):
            cohomology.eval_cochain(coch, cohomology._gen_args([xg(0), xg(1)]),
                                    [({"a": 1}, 0)], ("a",))

    @pytest.mark.parametrize("twice, m, n, arity", [
        ("d_ce", 2, 0, 4), ("d_ce", 2, 1, 5), ("d_h", 0, 2, 4)])
    def test_differentials_expand_into_one_accumulator(self, monkeypatch, twice, m, n, arity):
        # every cochain evaluation inside a differential, and the
        # symmetrized values it reads, expand straight into the caller's
        # accumulator: no substitute, and no built value added back
        import sys

        alg = parse_file(os.path.join(DEMOS, "ex2_17.alg")).algebra()
        V = adjoint_module(alg)
        diff = {"d_ce": d_ce, "d_h": d_h}[twice]
        image = diff(alg, V, diff(alg, V, random_cochain(m, n, seed=3)))
        t, = random_gen_tuples(arity, 1, 5)
        calls = {"substitute": 0, "add": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, module in list(sys.modules.items()):
            if name.startswith("conformal_kernel") and hasattr(module, "substitute"):
                monkeypatch.setattr(module, "substitute", counting("substitute", module.substitute))
        monkeypatch.setattr(Accumulator, "add", counting("add", Accumulator.add))
        assert image.value(t).is_zero()
        assert calls == {"substitute": 0, "add": 0}


class TestComplexIdentities:
    def test_suite_passes(self, setup):
        P, V = setup
        reports = check_complex_identities(P, V, samples=6, seed=3, max_degree=4,
                                           tuples_per_sample=1)
        assert all(r.status == "pass" for r in reports)
        names = {r.name for r in reports}
        assert "square_dh_dce_bottom_row" in names
        assert "d_total_squared_zero" in names

    def test_corrupted_module_breaks_square(self, setup):
        P, V = setup
        bad_lie = P.bracket.override(
            (xg(1), xg(1)), P.bracket.entry(xg(1), xg(1)).scale(2))
        badV = type(V)("bad", V.families, left=V.left, right=V.right, lie=bad_lie,
                       kind="poisson_module")
        gamma = random_cochain(2, 0, seed=9)
        lhs = d_h(P, badV, d_ce(P, badV, gamma))
        rhs = d_ce(P, badV, d_h(P, badV, gamma))
        diffs = [lhs.value(t) - rhs.value(t) for t in tuples_for(4, 6, seed=11)]
        assert any(not d.is_zero() for d in diffs)

    def test_module_on_its_own_family_is_refused(self, setup):
        # the random cochains take values on the algebra's family x, so a
        # module declared on a family t would be swept with values it does
        # not have
        P, V = setup
        onT = ConformalModule("onT", [GenFamily("t", 1, lo=0)], left=V.left, right=V.right,
                              lie=V.lie, kind=V.kind)
        with pytest.raises(PreconditionFailed):
            check_complex_identities(P, onT, samples=1, max_degree=2)
        with pytest.raises(PreconditionFailed):
            check_action_module_laws(P, onT, samples=1)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the pooled path needs the fork start method")
    def test_pool_and_serial_reports_are_identical(self, monkeypatch):
        # the swapped control fails every section with witnesses, so the
        # merge order of witnesses across units is exercised too
        P = parse_file(os.path.join(DEMOS, "ex2_17_swapped.alg")).algebra()
        V = adjoint_module(P)
        real_get_context = multiprocessing.get_context

        def run(cores):
            pools = []
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            monkeypatch.setattr(multiprocessing, "get_context",
                                lambda method=None: pools.append(method)
                                or real_get_context(method))
            reports = check_complex_identities(P, V, samples=2, seed=0, max_degree=3)
            return reports, pools

        pooled, pools = run({0, 1})
        assert pools == ["fork"]
        serial, pools = run({0})
        assert pools == []
        assert len(pooled) == 9
        assert all(r.status == "fail" and r.witnesses for r in pooled)
        for a, b in zip(pooled, serial, strict=True):
            assert (a.name, a.status, a.checked, a.escaped) == \
                (b.name, b.status, b.checked, b.escaped)
            assert [k for k, _ in a.witnesses] == [k for k, _ in b.witnesses]
            assert [v for _, v in a.witnesses] == [v for _, v in b.witnesses]
        assert render_reports("cohomology", P.name, pooled, {}) == \
            render_reports("cohomology", P.name, serial, {})

    def test_no_fork_beside_other_threads(self, monkeypatch):
        # a forked child would copy locks that the caller's other threads hold
        P = parse_file(os.path.join(DEMOS, "ex2_17_swapped.alg")).algebra()
        V = adjoint_module(P)
        pools, out = [], []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: pools.append(method))
        worker = threading.Thread(target=lambda: out.append(
            check_complex_identities(P, V, samples=1, seed=0, max_degree=2)))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert pools == []
        assert len(out[0]) == 6 and sum(r.checked for r in out[0]) > 0


class TestSymmetry:
    def test_lie_cochain_dagger_skew(self, setup):
        gamma = random_cochain(2, 0, seed=21)
        v = gamma.value((xg(1), xg(2)))
        w = substitute(gamma.value((xg(2), xg(1))), {"c1": ({"c1": -1}, -1)}, ("c1",))
        assert v == w.scale(-1)

    def test_mixed_cochain_plain_skew(self, setup):
        gamma = random_cochain(2, 1, seed=22)
        v = gamma.value((xg(1), xg(2), xg(1)))
        w = gamma.value((xg(2), xg(1), xg(1)))
        w = substitute(w, {"c1": ({"c2": 1}, 0), "c2": ({"c1": 1}, 0)}, ("c1", "c2"))
        assert v == w.scale(-1)

    def test_dce_image_is_symmetric(self, setup):
        P, V = setup
        phi = random_cochain(2, 0, seed=23)
        img = d_ce(P, V, phi)  # (3,0)
        v = img.value((xg(0), xg(1), xg(2)))
        w = img.value((xg(1), xg(0), xg(2)))
        w = substitute(w, {"c1": ({"c2": 1}, 0), "c2": ({"c1": 1}, 0)}, ("c1", "c2"))
        assert v == w.scale(-1)


class TestModuleAction:
    def test_zero_cases(self, setup):
        P, V = setup
        gamma = random_cochain(0, 2, seed=31)
        act = hochschild_module_action(P, V, ModElement.zero(), gamma, "·L")
        assert cochain_zero_on(act, tuples_for(2))
        z = zero_cochain(0, 2)
        act = hochschild_module_action(P, V, ModElement.of(xg(1)), z, "·L")
        assert cochain_zero_on(act, tuples_for(2))

    def test_module_laws(self, setup):
        P, V = setup
        reports = {r.name: r for r in check_action_module_laws(P, V, samples=8, seed=2, n=2)}
        assert reports["action_sesquilinearity"].status == "pass"
        assert reports["action_bracket_law"].status == "pass"
        # the bare D-compatibility law carries a structural defect; the
        # engine verifies the identity with the defect term included exactly
        assert reports["action_dtilde_bare_law"].status == "fail"
        assert reports["action_dtilde_with_defect_term"].status == "pass"

    def test_dtilde_of_an_action_cochain(self, setup):
        # D~ on x_L gamma keeps L as an extra variable and shifts by the slot
        # variable only: (D + c1)(x_L gamma) = D(x_L gamma) + c1 (x_L gamma)
        P, V = setup
        act = hochschild_module_action(P, V, ModElement.of(xg(1)),
                                       random_cochain(0, 2, seed=3), "L")
        dt = cochain_dtilde(act)
        assert dt.context == ("c1", "L")
        values = [(act.value(t), dt.value(t)) for t in tuples_for(2, count=6)]
        assert any(not v.is_zero() for v, _ in values)
        for v, w in values:
            assert w == v.apply_mod(lambda me: me.d_apply(1)) + v.mul_var("c1")


class TestCocycleAndSolve:
    def test_structure_pair_is_two_cocycle(self, setup):
        # the algebra's own (product, bracket) pair: d of (varpi, omega) = 0
        P, V = setup
        varpi = bilinear_cochain(P.product)
        omega = bilinear_cochain(P.bracket).retag(2, 0)
        rep = is_cocycle(P, V, {(0, 2): varpi, (2, 0): omega},
                         lambda s: tuples_for(s, 4, seed=13))
        assert rep.status == "pass"

    def test_escaped_tuples_leave_cocycle_test_inconclusive(self, tmp_path):
        # ex2_17 capped at max 3: most tuples reach outside the family, and
        # one checked tuple must not read as a pass
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "ex2_17_capped.alg"
        path.write_text(text.replace("family x arity 1 min 0\n",
                                     "family x arity 1 min 0 max 3\n"))
        P = parse_file(str(path)).algebra()
        rep = is_cocycle(P, adjoint_module(P), {(0, 2): bilinear_cochain(P.product)},
                         lambda k: random_gen_tuples(k, 4, 1, max_param=3))
        assert (rep.status, rep.checked, rep.escaped) == ("inconclusive", 1, 7)

    def test_roundtrip_degree1(self, setup):
        P, V = setup
        bounds = AnsatzBounds(d_deg=1, l_deg=1, param_deg=1)
        target_rule = lambda g: ModElement.of(xg(g.params[0]), DPoly.d_power(1, g.params[0]))
        N = linear_cochain(target_rule)
        image = d_total(P, V, {(1, 0): N})
        sol, escaped = coboundary_solve(P, V, image, bounds, lambda s: tuples_for(s, 5, seed=17))
        assert sol is not None and escaped == 0
        # image of the solution equals the image of N on fresh tuples
        img2 = d_total(P, V, sol)
        for key in image:
            for t in tuples_for(key[0] + key[1], 4, seed=23):
                assert image[key].value(t) == img2[key].value(t)

    def test_zero_target_solves_to_zero_image(self, setup):
        P, V = setup
        bounds = AnsatzBounds(d_deg=1, l_deg=1, param_deg=1)
        target = {(0, 2): zero_cochain(0, 2), (2, 0): zero_cochain(2, 0)}
        sol, escaped = coboundary_solve(P, V, target, bounds, lambda s: tuples_for(s, 4, seed=29))
        assert sol is not None and escaped == 0
        img = d_total(P, V, sol)
        for key, coch in img.items():
            assert cochain_zero_on(coch, tuples_for(coch.slots, 4, seed=31))

    def test_h1_membership(self, setup):
        # gamma(a) = a_{-D} v is a cocycle and a coboundary; the solver finds v
        P, V = setup
        v = ModElement.of(xg(1))
        gamma = d_ce_degree0(V, v)
        image = d_total(P, V, {(1, 0): gamma})
        for key, coch in image.items():
            assert cochain_zero_on(coch, tuples_for(coch.slots, 4, seed=37))


class TestDegreeZeroSolve:
    def test_b1_membership_decided(self, setup):
        # gamma(a) = a_{-D} v lies in the coboundaries; the solver recovers
        # a witness v whose image reproduces gamma exactly
        P, V = setup
        v = ModElement.of(xg(2), DPoly.d_power(1)) + ModElement.of(xg(1))
        gamma = d_ce_degree0(V, v)
        sol, escaped = coboundary_solve(P, V, {(1, 0): gamma}, AnsatzBounds(d_deg=2, l_deg=0),
                                        lambda s: tuples_for(s, 6, seed=41))
        assert sol is not None and (0, 0) in sol and escaped == 0
        back = d_ce_degree0(V, sol[(0, 0)])
        for t in tuples_for(1, 6, seed=43):
            assert back.value(t) == gamma.value(t)

    def test_non_coboundary_rejected(self, setup):
        # the identity map is a cocycle for the product but not of the form
        # a -> a_{-D} v within the ansatz
        P, V = setup
        gamma = linear_cochain(lambda g: ModElement.of(g))
        sol, escaped = coboundary_solve(P, V, {(1, 0): gamma}, AnsatzBounds(d_deg=2, l_deg=0),
                                        lambda s: tuples_for(s, 6, seed=47))
        assert sol is None and escaped == 0


def ex2_17(doubled=False):
    """ex2_17.alg, or a copy with the product entry x[1] x[1] doubled."""
    P = parse_file(os.path.join(DEMOS, "ex2_17.alg")).algebra()
    if doubled:
        x1 = xg(1)
        prod = P.product.override((x1, x1), P.product.entry(x1, x1).scale(2))
        P = ConformalAlgebra(P.name, list(P.families), product=prod, bracket=P.bracket,
                             kind=P.kind)
    return P


class TestAnsatzColumns:
    """The ansatz columns, built by linearity from one differential
    evaluation of the generic ansatz element per tuple, equal the direct
    images."""

    @pytest.mark.parametrize("window, doubled", [(1, False), (2, False), (2, True)])
    def test_d_h_columns_equal_direct_images(self, window, doubled):
        P = ex2_17(doubled)
        V = regular_bimodule(P)
        basis = cochain_basis(0, 2, P.families, AnsatzBounds(2, 2))
        images = [d_h(P, V, z) for z in basis]
        W = _tagged_module(V)
        for t in itertools.product(P.generators(window), repeat=3):
            cols = _ansatz_columns(lambda U, z: d_h(P, U, z), W, basis, t)
            assert cols == [img.value(t) for img in images]

    @pytest.mark.parametrize("key", [(2, 0), (0, 2)])
    def test_d_total_columns_equal_direct_images(self, setup, key):
        P, V = setup
        basis = cochain_basis(*key, P.families, AnsatzBounds(1, 1, 1))
        images = [d_total(P, V, {key: z}) for z in basis]
        assert len(images[0]) == 2
        W = _tagged_module(V)
        for tk in images[0]:
            for t in tuples_for(3, 3, seed=53):
                cols = _ansatz_columns(lambda U, z: d_total(P, U, {key: z})[tk], W, basis, t)
                assert cols == [img[tk].value(t) for img in images]

    def test_system_is_built_from_the_images(self, monkeypatch):
        # the system solve_exact receives is the one the direct images give:
        # rows in the order first met, column by column, each value's terms
        # sorted, the target last
        seen = []
        solve = cohomology.solve_exact
        monkeypatch.setattr(cohomology, "solve_exact",
                            lambda rows, rhs: seen.append((rows, rhs)) or solve(rows, rhs))
        ds = parse_file(os.path.join(DEMOS, "ex2_17.alg")).deformation().truncate(1)
        P, V = ds.alg, regular_bimodule(ds.alg)
        basis = cochain_basis(0, 2, P.families, AnsatzBounds(2, 2))
        tuples = list(itertools.product(P.generators(1), repeat=3))
        sol, escaped = cohomology.solve_ansatz(lambda U, z: d_h(P, U, z), V, basis,
                                               obstruction(ds), tuples)
        assert sol is not None and escaped == 0

        values = [d_h(P, V, z) for z in basis] + [obstruction(ds)]
        rows: dict = {}
        for j, coch in enumerate(values):
            for t in tuples:
                for exp, g, k, c in sorted(coch.value(t).flat()):
                    rows.setdefault((t, exp, g, k), [0] * len(values))[j] += c
        assert seen == [([r[:-1] for r in rows.values()], [r[-1] for r in rows.values()])]

    def test_value_dependent_site_raises(self):
        # a "differential" that reads its argument again at a site named by
        # the value it read first: that site holds a tagged generator
        ctx = canon_vars(1)

        def odd(_V, gamma):
            def value(t):
                v = gamma.value(t)
                for _exp, g, _k, _c in v.flat():
                    v = v + gamma.value((g, g))
                return v
            return Cochain(0, 2, value)

        basis = cochain_basis(0, 2, [GenFamily("x", 1, lo=0)], AnsatzBounds(0, 0, 0))
        assert odd(None, basis[0]).value((xg(1), xg(2))) == LambdaPoly.of(
            ctx, ModElement.of(xg(3))) + LambdaPoly.of(ctx, ModElement.of(xg(6)))
        with pytest.raises(RuntimeError, match="a site that holds an ansatz term"):
            _ansatz_columns(odd, None, basis, (xg(1), xg(2)))

    def test_untagged_image_term_raises(self):
        # a "differential" that adds a constant term is affine, not linear:
        # that image term carries no tag
        ctx = canon_vars(1)

        def affine(_V, gamma):
            one = LambdaPoly.of(ctx, ModElement.of(xg(0)))
            return Cochain(0, 2, lambda t: gamma.value(t) + one)

        basis = cochain_basis(0, 2, [GenFamily("x", 1, lo=0)], AnsatzBounds(0, 0, 0))
        with pytest.raises(RuntimeError, match="holds no ansatz term"):
            _ansatz_columns(affine, None, basis, (xg(1), xg(2)))

    def test_escape_propagates_per_tuple(self, tmp_path):
        # on a family capped at max 3 a column can escape while the target
        # does not; solve_ansatz leaves such tuples out and counts them
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "ex2_17_capped.alg"
        path.write_text(text.replace("family x arity 1 min 0\n",
                                     "family x arity 1 min 0 max 3\n"))
        ds = parse_file(str(path)).deformation().truncate(1)
        P, V = ds.alg, regular_bimodule(ds.alg)
        basis = cochain_basis(0, 2, P.families, AnsatzBounds(2, 2))
        # every basis value stays inside the family
        for z in basis:
            for t in itertools.product(P.generators(3), repeat=2):
                assert all(P.families[0].contains(g.params) for _e, g, _k, _c in z.value(t).flat())
        with pytest.raises(WindowEscape):
            _ansatz_columns(lambda U, z: d_h(P, U, z), _tagged_module(V), basis,
                            (xg(0), xg(1), xg(3)))
        tuples = list(itertools.product(P.generators(2), repeat=3))
        sol, escaped = cohomology.solve_ansatz(lambda U, z: d_h(P, U, z), V, basis,
                                               obstruction(ds), tuples)
        assert (sol is not None, escaped) == (True, 10)

    def test_coboundary_solve_leaves_escapes_out(self, tmp_path):
        # on the capped family the (0, 2) and (2, 0) images reach past x[3]
        # on some tuples; those points are left out and counted, no traceback
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "ex2_17_capped.alg"
        path.write_text(text.replace("family x arity 1 min 0\n",
                                     "family x arity 1 min 0 max 3\n"))
        P = parse_file(str(path)).algebra()
        graded = {(0, 2): bilinear_cochain(P.product),
                  (2, 0): bilinear_cochain(P.bracket).retag(2, 0)}
        _sol, escaped = coboundary_solve(
            P, adjoint_module(P), graded, AnsatzBounds(1, 1, 1),
            lambda s: list(itertools.product(P.generators(3), repeat=s))[:20])
        assert escaped > 0


class TestSlotEvaluationOracle:
    """Slot evaluation rebuilt in commuting symbols on seeded cochains: D
    and the generators are sympy symbols.  A cochain value is read at its
    slot forms f_p by replacing c_{p+1} with f_p; a D-power on a non-final
    slot becomes (-f_p)^k and one on the final slot (D + sum of f_p)^k."""

    BIDEGREES = [(0, 2), (2, 0), (0, 3), (2, 1)]
    ITEM_GENS = tuple(xg(k) for k in range(3))
    ALL_GENS = tuple(xg(k) for k in range(10))

    @pytest.fixture
    def sympy(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def sym(sympy, p):
        D = sympy.Symbol("D")
        expr = sympy.Integer(0)
        for exp, g, k, c in p.flat():
            mono = sympy.Rational(Q(c).numerator, Q(c).denominator) * D ** k
            for v, e in zip(p.context, exp):
                mono *= sympy.Symbol(v) ** e
            expr += mono * sympy.Symbol(repr(g))
        return sympy.expand(expr)

    def small_item(self, rng, ctx):
        """One generator with one or two D-powers up to 2, exponents up to 1."""
        g = rng.choice(self.ITEM_GENS)
        exp = tuple(rng.randint(0, 1) for _ in ctx)
        ks = rng.sample(range(3), rng.randint(1, 2))
        return LambdaPoly(ctx, {exp: {(g, k): Q(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                                      for k in ks}})

    def rand_rule(self, rng):
        """A bracket table on x[0..2] with values on x[0..3]."""
        table = {}
        for g1 in self.ITEM_GENS:
            for g2 in self.ITEM_GENS:
                total = g1.params[0] + g2.params[0]
                tgt = xg(total - rng.randint(0, 1) if total else 0)
                exp, k = (rng.randint(0, 1),), rng.randint(0, 1)
                table[g1, g2] = LambdaPoly((RULE_VAR,), {exp: {(tgt, k): rng.choice((-2, -1, 1, 3))}})
        return StructureRule.from_table("bracket", table), table

    def sym_pair(self, sympy, table, u, w, form):
        """u_f w: u's D becomes -f, w's D becomes D + f, the rule variable f."""
        D, v = sympy.symbols("D " + RULE_VAR)
        out = sympy.Integer(0)
        for (g1, g2), val in table.items():
            cu = u.coeff(sympy.Symbol(repr(g1))).xreplace({D: -form})
            cw = w.coeff(sympy.Symbol(repr(g2))).xreplace({D: D + form})
            out += cu * cw * self.sym(sympy, val).xreplace({v: form})
        return sympy.expand(out)

    def sym_eval(self, sympy, gamma, args, forms):
        """gamma on argument expressions with non-final slot p at forms[p]."""
        D = sympy.Symbol("D")
        shift = D + sum(forms, sympy.Integer(0))
        slot_syms = [sympy.Symbol(c) for c in canon_vars(gamma.slots - 1)]
        parts = []
        for a in args:
            coeffs = [(g, a.coeff(sympy.Symbol(repr(g)))) for g in self.ALL_GENS]
            parts.append([(g, c) for g, c in coeffs if c != 0])
        out = sympy.Integer(0)
        for combo in itertools.product(*parts):
            val = self.sym(sympy, gamma.value(tuple(g for g, _c in combo)))
            val = val.xreplace(dict(zip(slot_syms, forms)))
            coeff = combo[-1][1].xreplace({D: shift})
            for (_g, c), f in zip(combo, forms):
                coeff *= c.xreplace({D: -f})
            out += coeff * val
        return sympy.expand(out)

    @staticmethod
    def layouts(s):
        """gamma's slot layouts over s + 1 items with one pair (i, j), i < j;
        a pair holding the final item sits in the final slot."""
        out = []
        for i, j in itertools.combinations(range(s + 1), 2):
            rest = [t for t in range(s + 1) if t not in (i, j)]
            for order in itertools.permutations(rest + [(i, j)]):
                if j == s and order[-1] != (i, j):
                    continue
                out.append(list(order))
        return out

    @pytest.mark.parametrize("m, n", BIDEGREES)
    def test_eval_pair_in_slot(self, sympy, m, n):
        s = m + n
        rng = random.Random(100 * m + n)
        gamma = random_cochain(m, n, seed=61 + 7 * m + n, d_max=1, l_max=1)
        ivars = canon_vars(s) + (None,)
        ctx = ("a",) + canon_vars(s)
        D = sympy.Symbol("D")
        dagger = -sum(sympy.symbols(ivars[:-1]), sympy.Integer(0)) - D
        all_layouts = self.layouts(s)
        picked = rng.sample(all_layouts, 3)
        # the dagger slot (the final item in a non-final slot), and the pair
        # in the final slot, each at least once
        picked += [next(lay for lay in all_layouts if s in lay[:-1]),
                   next(lay for lay in all_layouts if isinstance(lay[-1], tuple))]
        nonzero = 0
        for layout in picked:
            rule, table = self.rand_rule(rng)
            items = [self.small_item(rng, ("a",)) for _ in range(s + 1)]
            syms = [self.sym(sympy, it) for it in items]
            (i, j), = [slot for slot in layout if isinstance(slot, tuple)]
            args, forms = [], []
            for slot in layout:
                if slot == (i, j):
                    args.append(self.sym_pair(sympy, table, syms[i], syms[j], sympy.Symbol(ivars[i])))
                    forms.append(sympy.Symbol(ivars[i]) + (sympy.Symbol(ivars[j]) if ivars[j] else 0))
                else:
                    args.append(syms[slot])
                    forms.append(sympy.Symbol(ivars[slot]) if ivars[slot] else dagger)
            got = cohomology._eval_pair_in_slot(gamma, rule, items, ivars, layout, ctx)
            assert got.context == ctx
            want = self.sym_eval(sympy, gamma, args, forms[:-1])
            assert sympy.expand(self.sym(sympy, got) - want) == 0, layout
            nonzero += want != 0
        assert nonzero >= 3

    def test_pair_in_slot_into_scales_and_keeps_prior_contents(self):
        # scale 3 into an accumulator that already holds a value: prior
        # contents plus 3 times the built evaluation, so a lost scale, sign
        # or monomial offset shows
        rng = random.Random(29)
        gamma = random_cochain(2, 1, seed=83, d_max=1, l_max=1)
        ivars = canon_vars(3) + (None,)
        ctx = ("a",) + canon_vars(3)
        layout = [3, (0, 2), 1]  # the dagger item, then the pair, in slots 1 and 2
        rule, _table = self.rand_rule(rng)
        items = [self.small_item(rng, ("a",)) for _ in range(4)]
        prior = self.small_item(rng, ctx)
        acc = Accumulator(ctx)
        acc.add_lp(prior)
        cohomology._pair_in_slot_into(acc, gamma, rule, items, ivars, layout, 3)
        once = cohomology._eval_pair_in_slot(gamma, rule, items, ivars, layout, ctx)
        assert not once.is_zero() and not prior.is_zero()
        assert acc.build() == prior + once.scale(3)

    @pytest.mark.parametrize("m, n", BIDEGREES)
    def test_symmetrize(self, sympy, m, n):
        s = m + n
        raw = random_cochain(0, s, seed=67 + 5 * m + n).value
        sym_value = cohomology.symmetrize(raw, m, n)
        base = sympy.symbols(canon_vars(s - 1))
        dagger = -sum(base, sympy.Integer(0)) - sympy.Symbol("D")
        nonzero = 0
        for gens in random_gen_tuples(s, 4, seed=71 + s):
            want = sympy.Integer(0)
            for perm in itertools.permutations(range(m)):
                order = list(perm) + list(range(m, s))
                v = self.sym(sympy, raw(tuple(gens[t] for t in order)))
                repl = {base[p]: base[order[p]] if order[p] < s - 1 else dagger for p in range(s - 1)}
                sign = sympy.combinatorics.Permutation(list(perm)).signature() if m else 1
                want += sign * v.xreplace(repl)
            got = sym_value(gens)
            assert got.context == canon_vars(s - 1)
            assert sympy.expand(self.sym(sympy, got) - want) == 0, gens
            nonzero += want != 0
        assert nonzero >= 2
