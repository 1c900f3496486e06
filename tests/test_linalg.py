import random
from fractions import Fraction as Q

import pytest

from conformal_kernel import linalg
from conformal_kernel.linalg import solve_exact


def rand_system(rng, nrows, ncols, rank):
    """Rows drawn from the span of `rank` random sparse rows, with repeats."""
    basis = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else Q(0)
              for _ in range(ncols)] for _ in range(rank)]
    rows = []
    while len(rows) < nrows:
        coefs = [rng.randint(-2, 2) for _ in basis]
        rows.append([sum(c * b[j] for c, b in zip(coefs, basis)) for j in range(ncols)])
        if rng.random() < 0.3:
            rows.append(rows[-1][:])
    return rows


def residual_zero(rows, rhs, x):
    return all(sum(a * xi for a, xi in zip(row, x)) == b for row, b in zip(rows, rhs))


class TestSolveExact:
    def test_consistent_systems_solve_exactly(self):
        rng = random.Random(3)
        for _ in range(200):
            ncols = rng.randint(1, 7)
            rows = rand_system(rng, rng.randint(1, 10), ncols, rng.randint(1, 5))
            x0 = [Q(rng.randint(-3, 3)) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
            x = solve_exact(rows, rhs)
            assert x is not None and residual_zero(rows, rhs, x)
            # the answer (free variables 0) does not depend on the row order
            order = list(range(len(rows)))
            rng.shuffle(order)
            assert solve_exact([rows[i] for i in order], [rhs[i] for i in order]) == x

    def test_free_variables_are_zero(self):
        # x0 + x1 = 2, x2 free: the pivot column takes the value
        assert solve_exact([[Q(1), Q(1), Q(0)]], [Q(2)]) == [Q(2), Q(0), Q(0)]

    def test_inconsistent_systems_return_none(self):
        rng = random.Random(4)
        for _ in range(100):
            ncols = rng.randint(1, 6)
            rows = rand_system(rng, rng.randint(1, 8), ncols, rng.randint(1, 4))
            rows = [row for row in rows if any(row)] or [[Q(1)] * ncols]
            rhs = [sum(row) for row in rows]
            rows.append(rows[0][:])
            rhs.append(rhs[0] + 1)
            assert solve_exact(rows, rhs) is None

    def test_a_wrong_answer_raises(self, monkeypatch):
        # solve_exact substitutes its answer into every distinct row before
        # returning it: a back substitution that is off by one in one
        # coordinate is caught
        rows = [[Q(1), Q(1), Q(0)], [Q(0), Q(1), Q(-1)]]
        rhs = [Q(2), Q(1, 2)]
        assert solve_exact(rows, rhs) == [Q(3, 2), Q(1, 2), Q(0)]
        back = linalg._back_substitute
        monkeypatch.setattr(linalg, "_back_substitute",
                            lambda pivots, ncols: [v + (j == 1) for j, v in
                                                   enumerate(back(pivots, ncols))])
        with pytest.raises(ArithmeticError, match="does not satisfy"):
            solve_exact(rows, rhs)


def fraction_elimination(rows, rhs):
    """Gauss-Jordan on sparse Fraction rows, each scaled to a leading 1:
    the elimination solve_exact used before it went fraction-free, kept as
    an oracle for its answers."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = {}
    seen = set()
    for row, b in zip(rows, rhs):
        r = {c: v for c, v in enumerate(row) if v}
        if b:
            r[ncols] = b
        key = tuple(r.items())
        if key in seen:
            continue
        seen.add(key)
        c = -1
        while True:
            hits = [k for k in r if c < k < ncols and k in pivots]
            if not hits:
                break
            c = min(hits)
            f = r[c]
            for k, v in pivots[c].items():
                nv = r.get(k, 0) - f * v
                if nv:
                    r[k] = nv
                else:
                    del r[k]
        lead = min((k for k in r if k < ncols), default=None)
        if lead is None:
            if r:
                return None
            continue
        inv = Q(1) / r[lead]
        pivots[lead] = {k: v * inv for k, v in r.items()}
    x = [Q(0)] * ncols
    for c in sorted(pivots, reverse=True):
        s = Q(0)
        for k, v in pivots[c].items():
            if k == ncols:
                s += v
            elif k > c:
                s -= v * x[k]
        x[c] = s
    return x


class TestAgainstFractionElimination:
    def test_random_systems_with_denominators(self):
        rng = random.Random(11)
        solved = 0
        for _ in range(200):
            ncols = rng.randint(1, 9)
            rows = rand_system(rng, rng.randint(1, 12), ncols, rng.randint(1, 6))
            rhs = [Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3 else
                   sum(a * Q(j + 1, 2) for j, a in enumerate(row)) for row in rows]
            x = fraction_elimination(rows, rhs)
            assert solve_exact(rows, rhs) == x
            solved += x is not None
        assert 20 < solved < 200

    def test_entries_that_grow_under_elimination(self):
        # a dense integer system whose cross-multiplied entries grow with
        # every step; the answer is exact and equals the oracle's
        n = 9
        rows = [[Q((i + 2) ** j + (i * j) % 7) for j in range(n)] for i in range(n)]
        rows.append([a + b for a, b in zip(rows[0], rows[3])])
        x0 = [Q((-1) ** j * (j + 1), j + 2) for j in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
        x = solve_exact(rows, rhs)
        assert x == fraction_elimination(rows, rhs) == x0
