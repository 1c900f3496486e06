"""Exact linear algebra over Q: fraction-free sparse elimination for the ansatz solvers."""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm

from .symcore import Q, qify


def solve_exact(rows: list[list[Q]], rhs: list[Q]) -> list[Q] | None:
    """Solve A x = b over Q; returns one solution (free variables set to 0)
    or None when the system is inconsistent.

    The free variables are the non-pivot columns of an echelon form of A,
    which the row space of A fixes, so the solution does not depend on the
    order of the rows.  Elimination is fraction-free (Bareiss) on sparse
    rows: each distinct row of [A | b], cleared of denominators, is reduced
    against the pivot rows so far, leading columns in increasing order, by
    r <- a r - f p with its content divided out, and kept if not zero.  Back
    substitution divides once per pivot, and x is checked exactly on every
    distinct row (ArithmeticError if one fails)."""
    if not rows:
        return []
    ncols = len(rows[0])
    distinct: dict[tuple, dict[int, int]] = {}  # row -> its primitive integer form
    for row, b in zip(rows, rhs):
        key = (tuple(compress(range(ncols), row)), tuple(filter(None, row)), b)
        if key not in distinct:
            den = lcm(b.denominator, *(v.denominator for v in key[1]))
            distinct[key] = _primitive({k: v.numerator * (den // v.denominator) for k, v
                                        in zip(key[0] + (ncols,), key[1] + (b,)) if v})
    pivots: dict[int, dict[int, int]] = {}  # leading column -> row, rhs at key ncols
    for r in distinct.values():
        # a step clears column c and adds only columns after it
        while hits := [k for k in r if k in pivots]:
            c = min(hits)
            p = pivots[c]
            g = gcd(p[c], r[c])
            a, f = p[c] // g, r[c] // g
            r = {k: a * r.get(k, 0) - f * p.get(k, 0) for k in r.keys() | p.keys()}
            r = _primitive({k: v for k, v in r.items() if v})
        lead = min((k for k in r if k < ncols), default=None)
        if lead is None:
            if r:
                return None
            continue
        pivots[lead] = r
    x = _back_substitute(pivots, ncols)
    den = lcm(*(v.denominator for v in x))
    X = [v.numerator * (den // v.denominator) for v in x] + [-den]
    if any(sum(v * X[k] for k, v in r.items()) for r in distinct.values()):
        raise ArithmeticError("solve_exact: x does not satisfy the system")
    return x


def _primitive(r: dict[int, int]) -> dict[int, int]:
    """The integer row r with its content divided out."""
    g = gcd(*r.values())
    return r if g <= 1 else {k: v // g for k, v in r.items()}


def _back_substitute(pivots: dict[int, dict[int, int]], ncols: int) -> list[Q]:
    """x with 0 at the non-pivot columns and p . (x, -1) = 0 for each pivot row p."""
    x: list[Q] = [0] * ncols + [-1]
    for c in sorted(pivots, reverse=True):
        x[c] = qify(Q(-sum(v * x[k] for k, v in pivots[c].items() if k > c), pivots[c][c]))
    return x[:ncols]
