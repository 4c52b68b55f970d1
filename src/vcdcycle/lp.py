"""Exact rational linear programming (dense two-phase simplex).

Small feasibility problems only.  Every regularity verdict is one
`simplex_max` with a zero objective on integer data: Gordan's alternative
on the Gale rows of a triangulation (`polytope.nonregularity_witness`).
`feasible_ge` solves the primal lifting LP, which only writes the heights
of `triangulate`'s certificate (`polytope.is_regular`).  Triangulation
validity needs no LP; see `polytope.is_valid_triangulation`.

The tableau is integer (Edmonds' integer-preserving simplex).  The
rational input is scaled by one common positive denominator, and every
step is the fraction-free `exactq.pivot`, which keeps each row a positive
multiple of the same row of the `Fraction` tableau: the simplex pivots
are positive, and a negative pivot of the artificial drive-out has its
row negated first.  Signs and row ratios therefore equal the rational
ones, so Bland's rule (which also guarantees termination) makes the same
pivots and returns the same vertex as a `Fraction` simplex.  `Fraction`
appears only in the input and in the returned solution.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .exactq import Q, pivot

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _simplex(tab: list[list[int]], basis: list[int], ncols: int, d: int) -> tuple[str, int]:
    """Maximize the objective stored in the last tableau row (Bland).

    `d` is the last pivot; returns the status and the new last pivot.
    """
    obj = len(tab) - 1
    while True:
        enter = None
        for j in range(ncols):
            if tab[obj][j] < 0:
                enter = j
                break
        if enter is None:
            return OPTIMAL, d
        leave = None
        for i in range(obj):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a against rhs_leave / a_leave, both denominators > 0
                lhs = tab[i][ncols] * tab[leave][enter]
                rhs = tab[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED, d
        basis[leave] = enter
        d = pivot(tab, leave, enter, d)


def simplex_max(
    c: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence
) -> tuple[str, Optional[Q], Optional[tuple[Q, ...]]]:
    """max c.x  s.t.  A x = b, x >= 0, for int or Fraction data.

    Returns (status, value, x).
    """
    m = len(a_eq)
    n = len(c)
    a = [list(row) for row in a_eq]
    b = list(b_eq)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # phase 1: artificial variable per row; the whole tableau times l
    l = lcm(*(x.denominator for row in a for x in row), *(x.denominator for x in b))
    ncols = n + m
    tab = [
        [x.numerator * (l // x.denominator) for x in a[i]]
        + [l if j == i else 0 for j in range(m)]
        + [b[i].numerator * (l // b[i].denominator)]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    objrow = [-sum(col) for col in zip(*tab)] if tab else [0] * (ncols + 1)
    for j in range(n, n + m):  # minimize the sum of the artificials
        objrow[j] = 0
    tab.append(objrow)
    _, d = _simplex(tab, basis, ncols, 1)
    if tab[-1][ncols] != 0:
        return INFEASIBLE, None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    if tab[i][j] < 0:
                        tab[i] = [-x for x in tab[i]]
                    basis[i] = j
                    d = pivot(tab, i, j, d)
                    break

    # phase 2 on the original columns, objective -c scaled to integers
    rows = [r for i, r in enumerate(tab[:-1]) if basis[i] < n]
    basis2 = [bv for bv in basis if bv < n]
    tab2 = [row[:n] + [row[ncols]] for row in rows]
    lc = lcm(*(x.denominator for x in c))
    c_int = [x.numerator * (lc // x.denominator) for x in c]
    obj = [-d * x for x in c_int] + [0]
    for row, bv in zip(tab2, basis2):
        f = c_int[bv]
        if f:
            obj = [x + f * y for x, y in zip(obj, row)]
    tab2.append(obj)
    status, d = _simplex(tab2, basis2, n, d)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Q(0)] * n
    for row, bv in zip(tab2, basis2):
        x[bv] = Q(row[n], d)
    value = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, value, tuple(x)


def feasible_ge(a_ge: Sequence[Sequence], b: Sequence) -> Optional[tuple[Q, ...]]:
    """Some free-sign x with A x >= b, or None.

    Encoded as A(u - w) - s = b with u, w, s >= 0.
    """
    m = len(a_ge)
    if m == 0:
        return ()
    n = len(a_ge[0])
    a_eq = []
    for i, row in enumerate(a_ge):
        slack = [-1 if j == i else 0 for j in range(m)]
        a_eq.append(list(row) + [-x for x in row] + slack)
    status, _, sol = simplex_max([0] * (2 * n + m), a_eq, b)
    if status != OPTIMAL:
        return None
    return tuple(sol[j] - sol[n + j] for j in range(n))
