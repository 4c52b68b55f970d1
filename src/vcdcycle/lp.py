"""Exact rational linear programming (dense two-phase simplex).

Small feasibility problems only: the regularity witnesses of
triangulations (`feasible_ge`).  Triangulation validity needs no LP; see
`polytope.is_valid_triangulation`.  All arithmetic is over Fraction;
Bland's rule guarantees termination.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactq import Q, as_q

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(tab: list[list[Q]], basis: list[int], r: int, c: int) -> None:
    piv = tab[r][c]
    tab[r] = [x / piv for x in tab[r]]
    prow = tab[r]
    for i, row in enumerate(tab):
        if i != r and row[c] != 0:
            f = row[c]
            tab[i] = [x - f * y for x, y in zip(row, prow)]
    basis[r] = c


def _simplex(tab: list[list[Q]], basis: list[int], ncols: int) -> str:
    """Maximize the objective stored in the last tableau row (Bland)."""
    obj = len(tab) - 1
    while True:
        enter = None
        for j in range(ncols):
            if tab[obj][j] < 0:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(obj):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)


def simplex_max(
    c: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence
) -> tuple[str, Optional[Q], Optional[tuple[Q, ...]]]:
    """max c.x  s.t.  A x = b, x >= 0.  Returns (status, value, x)."""
    m = len(a_eq)
    n = len(c)
    a = [[as_q(x) for x in row] for row in a_eq]
    b = [as_q(x) for x in b_eq]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # phase 1: artificial variable per row
    ncols = n + m
    tab = [a[i] + [Q(1) if j == i else Q(0) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    objrow = [Q(0)] * (ncols + 1)
    for i in range(m):  # minimize sum of artificials
        objrow = [x - y for x, y in zip(objrow, tab[i])]
    for j in range(n, n + m):
        objrow[j] = Q(0)
    tab.append(objrow)
    _simplex(tab, basis, ncols)
    if -tab[-1][ncols] != 0:
        return INFEASIBLE, None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tab[i][j] != 0:
                    _pivot(tab, basis, i, j)
                    break

    # phase 2 on the original columns
    rows = [r for i, r in enumerate(tab[:-1]) if basis[i] < n]
    basis2 = [bv for bv in basis if bv < n]
    tab2 = [row[:n] + [row[ncols]] for row in rows]
    obj = [-as_q(x) for x in c] + [Q(0)]
    for i, bv in enumerate(basis2):
        if obj[bv] != 0:
            f = obj[bv]
            obj = [x - f * y for x, y in zip(obj, tab2[i])]
    tab2.append(obj)
    status = _simplex(tab2, basis2, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Q(0)] * n
    for i, bv in enumerate(basis2):
        x[bv] = tab2[i][n]
    value = sum(as_q(ci) * xi for ci, xi in zip(c, x))
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
        r = [as_q(x) for x in row]
        slack = [Q(-1) if j == i else Q(0) for j in range(m)]
        a_eq.append(r + [-x for x in r] + slack)
    c = [Q(0)] * (2 * n + m)
    status, _, sol = simplex_max(c, a_eq, b)
    if status != OPTIMAL:
        return None
    return tuple(sol[j] - sol[n + j] for j in range(n))
