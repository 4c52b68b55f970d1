"""Exact rational feasibility (phase-1 simplex).

Small feasibility problems only, both solved by the one routine
`simplex_max`, which finds some x >= 0 with A x = b.  Every regularity
verdict is one such problem on integer data: Gordan's alternative on the
Gale rows of a triangulation (`polytope.nonregularity_witness`).
`feasible_ge` solves the primal lifting LP, which only writes the heights
of `triangulate`'s certificate (`polytope.is_regular`).  Triangulation
validity needs no LP; see `polytope.is_valid_triangulation`.

The tableau is integer (Edmonds' integer-preserving simplex).  The
rational input is scaled by one common positive denominator, and every
step is the fraction-free `exactq.pivot`, which keeps each row a positive
multiple of the same row of the `Fraction` tableau: every simplex pivot is
positive.  Signs and row ratios therefore equal the rational ones, so
Bland's rule (which also guarantees termination) makes the same pivots and
returns the same vertex as a `Fraction` simplex.  `Fraction` appears only
in the input and in the returned solution.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .exactq import Q, pivot


def simplex_max(a_eq: Sequence[Sequence], b_eq: Sequence) -> Optional[tuple[Q, ...]]:
    """Some x >= 0 with A x = b, for int or Fraction data, or None.

    Phase 1 with one artificial per row, minimizing their sum by Bland's
    rule; that sum is bounded below by 0, so a leaving row always exists.
    At the optimum every artificial is 0: x is read off the rows whose
    basic variable is not an artificial, and an artificial left basic sits
    on a row of rhs 0.
    """
    m, n = len(a_eq), len(a_eq[0])
    a = [list(row) for row in a_eq]
    b = list(b_eq)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # the whole tableau times l; last row: minimize the sum of the artificials
    l = lcm(*(x.denominator for row in a for x in row), *(x.denominator for x in b))
    ncols = n + m
    tab = [
        [x.numerator * (l // x.denominator) for x in a[i]]
        + [l if j == i else 0 for j in range(m)]
        + [b[i].numerator * (l // b[i].denominator)]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    obj = [-sum(col) for col in zip(*tab)]
    obj[n:ncols] = [0] * m
    tab.append(obj)  # row m, replaced by every pivot
    d = 1  # the last pivot
    while True:
        enter = next((j for j in range(ncols) if tab[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a_ie = tab[i][enter]
            if a_ie > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a_ie against rhs_leave / a_leave, both denominators > 0
                lhs = tab[i][ncols] * tab[leave][enter]
                rhs = tab[leave][ncols] * a_ie
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        basis[leave] = enter
        d = pivot(tab, leave, enter, d)
    if tab[m][ncols] != 0:
        return None
    x = [Q(0)] * n
    for row, bv in zip(tab, basis):
        if bv < n:
            x[bv] = Q(row[ncols], d)
    return tuple(x)


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
    sol = simplex_max(a_eq, b)
    if sol is None:
        return None
    return tuple(sol[j] - sol[n + j] for j in range(n))
