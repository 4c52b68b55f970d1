"""Exact rational scalars, vectors and dense linear algebra.

Every verified quantity in this package is computed here, over Q.  No
floating point enters any trusted path.  Inside, all elimination runs over
the integers.  `int_det`, `independent_rows` (behind `int_rank` and every
rank test) and `_gauss_jordan` (behind `solve`, `nullspace` and
`int_det_adjugate`, on the Bareiss `pivot`) are fraction-free Bareiss
eliminations: their divisions are exact and their entries stay minors of
the input, so coefficient growth is polynomial.  The kernels take integer
rows; callers whose data are integer from the start (the sharbly vector
lists, the cosharbly section rays) pass them as they are.
`fractions.Fraction` appears only at the edges: rational input (to
`solve`, `nullspace`, `int_rows`, `primitive_normalize`) is scaled to
primitive integer rows first, and results such as solutions and kernel
vectors are read off the integer tableau as `Fraction(x, p)`.  The same
holds for forms: `voronoi.minimal_vectors` scales a rational Gram matrix to
an integer one, enumerates on its Bareiss minors, and returns only the
minimum as a `Fraction`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Q = Fraction

Vector = tuple[Q, ...]
IntVector = tuple[int, ...]


def as_q(x) -> Q:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec_q(v: Iterable) -> Vector:
    return tuple(as_q(x) for x in v)


def q_str(x: Q) -> str:
    """Serialize a rational as "p" or "p/q"."""
    x = as_q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_Q_FORMAT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def q_parse(s) -> Q:
    """Inverse of q_str: a non-bool int, or a string "p" or "p/q" with q > 0.

    Anything else (floats, booleans, decimal strings, a zero denominator)
    raises ValueError.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _Q_FORMAT.fullmatch(s):
        raise ValueError(f"a rational must be an integer or a string p or p/q, got {s!r}")
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# integer (fraction-free) kernels


def _clear_row(row: Sequence) -> list[int]:
    """Scale an int/Fraction row to a primitive integer row (sign preserved)."""
    l = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (l // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Row-wise integer scaling; preserves rank and right kernel."""
    return [_clear_row(r) for r in rows]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            arow, krow = a[i], a[k]
            for j in range(k + 1, n):
                arow[j] = (arow[j] * pivot - aik * krow[j]) // prev
            arow[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _row_reduce_content(row: Sequence[int]) -> Sequence[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def independent_rows(rows: Sequence[Sequence[int]], limit: int) -> list[int]:
    """Indices of the first `limit` rows, in order, each outside the span of
    the rows before it (fewer when the rows have lower rank).

    One incremental Bareiss pass.  A new row r is reduced by each kept row e
    in turn, e with pivot column c and pivot p = e[c], as
    r <- (p r - r[c] e) / prev, prev being the pivot of the kept row before
    e (1 at the first); when r[c] = 0 that is r <- p r / prev.  Every
    division is exact (Sylvester's identity): after k steps each entry of r
    is a (k+1) x (k+1) minor of the input.  The row is kept, pivoting on its
    last nonzero entry, when something is left.  The picked indices do not
    depend on the pivot columns.
    """
    picked: list[int] = []
    echelon: list[tuple[int, int, Sequence[int]]] = []  # (pivot column, pivot, row)
    for i, r in enumerate(rows):
        prev = 1
        for c, p, e in echelon:
            x = r[c]
            if x:
                r = [(p * y - x * z) // prev for y, z in zip(r, e)]
            elif p != prev:
                r = [p * y // prev for y in r]
            prev = p
        for c in range(len(r) - 1, -1, -1):
            if r[c]:
                echelon.append((c, r[c], r))
                picked.append(i)
                break
        if len(picked) == limit:
            break
    return picked


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, by `independent_rows`."""
    return len(independent_rows(rows, len(rows[0]))) if rows else 0


def pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free (Bareiss) pivot on rows[r][c], in place.

    Every other row becomes (p * row - row[c] * rows[r]) // prev with
    p = rows[r][c], rows whose entry in column c is 0 included; `prev` is
    the previous step's pivot (1 at the start).  Each division is exact
    (Sylvester's identity), and the pivot entries of earlier steps all become
    p, so the integer rows are p times the rational tableau.  Returns p.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        elif p != prev:
            rows[i] = [p * x // prev for x in row]
    return p


def _gauss_jordan(a: list[list[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Integer Gauss-Jordan on `pivot`, in place: (rows, pivot columns, p,
    parity of the row swaps as +-1).

    Every pivot entry ends equal to p, so rows / p is the reduced row
    echelon form, which is unique whatever the pivot rows chosen; the
    smallest nonzero entry of each column is taken.  When the pivot
    columns are the first k, p is the leading k x k minor of the rows as
    swapped.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    pivots: list[int] = []
    prev = 1
    row = 0
    parity = 1
    for col in range(n):
        best = None
        for i in range(row, m):
            x = a[i][col]
            if x and (best is None or abs(x) < abs(a[best][col])):
                best = i
        if best is None:
            continue
        if best != row:
            a[row], a[best] = a[best], a[row]
            parity = -parity
        prev = pivot(a, row, col, prev)
        pivots.append(col)
        row += 1
        if row == m:
            break
    return a, pivots, prev, parity


def int_det_adjugate(a: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det(a), adj(a)) of a nonsingular square integer matrix, with
    adj(a) a = a adj(a) = det(a) I; a singular one raises ValueError.

    `_gauss_jordan` on [a | I] pivots on the columns of a exactly when a is
    nonsingular, and then leaves [p I | R] with R = p a^-1 and p the
    determinant of a with its rows swapped: det(a) = parity * p and
    adj(a) = parity * R.
    """
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    red, pivots, p, parity = _gauss_jordan(rows)
    if pivots[:n] != list(range(n)):
        raise ValueError("adjugate of a singular matrix")
    return parity * p, [[parity * x for x in r[n:]] for r in red]


# ---------------------------------------------------------------------------
# public operations


def solve(m, rhs: Sequence) -> Optional[Vector]:
    """Some exact solution x of m x = rhs, or None if inconsistent.

    Pivot variables take the reduced row echelon values, free ones 0.
    """
    if len(rhs) != len(m):
        raise ValueError("shape mismatch")
    n = len(m[0]) if m else 0
    red, pivots, p, _ = _gauss_jordan([_clear_row(list(r) + [b]) for r, b in zip(m, rhs)])
    if n in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [Q(0)] * n
    for r, col in zip(red, pivots):
        x[col] = Q(r[n], p)
    return tuple(x)


def nullspace(m) -> list[Vector]:
    """Basis of the right kernel of m, one vector per free column f, with
    entry 1 at f and 0 at the other free columns."""
    if not m:
        return []
    n = len(m[0])
    red, pivots, p, _ = _gauss_jordan([_clear_row(r) for r in m])
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Q(0)] * n
        v[f] = Q(1)
        for r, col in zip(red, pivots):
            v[col] = Q(-r[f], p)
        basis.append(tuple(v))
    return basis


def primitive_normalize(v: Sequence) -> IntVector:
    """Canonical representative of the line through v.

    Returns the integer vector with content 1 and positive leading nonzero
    entry that is a rational multiple of v (entries int or Fraction).
    """
    if all(type(x) is int for x in v):  # no denominators to clear
        ints, g = v, gcd(*v)
    else:
        ints, g = _clear_row(v), 1
    for x in ints:
        if x:
            return tuple(y // g for y in ints) if x > 0 else tuple(-y // g for y in ints)
    raise ValueError("primitive_normalize of the zero vector")


# ---------------------------------------------------------------------------
# symmetric-matrix vectorization (coordinates on the space of quadratic
# forms: upper triangle, row-major)


def rank1_vec(v: Sequence[int]) -> IntVector:
    """Upper-triangle coordinates of the rank-1 form v v^t."""
    n = len(v)
    return tuple(v[i] * v[j] for i in range(n) for j in range(i, n))


def vec_sym(vec: Sequence, n: int) -> list[list[Q]]:
    """Symmetric n x n matrix rows from upper-triangle coordinates."""
    m = [[Q(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = as_q(vec[k])
            k += 1
    return m


def vec_trace(vec: Sequence, n: int) -> Q:
    t = 0
    k = 0
    for i in range(n):
        t += vec[k]
        k += n - i
    return t


def pairing_row(v: Sequence[int]) -> IntVector:
    """Row a(v) with a(v) . y_uppertri = v^t Y v for symmetric Y.

    Off-diagonal coordinates are doubled so the standard dot product
    against upper-triangle coordinates computes the trace pairing.
    """
    n = len(v)
    return tuple(
        v[i] * v[j] if i == j else 2 * v[i] * v[j]
        for i in range(n)
        for j in range(i, n)
    )


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, r, c)) for c in bt) for r in a)


def mat_vec_int(a: Sequence[Sequence[int]], v: Sequence[int]) -> IntVector:
    return tuple(sum(map(mul, r, v)) for r in a)


def int_matrix_inverse(a: Sequence[Sequence[int]]) -> tuple:
    """Inverse of an integer matrix with determinant +-1."""
    d, adj = int_det_adjugate(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(d * x for x in row) for row in adj)
