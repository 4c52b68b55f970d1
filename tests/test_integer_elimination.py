"""The integer elimination path against the `Fraction` algorithms it
replaced, kept here as oracles: Gauss-Jordan over Q for `solve` and
`nullspace`, and the two-phase `Fraction` simplex with Bland's rule for
`simplex_max` and `feasible_ge`.  Results must be equal, not just
equivalent: the reduced row echelon form is unique, and the integer
phase-1 simplex must make the same pivots and return the same vertex as
the oracle's two phases at a zero objective, where its artificial
drive-out and phase 2 do not move the vertex."""

import random
from fractions import Fraction as Q

import pytest

from vcdcycle import exactq as eq
from vcdcycle import lp

# ---------------------------------------------------------------------------
# oracles


def _rref(rows):
    """Reduced row echelon form over Q: (matrix, pivot columns)."""
    a = [[Q(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    pivots = []
    row = 0
    for col in range(n):
        best = None
        for i in range(row, m):
            x = a[i][col]
            if x != 0 and (best is None or abs(x) < abs(a[best][col])):
                best = i
        if best is None:
            continue
        a[row], a[best] = a[best], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for i in range(m):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return a, pivots


def oracle_solve(m, rhs):
    n = len(m[0]) if m else 0
    red, pivots = _rref([list(r) + [b] for r, b in zip(m, rhs)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for r, col in zip(red, pivots):
        x[col] = r[n]
    return tuple(x)


def oracle_nullspace(m):
    if not m:
        return []
    n = len(m[0])
    red, pivots = _rref(m)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Q(0)] * n
        v[f] = Q(1)
        for r, col in zip(red, pivots):
            v[col] = -r[f]
        basis.append(tuple(v))
    return basis


OPTIMAL, UNBOUNDED, INFEASIBLE = "optimal", "unbounded", "infeasible"


class FractionSimplex:
    """Dense two-phase simplex over Fraction, Bland's rule: max c.x with
    A x = b, x >= 0, as (status, value, x).  Records the sign of every
    artificial drive-out pivot in `drive_out_signs`."""

    def __init__(self):
        self.drive_out_signs = []

    @staticmethod
    def _pivot(tab, basis, r, c):
        piv = tab[r][c]
        tab[r] = [x / piv for x in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[c] != 0:
                f = row[c]
                tab[i] = [x - f * y for x, y in zip(row, tab[r])]
        basis[r] = c

    def _simplex(self, tab, basis, ncols):
        obj = len(tab) - 1
        while True:
            enter = next((j for j in range(ncols) if tab[obj][j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = best = None
            for i in range(obj):
                if tab[i][enter] > 0:
                    ratio = tab[i][ncols] / tab[i][enter]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best, leave = ratio, i
            if leave is None:
                return UNBOUNDED
            self._pivot(tab, basis, leave, enter)

    def simplex_max(self, c, a_eq, b_eq):
        m, n = len(a_eq), len(c)
        a = [[Q(x) for x in row] for row in a_eq]
        b = [Q(x) for x in b_eq]
        for i in range(m):
            if b[i] < 0:
                a[i], b[i] = [-x for x in a[i]], -b[i]
        ncols = n + m
        tab = [a[i] + [Q(int(j == i)) for j in range(m)] + [b[i]] for i in range(m)]
        basis = [n + i for i in range(m)]
        objrow = [Q(0)] * (ncols + 1)
        for row in tab:
            objrow = [x - y for x, y in zip(objrow, row)]
        for j in range(n, n + m):
            objrow[j] = Q(0)
        tab.append(objrow)
        self._simplex(tab, basis, ncols)
        if tab[-1][ncols] != 0:
            return INFEASIBLE, None, None
        for i in range(m):
            if basis[i] >= n:
                for j in range(n):
                    if tab[i][j] != 0:
                        self.drive_out_signs.append(tab[i][j] > 0)
                        self._pivot(tab, basis, i, j)
                        break
        rows = [r for i, r in enumerate(tab[:-1]) if basis[i] < n]
        basis2 = [bv for bv in basis if bv < n]
        tab2 = [row[:n] + [row[ncols]] for row in rows]
        obj = [-Q(x) for x in c] + [Q(0)]
        for i, bv in enumerate(basis2):
            if obj[bv] != 0:
                f = obj[bv]
                obj = [x - f * y for x, y in zip(obj, tab2[i])]
        tab2.append(obj)
        if self._simplex(tab2, basis2, n) == UNBOUNDED:
            return UNBOUNDED, None, None
        x = [Q(0)] * n
        for i, bv in enumerate(basis2):
            x[bv] = tab2[i][n]
        return OPTIMAL, sum(Q(ci) * xi for ci, xi in zip(c, x)), tuple(x)

    def feasible_ge(self, a_ge, b):
        m = len(a_ge)
        if m == 0:
            return ()
        n = len(a_ge[0])
        a_eq = [
            list(row) + [-x for x in row] + [-int(j == i) for j in range(m)]
            for i, row in enumerate(a_ge)
        ]
        status, _, sol = self.simplex_max([0] * (2 * n + m), a_eq, b)
        if status != OPTIMAL:
            return None
        return tuple(sol[j] - sol[n + j] for j in range(n))


# ---------------------------------------------------------------------------
# seeded random rational data


def _rational(rng, zero=0.3):
    if rng.random() < zero:
        return 0
    x = Q(rng.randint(-7, 7), rng.choice([1, 1, 2, 3, 4, 5]))
    return x.numerator if x.denominator == 1 else x


def _matrix(rng, m, n, rank=None):
    """m x n rational matrix; with `rank`, a product of m x rank and rank x n
    factors, so rank-deficient whenever rank < min(m, n)."""
    if rank is None:
        return [[_rational(rng) for _ in range(n)] for _ in range(m)]
    left = [[_rational(rng, 0.1) for _ in range(rank)] for _ in range(m)]
    right = [[_rational(rng, 0.1) for _ in range(n)] for _ in range(rank)]
    return [[sum(l * r for l, r in zip(row, col)) for col in zip(*right)] for row in left]


def _cases(seed, count=150):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["random", "deficient", "zero rows"])
        if kind == "random":
            a = _matrix(rng, m, n)
        elif kind == "deficient":
            a = _matrix(rng, m, n, rank=rng.randint(1, max(1, min(m, n) - 1)))
        else:
            a = _matrix(rng, m, n)
            for i in rng.sample(range(m), rng.randint(1, m)):
                a[i] = [0] * n
        yield rng, kind, a


@pytest.mark.parametrize("seed", [11, 12])
def test_solve_and_nullspace_match_fraction_gauss_jordan(seed):
    kinds = {"consistent": 0, "inconsistent": 0}
    for rng, kind, a in _cases(seed):
        assert eq.nullspace(a) == oracle_nullspace(a), (kind, a)
        if rng.random() < 0.5:  # a right-hand side in the column space
            x = [_rational(rng) for _ in a[0]]
            rhs = [sum(r * v for r, v in zip(row, x)) for row in a]
        else:
            rhs = [_rational(rng) for _ in a]
        got = eq.solve(a, rhs)
        assert got == oracle_solve(a, rhs), (kind, a, rhs)
        kinds["consistent" if got is not None else "inconsistent"] += 1
        if got is not None:
            assert all(sum(Q(r) * v for r, v in zip(row, got)) == b for row, b in zip(a, rhs))
    assert min(kinds.values()) >= 20, kinds


def test_solve_and_nullspace_edge_shapes():
    assert eq.nullspace([]) == oracle_nullspace([]) == []
    assert eq.solve([], []) == oracle_solve([], []) == ()
    zero = [[0, 0, 0], [0, 0, 0]]
    assert eq.nullspace(zero) == oracle_nullspace(zero)
    assert len(eq.nullspace(zero)) == 3
    assert eq.solve(zero, [0, 0]) == (0, 0, 0)
    assert eq.solve(zero, [0, Q(1, 2)]) is None
    with pytest.raises(ValueError):
        eq.solve([[1, 2]], [1, 2])


def _lp(rng, redundant):
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    a = _matrix(rng, m, n)
    b = [_rational(rng) for _ in range(m)]
    if redundant and m > 1:  # last row a signed multiple of another one
        k = rng.randrange(m - 1)
        s = Q(rng.choice([-3, -2, -1, 1, 2]), rng.choice([1, 2]))
        a[-1] = [s * x for x in a[k]]
        b[-1] = s * b[k]
    return a, b


def _oracle_x(oracle, a, b):
    """The oracle's x at a zero objective, or None when it is infeasible."""
    status, _, x = oracle.simplex_max([0] * len(a[0]), a, b)
    assert status != UNBOUNDED
    return None if status == INFEASIBLE else x


@pytest.mark.parametrize("seed", [21, 22])
def test_simplex_matches_fraction_simplex(seed):
    rng = random.Random(seed)
    oracle = FractionSimplex()
    feasible = infeasible = 0
    for t in range(400):
        a, b = _lp(rng, redundant=t % 2 == 0)
        got = lp.simplex_max(a, b)
        assert got == _oracle_x(oracle, a, b), (a, b)
        if got is None:
            infeasible += 1
        else:
            feasible += 1
            assert min(got) >= 0
            assert all(sum(Q(r) * x for r, x in zip(row, got)) == v for row, v in zip(a, b))
        a_ge = _matrix(rng, rng.randint(1, 5), rng.randint(1, 4))
        b_ge = [_rational(rng) for _ in a_ge]
        assert lp.feasible_ge(a_ge, b_ge) == oracle.feasible_ge(a_ge, b_ge), (a_ge, b_ge)
    assert feasible >= 40 and infeasible >= 40, (feasible, infeasible)
    # the oracle's artificial drive-out ran, with negative pivots among its
    # pivots: exactly the cases the phase-1 routine skips
    assert True in oracle.drive_out_signs and False in oracle.drive_out_signs


def test_simplex_rational_data():
    a = [[Q(1, 2), 1, Q(2, 3)], [1, Q(-1, 4), 1]]
    b = [Q(5, 6), Q(3, 7)]
    got = lp.simplex_max(a, b)
    assert got == _oracle_x(FractionSimplex(), a, b)
    assert all(type(v) is Q for v in got)
