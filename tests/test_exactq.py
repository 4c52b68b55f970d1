from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdcycle import data
from vcdcycle import exactq as eq


def test_rank_examples():
    assert eq.int_rank(eq.int_rows([[1, 0], [0, 1]])) == 2
    assert eq.int_rank(eq.int_rows([[0] * 3] * 3)) == 0
    cols = list(zip(*data.D4_VECTORS))
    assert eq.int_rank(eq.int_rows(cols)) == 4  # 4 x 12 vertex matrix


def test_det_examples():
    assert eq.int_det([[1, 0], [0, 1]]) == 1
    assert eq.int_det([[0, 1], [1, 0]]) == -1
    assert eq.int_det([[2, 1], [1, 2]]) == 3
    with pytest.raises(ValueError):
        eq.int_det([[1, 2, 3]])


def test_solve_examples():
    assert eq.solve([[1, 0], [0, 1]], [1, 2]) == (1, 2)
    assert eq.solve([[0]], [1]) is None
    assert eq.solve([[1, 1], [1, -1]], [2, 0]) == (1, 1)


def test_solve_postcondition():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rhs = [6, 12, 2]
    x = eq.solve(m, rhs)
    assert x is not None
    for row, b in zip(m, rhs):
        assert sum(F(a) * v for a, v in zip(row, x)) == b


def test_affine_dim_examples():
    assert eq.affine_dim([(5, 7)]) == 0
    assert eq.affine_dim([(0,), (1,), (2,)]) == 1
    assert eq.affine_dim([(0, 0), (1, 0), (1, 1), (0, 1)]) == 2
    with pytest.raises(ValueError):
        eq.affine_dim([])


def test_nullspace_examples():
    assert eq.nullspace([[1, 0], [0, 1]]) == []
    (k,) = eq.nullspace([[1, 1]])
    assert k[0] == -k[1] != 0
    # homogenized square corners, as columns
    pts = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
    mat = list(zip(*pts))
    (k,) = eq.nullspace(mat)
    scaled = eq.primitive_normalize(k)
    assert scaled in ((1, -1, 1, -1), (-1, 1, -1, 1))


def test_primitive_normalize_examples():
    assert eq.primitive_normalize((2, 4)) == (1, 2)
    assert eq.primitive_normalize((-1, 0, 3)) == (1, 0, -3)
    assert eq.primitive_normalize((F(2, 3), F(-4, 3))) == (1, -2)
    with pytest.raises(ValueError):
        eq.primitive_normalize((0, 0))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda v: any(v)))
def test_primitive_normalize_idempotent(v):
    p = eq.primitive_normalize(v)
    assert eq.primitive_normalize(p) == p


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(lambda v: any(v)),
    st.fractions(min_value=F(-8), max_value=F(8)).filter(lambda a: a != 0),
)
def test_primitive_normalize_scale_invariant(v, a):
    assert eq.primitive_normalize([a * x for x in v]) == eq.primitive_normalize(v)


@settings(max_examples=40)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_det_rank_relation(n, rng):
    m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    assert (eq.int_det(m) != 0) == (eq.int_rank(eq.int_rows(m)) == n)


def test_affine_dim_of_independent_points():
    import random

    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 4)
        while True:
            pts = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(k + 1)]
            if eq.affine_dim(pts) == k:
                break
        assert eq.affine_dim(pts) == k


def oracle_affine_dim(points):
    """The differencing affine_dim that homogenization replaced: the rank of
    the differences p - p_0, computed in Fraction arithmetic."""
    pts = [eq.vec_q(p) for p in points]
    if not pts:
        raise ValueError("affine_dim of an empty point list")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points of mixed ambient dimension")
    if len(pts) == 1:
        return 0
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    return eq.int_rank(eq.int_rows(diffs))


def _rational(rng):
    return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))


def _point_set(rng, d, kind):
    """Seeded rational points in Q^d: one point repeated, points on a line,
    points on a random affine k-flat, or a full-dimensional set."""
    p0 = [_rational(rng) for _ in range(d)]
    count = rng.randint(1, d + 4)
    if kind == "repeated":
        return [tuple(p0)] * count
    k = {"collinear": 1, "flat": rng.randint(0, d), "full": d}[kind]
    dirs = [[_rational(rng) for _ in range(d)] for _ in range(k)]
    if kind == "full":
        count = max(count, d + 1)
    pts = []
    for _ in range(count):
        ts = [_rational(rng) for _ in dirs]
        pts.append(tuple(x + sum((t * v[c] for t, v in zip(ts, dirs)), F(0))
                         for c, x in enumerate(p0)))
    if rng.random() < 0.3:
        pts.append(pts[0])  # a repeated point inside a larger set
    return pts


@pytest.mark.parametrize("d", range(1, 7))
def test_affine_dim_matches_the_differencing_oracle(d):
    import random

    rng = random.Random(f"affine-dim/{d}")
    dims = set()
    for kind in ("repeated", "collinear", "flat", "full"):
        for _ in range(40):
            pts = _point_set(rng, d, kind)
            want = oracle_affine_dim(pts)
            assert eq.affine_dim(pts) == want
            if kind == "full" and rng.random() < 0.5:  # int points take the same path
                ints = [tuple(int(x * 30) for x in p) for p in pts]
                assert eq.affine_dim(ints) == oracle_affine_dim(ints)
            dims.add(want)
    assert dims == set(range(d + 1))
    for bad in ([], [(F(1),) * d, (F(1),) * (d + 1)]):
        with pytest.raises(ValueError):
            oracle_affine_dim(bad)
        with pytest.raises(ValueError):
            eq.affine_dim(bad)


def test_symmetric_vectorization():
    v = (1, -1)
    assert eq.rank1_vec(v) == (1, -1, 1)
    assert eq.vec_trace((1, -1, 1), 2) == 2
    m = eq.vec_sym((1, -1, 1), 2)
    assert m == [[1, -1], [-1, 1]]
    assert tuple(m[i][j] for i in range(2) for j in range(i, 2)) == (1, -1, 1)
    # pairing row computes v^t Y v
    y = (F(2), F(1), F(2))  # [[2,1],[1,2]]
    assert eq.quad_value(y, (1, -1), 2) == 2
    assert sum(a * b for a, b in zip(eq.pairing_row((1, -1)), y)) == 2


def test_rank1_output_rank():
    import random

    rng = random.Random(3)
    for _ in range(10):
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        if not any(v):
            continue
        assert eq.int_rank(eq.int_rows(eq.vec_sym(eq.rank1_vec(v), 4))) == 1


def test_int_matrix_inverse():
    g = ((0, 1), (-1, -1))
    gi = eq.int_matrix_inverse(g)
    assert eq.mat_mul_int(g, gi) == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        eq.int_matrix_inverse(((2, 0), (0, 1)))


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def cofactor_adjugate(a):
    """adj(a) by n^2 cofactor determinants: the oracle for `int_det_adjugate`."""
    n = len(a)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(a) if r != i]
            out[j][i] = (-1) ** (i + j) * eq.int_det(minor)
    return out


@settings(max_examples=80)
@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_int_det_adjugate_matches_cofactors(n, rng):
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    d = eq.int_det(a)
    if d == 0:
        with pytest.raises(ValueError):
            eq.int_det_adjugate(a)
        return
    det, adj = eq.int_det_adjugate(a)
    assert (det, adj) == (d, cofactor_adjugate(a))
    scalar = tuple(tuple(d * x for x in row) for row in _identity(n))
    assert eq.mat_mul_int(adj, a) == scalar
    assert eq.mat_mul_int(a, adj) == scalar


def test_int_det_adjugate_singular_raises():
    for a in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValueError):
            eq.int_det_adjugate(a)


def test_int_det_adjugate_on_the_d5_initial_dd_subsystem():
    from vcdcycle import dd, voronoi as vr

    rows = [eq.pairing_row(v) for v in vr.builtin_tile("D5").ray_vectors]
    a = [list(rows[i]) for i in dd._initial_basis(rows, len(rows[0]))]
    assert len(a) == 15
    assert eq.int_det_adjugate(a) == (eq.int_det(a), cofactor_adjugate(a))


@settings(max_examples=40)
@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_int_matrix_inverse_roundtrip_sl_n(n, rng):
    # products of elementary matrices e + c E_ij lie in SL_n(Z)
    g = _identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        e = [list(row) for row in _identity(n)]
        e[i][j] = rng.randint(-3, 3)
        g = eq.mat_mul_int(g, e)
    gi = eq.int_matrix_inverse(g)
    assert eq.mat_mul_int(g, gi) == _identity(n)
    assert eq.mat_mul_int(gi, g) == _identity(n)
    assert eq.int_matrix_inverse(gi) == g


def test_q_str_roundtrip():
    for x in (F(3), F(-5, 7), F(0), F(22, 11)):
        assert eq.q_parse(eq.q_str(x)) == x
