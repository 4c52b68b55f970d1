import random
from fractions import Fraction as F

import pytest

from vcdcycle import cosharbly as co
from vcdcycle import cycle as cy
from vcdcycle import exactq as eq
from vcdcycle.exactq import mat_vec_int, rank1_vec
from vcdcycle.sharbly import ZERO, BasicSharbly, canonicalize
from vcdcycle.voronoi import normalize_to_section


# ---------------------------------------------------------------------------
# Fraction oracles: the section points, orientation sign and affine
# dimension as the library computed them before it worked on integer rays


def section_points(basic):
    """Trace-1 scalings of the rank-1 forms of the symbol's vectors."""
    return tuple(normalize_to_section(rank1_vec(v), basic.n) for v in basic.vectors)


def fraction_epsilon(points, n):
    """Orientation sign of d ordered trace-1 section points of n x n forms;
    0 when degenerate."""
    d = len(points[0])
    if len(points) != d:
        raise ValueError("need exactly as many points as coordinates")
    for p in points:
        if eq.vec_trace(p, n) != 1:
            raise ValueError("point is not on the trace-1 section")
    dv = eq.int_det(eq.int_rows(points))  # int_rows scales each row by a positive factor
    return (dv > 0) - (dv < 0)


def affine_dim(points):
    """Dimension of the affine span of a nonempty list of (int or Fraction)
    points: the rank of the points homogenized by a coordinate 1, less one."""
    if not points:
        raise ValueError("affine_dim of an empty point list")
    if any(len(p) != len(points[0]) for p in points):
        raise ValueError("points of mixed ambient dimension")
    return eq.int_rank(eq.int_rows([(*p, 1) for p in points])) - 1


def a2_rays():
    _, basic = canonicalize([(1, 0), (0, 1), (1, -1)])
    return co.section_rays(basic)


def test_epsilon_swap_negates():
    rays = list(a2_rays())
    e = co.epsilon(rays, 2)
    assert e in (1, -1)
    swapped = [rays[1], rays[0], rays[2]]
    assert co.epsilon(swapped, 2) == -e


def test_epsilon_degenerate_zero():
    r0, r1, _ = a2_rays()
    third = tuple(a + b for a, b in zip(r0, r1))  # positive trace, dependent
    assert co.epsilon([r0, r1, third], 2) == 0
    assert co.section_affine_dim([r0, r1, third], 2) == 1


@pytest.mark.parametrize(
    "rays",
    [
        [(1, 0, -1), (1, 0, 0), (0, 0, 1)],  # trace 0
        [(1, 0, 0), (-2, 0, 1), (0, 0, 1)],  # trace -1
        [(1, 0, 0), (0, 0, 1)],  # two rays in three coordinates
        [(1, 0, 0), (0, 0, 1), (1, 1)],  # a ray with two coordinates
    ],
)
def test_epsilon_rejects_rays_off_the_section(rays):
    with pytest.raises(ValueError):
        co.epsilon(rays, 2)


def test_epsilon_matches_cone_orientation():
    # positively oriented cone symbols have section sign +1
    from vcdcycle.sharbly import sharbly_of_cone

    sign, basic = sharbly_of_cone([(1, 0), (0, 1), (1, -1)])
    assert co.epsilon(co.section_rays(basic), 2) == sign


def test_is_flipon_examples():
    _, a2 = canonicalize([(1, 0), (0, 1), (1, -1)])
    assert not co.is_flipon(a2)
    _, example = canonicalize(
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1)]
    )
    assert co.is_flipon(example)
    with pytest.raises(ValueError):
        co.is_flipon(BasicSharbly(2, ((1, 0), (0, 1))))


def test_is_flipon_invariance():
    rng = random.Random(7)
    _, example = canonicalize(
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1)]
    )
    from vcdcycle.exactq import mat_mul_int

    g = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        e = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        e[i][j] = rng.choice((1, -1))
        g = mat_mul_int(g, tuple(tuple(r) for r in e))
    moved = canonicalize([mat_vec_int(g, v) for v in example.vectors])
    _, moved_basic = moved
    assert co.is_flipon(moved_basic)
    # rescaling a vector does not change the test either
    rescaled = list(example.vectors)
    rescaled[0] = tuple(3 * x for x in rescaled[0])
    _, rb = canonicalize(rescaled)
    assert co.is_flipon(rb)


def _random_top_symbols(rng, n, count, bound):
    """`count` canonical top symbols of rank n with entries in [-bound, bound]."""
    d = n * (n + 1) // 2
    out = []
    while len(out) < count:
        vs = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(d)]
        if any(not any(v) for v in vs):
            continue
        res = canonicalize(vs)
        if res is not ZERO:
            out.append(res[1])
    return out


def test_three_equivalent_degeneracy_tests():
    rng = random.Random(5)
    d = 3
    for basic in _random_top_symbols(rng, 2, 200, 3):
        rays = co.section_rays(basic)
        flip = co.is_flipon(basic)
        assert flip == (co.epsilon(rays, 2) == 0)
        assert flip == (co.section_affine_dim(rays, 2) <= d - 2)


@pytest.mark.parametrize("n, count, bound", [(2, 800, 3), (3, 800, 2), (4, 400, 1)])
def test_integer_rays_match_the_fraction_section_points(n, count, bound):
    rng = random.Random(f"section-rays/{n}")
    flipons = 0
    for basic in _random_top_symbols(rng, n, count, bound):
        rays = co.section_rays(basic)
        pts = section_points(basic)
        assert pts == tuple(tuple(F(x, eq.vec_trace(r, n)) for x in r) for r in rays)
        assert co.epsilon(rays, n) == fraction_epsilon(pts, n)
        assert co.section_affine_dim(rays, n) == affine_dim(pts)
        flipons += co.is_flipon(basic)
    # three distinct lines in the plane carry independent forms v v^t, so
    # rank 2 has no flipons
    assert (0 < flipons < count) if n > 2 else flipons == 0


def test_positivity_certificate_n2():
    cert = co.mu_sign_certificate(cy.build_zG(2))
    assert cert.valid
    assert [v.verdict for v in cert.verdicts] == ["proper-positive"]


def test_positivity_rejects_negated_chain():
    z = cy.build_zG(2)
    z.coin = {cls: -c for cls, c in z.coin.items()}
    cert = co.mu_sign_certificate(z)
    assert not cert.valid


def test_positivity_rejects_flipon_only_chain():
    z = cy.build_zG(2)
    odict = z.odict
    _, flipon = canonicalize(
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1)]
    )
    cls, _, _ = odict.canonical_with_witness(flipon)
    z.coin = {cls: F(1)}
    cert = co.mu_sign_certificate(z)
    assert not cert.valid


def _old_section_point(vec, n):
    """The trace-1 scaling as it was first written: Fraction entries, a
    Fraction trace, one division per entry."""
    vec = [F(x) for x in vec]
    t = sum(vec[i * n - i * (i - 1) // 2] for i in range(n))
    return tuple(x / t for x in vec)


def test_section_points_equal_the_trace_normalization():
    rng = random.Random(21)
    checked = 0
    for n in (2, 3, 4):
        for _ in range(30):
            vs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n + 2)]
            res = canonicalize([v for v in vs if any(v)], n)
            if res is ZERO:
                continue
            basic = res[1]
            want = tuple(_old_section_point(r, n) for r in co.section_rays(basic))
            assert section_points(basic) == want
            checked += 1
            # a rational multiple of a ray
            ray = [F(rng.randint(1, 5), rng.randint(1, 4)) * x for x in rank1_vec(basic.vectors[0])]
            assert normalize_to_section(ray, n) == _old_section_point(ray, n)
    assert checked >= 60


def test_affine_dim_examples():
    assert affine_dim([(5, 7)]) == 0
    assert affine_dim([(0,), (1,), (2,)]) == 1
    assert affine_dim([(0, 0), (1, 0), (1, 1), (0, 1)]) == 2
    with pytest.raises(ValueError):
        affine_dim([])


def test_affine_dim_of_independent_points():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 4)
        while True:
            pts = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(k + 1)]
            if affine_dim(pts) == k:
                break
        assert affine_dim(pts) == k


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
    rng = random.Random(f"affine-dim/{d}")
    dims = set()
    for kind in ("repeated", "collinear", "flat", "full"):
        for _ in range(40):
            pts = _point_set(rng, d, kind)
            want = oracle_affine_dim(pts)
            assert affine_dim(pts) == want
            if kind == "full" and rng.random() < 0.5:  # int points take the same path
                ints = [tuple(int(x * 30) for x in p) for p in pts]
                assert affine_dim(ints) == oracle_affine_dim(ints)
            dims.add(want)
    assert dims == set(range(d + 1))
    for bad in ([], [(F(1),) * d, (F(1),) * (d + 1)]):
        with pytest.raises(ValueError):
            oracle_affine_dim(bad)
        with pytest.raises(ValueError):
            affine_dim(bad)
