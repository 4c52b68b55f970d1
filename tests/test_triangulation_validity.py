"""`is_valid_triangulation` (the interior-ridge check) against the pairwise
LP definition of a triangulation, and one invalid case per ridge condition."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from vcdcycle import lp
from vcdcycle import polytope as pt
from vcdcycle.dd import cone_facets
from vcdcycle.exactq import int_rank

from test_gale_dual import oracle_side
from test_polytope import dd_hull_facets, hull_volume_scaled, oracle_circuit_of


def _proper_pair_lp(config, s1, s2) -> bool:
    """True when conv(s1) and conv(s2) meet in conv(s1 & s2).

    They do not exactly when some common point of the hulls puts positive
    weight on the labels of s1 outside s1 & s2: when lambda, mu >= 0 with
    sum lambda_i p_i = sum mu_j p_j, sum lambda = sum mu, and weight 1 on
    those labels is feasible (every constraint but the last is homogeneous).
    """
    pts = config._int_points
    common = s1 & s2
    a1, a2 = sorted(s1), sorted(s2)
    rows = [
        [Q(pts[i][c]) for i in a1] + [Q(-pts[j][c]) for j in a2]
        for c in range(config.ambient_dim)
    ]
    rows.append([Q(1)] * len(a1) + [Q(-1)] * len(a2))
    rows.append([Q(0) if i in common else Q(1) for i in a1] + [Q(0)] * len(a2))
    rhs = [Q(0)] * (config.ambient_dim + 1) + [Q(1)]
    return lp.simplex_max(rows, rhs) is None


def lifted_hull_volume(config) -> int:
    """Hull volume (times m!) as the volume of the lower hull of the points
    lifted by random heights, which is generic with high probability."""
    if len(config) == config.ambient_dim + 1:  # a simplex: no room to lift
        return abs(pt._simplex_det(config, config.labels))
    pts = config._int_points
    rng = random.Random(0)
    while True:
        lifted = [(1,) + p + (rng.randint(0, 10**6),) for p in pts]
        lower = [t for t, normal in cone_facets(lifted) if normal[-1] > 0]
        if all(len(t) == config.ambient_dim + 1 for t in lower):
            return sum(abs(pt._simplex_det(config, t)) for t in lower)


def oracle_is_valid(config, triangulation, hull_volume) -> bool:
    """The definition: distinct full-dimensional simplices whose volumes sum
    to the hull volume and which meet pairwise in common faces."""
    tri = [frozenset(s) for s in triangulation]
    if not tri or len(set(tri)) != len(tri):
        return False
    m = config.ambient_dim
    if any(len(s) != m + 1 or not s <= set(config.labels) for s in tri):
        return False
    dets = [pt._simplex_det(config, s) for s in tri]
    if 0 in dets or sum(map(abs, dets)) != hull_volume:
        return False
    return all(_proper_pair_lp(config, a, b) for a, b in itertools.combinations(tri, 2))


def _raw_flip_neighbours(config, tri):
    """(tri - removed) | inserted for every circuit flip found in tri, with
    no validity filter."""
    out = []
    for k in range(3, config.ambient_dim + 3):
        for labels in itertools.combinations(config.labels, k):
            z = oracle_circuit_of(config, labels)
            if z is None or z.labels != frozenset(labels):
                continue
            f = pt._flip_from_circuit(tri, z)
            if f is not None:
                out.append((tri - f.removed) | f.inserted)
    return out


def _candidates(rng, config, hull):
    """Placing triangulations, their flip neighbours, one-simplex swaps of
    them, and random simplex sets with the hull's volume."""
    m = config.ambient_dim
    simplices = {}
    for c in itertools.combinations(config.labels, m + 1):
        d = abs(pt._simplex_det(config, c))
        if d:
            simplices[frozenset(c)] = d
    out = []
    for _ in range(2):
        order = list(config.labels)
        rng.shuffle(order)
        tri = pt.placing_triangulation(config, order=order)
        out.append(tri)
        out.extend(_raw_flip_neighbours(config, tri))
        for s in tri:
            swaps = [t for t, d in simplices.items() if d == simplices[s] and t not in tri]
            if swaps:
                out.append((tri - {s}) | {rng.choice(swaps)})
    pool = sorted(simplices, key=sorted)
    for _ in range(300):
        cand = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
        if sum(simplices[s] for s in cand) == hull:
            out.append(frozenset(cand))
    return out


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("m", [2, 3])
def test_agrees_with_pairwise_lp_oracle(seed, m):
    rng = random.Random(seed)
    counts = {True: 0, False: 0}
    configs = 0
    while configs < 6:
        pts = {tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(rng.randint(m + 2, m + 4))}
        config = pt.PointConfiguration.from_points(sorted(pts))
        base = config._int_points[0]
        if int_rank([[x - y for x, y in zip(p, base)] for p in config._int_points]) != m:
            continue
        configs += 1
        hull = lifted_hull_volume(config)
        assert hull_volume_scaled(config) == hull
        for tri in _candidates(rng, config, hull):
            expected = oracle_is_valid(config, tri, hull)
            assert pt.is_valid_triangulation(config, tri) == expected, (config.points, tri)
            counts[expected] += 1
    assert min(counts.values()) >= 30, counts


# ---------------------------------------------------------------------------
# one invalid case per ridge condition, each with the hull's volume


def _violations(config, tri) -> set:
    """Which of the ridge conditions 2-4 of is_valid_triangulation fail."""
    apexes = {}
    for s in tri:
        for v in s:
            apexes.setdefault(s - {v}, []).append(v)
    facets = dd_hull_facets(config)
    out = set()
    for ridge, vs in apexes.items():
        if len(vs) > 2:
            out.add("ridge in three simplices")
        elif len(vs) == 2:
            if oracle_side(config, ridge, vs[0]) == oracle_side(config, ridge, vs[1]):
                out.add("apexes on one side")
        elif not any(ridge <= f for f in facets):
            out.add("unshared ridge inside the hull")
    return out


def _ridge_defect(config, tri):
    return pt._ridge_defect(tri, {s: pt._simplex_dependences(config, s) for s in tri})


def _tri(*simplices):
    return frozenset(frozenset(s) for s in simplices)


# The small triangle 0-1-5 covered three times: whole, split at 3 and split
# at 4.  Point 2 makes the hull three times as large.  Ridges 01 and 15 lie
# in three simplices; every other condition holds.
TRIPLE = (
    [(0, 0), (0, 1), (0, 3), (1, 0), (2, 0), (3, 0)],
    _tri((0, 1, 5), (0, 1, 3), (1, 3, 5), (0, 1, 4), (1, 4, 5)),
    "ridge in three simplices",
)
# Triangle 0-1-2, the top-left half of the rectangle, and its split at the
# edge point 3 stacked on it; the bottom-right half (to point 4) is empty.
# Walls 02 and 12 have both apexes on one side.
STACKED = (
    [(0, 1), (2, 1), (0, 0), (1, 1), (2, 0)],
    _tri((0, 1, 2), (1, 2, 3), (0, 2, 3)),
    "apexes on one side",
)
# Two triangles that overlap without sharing an edge and leave a gap of the
# same area; edges 04 and 23 end inside the hull, at no configuration point.
OVERLAP = (
    [(0, 1), (0, 0), (1, 1), (0, 2), (2, 2)],
    _tri((0, 3, 4), (1, 2, 3)),
    "unshared ridge inside the hull",
)
# The square 0123 cut along diagonal 13 on one side and fanned from its
# midpoint 4 on the other: a T-junction at 4.
T_JUNCTION = (
    [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)],
    _tri((0, 1, 3), (1, 2, 4), (2, 3, 4)),
    "unshared ridge inside the hull",
)


@pytest.mark.parametrize(
    "points, tri, defect",
    [TRIPLE, STACKED, OVERLAP, T_JUNCTION],
    ids=["triple", "stacked", "overlap", "t-junction"],
)
def test_each_ridge_condition_rejects(points, tri, defect):
    config = pt.PointConfiguration.from_points(points)
    hull = lifted_hull_volume(config)
    assert sum(abs(pt._simplex_det(config, s)) for s in tri) == hull
    assert _violations(config, tri) == {defect}
    assert _ridge_defect(config, tri) == defect
    assert not oracle_is_valid(config, tri, hull)
    assert not pt.is_valid_triangulation(config, tri)


def _five_tetrahedra(corners):
    """The cube's triangulation by the regular tetrahedron on four corners
    (label 4x + 2y + z) and the four corner tetrahedra cut off by it."""
    cut = [(v, v ^ 1, v ^ 2, v ^ 4) for v in range(8) if v not in corners]
    return _tri(corners, *cut)


def test_the_cube_double_cover_fails_only_the_volume():
    config = pt.PointConfiguration.from_points(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    even, odd = _five_tetrahedra((0, 3, 5, 6)), _five_tetrahedra((1, 2, 4, 7))
    assert pt.is_valid_triangulation(config, even) and pt.is_valid_triangulation(config, odd)
    both = even | odd
    hull = lifted_hull_volume(config)
    assert sum(abs(pt._simplex_det(config, s)) for s in both) == 2 * hull
    assert _violations(config, both) == set() and _ridge_defect(config, both) is None
    assert not oracle_is_valid(config, both, hull)
    assert not pt.is_valid_triangulation(config, both)


def test_t_junction_point_lies_on_the_cut():
    config = pt.PointConfiguration.from_points(T_JUNCTION[0])
    z = oracle_circuit_of(config, [1, 3, 4])  # 4 is the midpoint of 13
    assert z.positive_part == frozenset({1, 3}) and z.negative_part == frozenset({4})


def test_hull_is_cached_per_instance():
    points = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    first = pt.PointConfiguration.from_points(points)
    assert hull_volume_scaled(first) == 8
    assert pt.is_valid_triangulation(first, _tri((0, 1, 2), (0, 2, 3)))
    second = pt.PointConfiguration.from_points(points)
    assert second == first
    assert "_hull_volume" in vars(first)
    assert "_hull_volume" not in vars(second)


def test_integer_points_are_cached_per_instance():
    points = [(0, 0), (Q(1, 2), 0), (0, Q(1, 3))]
    first = pt.PointConfiguration.from_points(points)
    assert first._int_points == ((0, 0), (3, 0), (0, 2))
    assert first._int_points is vars(first)["_int_points"]
    second = pt.PointConfiguration.from_points(points)
    assert second == first and "_int_points" not in vars(second)


def test_validity_reads_each_volume_off_the_one_adjugate_per_simplex(monkeypatch):
    """No `int_det` beside the adjugates: is_valid_triangulation takes one
    adjugate per simplex, and the hull volume (in units of |kappa|) comes
    from the placing's dependences with no elimination of its own."""
    config = pt.PointConfiguration.from_points(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    assert config._gale.kappa  # the Gale dual is taken before counting
    adjugates = []
    adjugate = pt.int_det_adjugate

    def counting(a):
        adjugates.append(a)
        return adjugate(a)

    def refuse(rows):
        raise AssertionError("int_det called")

    monkeypatch.setattr(pt, "int_det_adjugate", counting)
    monkeypatch.setattr(pt, "int_det", refuse)
    placing = config._placing
    assert len(adjugates) <= len(placing)
    del adjugates[:]
    even = _five_tetrahedra((0, 3, 5, 6))
    assert pt.is_valid_triangulation(config, even)
    assert not pt.is_valid_triangulation(config, even | _five_tetrahedra((1, 2, 4, 7)))
    assert len(adjugates) == 5 + 10
    monkeypatch.undo()
    assert config._hull_volume == sum(abs(pt._simplex_det(config, s)) for s in placing) / abs(
        config._gale.kappa)
    assert config._hull_volume == sum(abs(pt._simplex_adjugate(config, s)[2]) for s in even)
