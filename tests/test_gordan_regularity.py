"""The Gordan verdict `nonregularity_witness` against the primal lifting LP
`is_regular`, kept as the oracle.

Each case checks the verdict with integer sums: a non-regular verdict's
Gordan vector y has y >= 0, y != 0 and X_T^T y = 0, and on a regular one
psi = K^T h, built from the primal heights h, has X_T psi > 0 strictly.
"""

import random
from math import lcm

import pytest

from vcdcycle import polytope as pt
from vcdcycle import repro
from vcdcycle.exactq import as_q

from test_gale_dual import oracle_side


def assert_verdict_matches_the_primal(config, tri):
    """Returns whether the triangulation is regular."""
    rows = pt._gale_rows(config, tri)
    y = pt.nonregularity_witness(config, tri)
    heights = pt.is_regular(config, tri)
    assert (y is None) == (heights is not None)
    if y is not None:
        assert list(y) == rows
        assert all(type(v) is int and v >= 0 for v in y.values())
        assert any(y.values())
        assert all(
            sum(v * r[j] for r, v in y.items()) == 0 for j in range(len(rows[0]))
        )
        return False
    hs = [as_q(heights[i]) for i in config.labels]
    scale = lcm(*(h.denominator for h in hs))
    h = [int(x * scale) for x in hs]
    gale = config._gale.rows
    psi = [sum(k[j] * x for k, x in zip(gale, h)) for j in range(len(gale[0]))]
    assert all(sum(a * b for a, b in zip(r, psi)) > 0 for r in rows)
    return True


def _recorded_queries(monkeypatch, run):
    """Every (config, triangulation) that `run()` asks a verdict on, once
    per configuration and triangulation."""
    queries = {}
    verdict = pt.nonregularity_witness

    def recording(config, tri):
        tri = frozenset(frozenset(s) for s in tri)
        queries.setdefault((id(config), tri), (config, tri))
        return verdict(config, tri)

    monkeypatch.setattr(pt, "nonregularity_witness", recording)
    assert run()["ok"]
    return list(queries.values())


def test_every_query_of_criterion_5(monkeypatch):
    queries = _recorded_queries(monkeypatch, repro.criterion_5)
    verdicts = [assert_verdict_matches_the_primal(c, t) for c, t in queries]
    assert len(verdicts) >= 3 and any(verdicts)


@pytest.mark.parametrize("seed", range(6))
def test_every_query_of_criterion_6(monkeypatch, seed):
    queries = _recorded_queries(monkeypatch, lambda: repro.criterion_6(seed))
    verdicts = [assert_verdict_matches_the_primal(c, t) for c, t in queries]
    assert any(verdicts)


TWISTED_POINTS = [(4, 0), (0, 4), (0, 0), (2, 1), (1, 2), (1, 1)]
TWISTED = frozenset(
    frozenset(s)
    for s in ((0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5), (3, 4, 5))
)


def test_the_twisted_triangle_in_a_triangle():
    cfg = pt.PointConfiguration.from_points(TWISTED_POINTS)
    assert pt.is_valid_triangulation(cfg, TWISTED)
    assert not assert_verdict_matches_the_primal(cfg, TWISTED)


def test_a_single_simplex_is_regular():
    cfg = pt.PointConfiguration.from_points([(0, 0), (1, 0), (0, 1)])
    tri = frozenset({frozenset({0, 1, 2})})
    assert pt._gale_rows(cfg, tri) == []
    assert assert_verdict_matches_the_primal(cfg, tri)


def _place(config, tri, label):
    """`tri` with the point `label` placed: coned onto every boundary ridge
    that strictly separates it from the ridge's own simplex."""
    out = set(tri)
    for ridge, owners in pt._ridges(tri).items():
        if len(owners) == 1:
            apex = next(iter(owners[0] - ridge))
            if oracle_side(config, ridge, label) * oracle_side(config, ridge, apex) < 0:
                out.add(ridge | {label})
    return frozenset(out)


def _twisted_cases(rng, corank):
    """The twisted triangle under a random unimodular affine map, with
    corank - 3 random points outside its hull placed onto it: restricted to
    the six points, a lift of the result would lift the twisted triangle,
    so none of these is regular."""
    while True:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        pts = [(x + a * y + shift[0], b * (x + a * y) + y + shift[1]) for x, y in TWISTED_POINTS]
        pts += [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(corank - 3)]
        if len(set(pts)) != len(pts):
            continue
        config = pt.PointConfiguration.from_points(pts)
        tri = TWISTED
        for label in range(6, len(pts)):
            placed = _place(config, tri, label)
            if placed == tri:  # not outside the hull
                break
            tri = placed
        else:
            yield config, tri


def _random_walk_triangulations(rng, config, steps):
    """The placing triangulation of a random order, then `steps` random
    flips of any kind, regular or not."""
    tri = pt.placing_triangulation(config, order=rng.sample(list(config.labels), len(config)))
    yield tri
    for _ in range(steps):
        flips = pt.supported_flips(config, tri)
        if not flips:
            return
        f = rng.choice(flips)
        tri = (tri - f.removed) | f.inserted
        yield tri


@pytest.mark.parametrize("corank", range(6))
def test_random_configurations(corank):
    rng = random.Random(corank)
    verdicts = []
    while len(verdicts) < 12:
        dim = rng.choice((1, 2, 3))
        pts = {tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(dim + 1 + corank)}
        if len(pts) != dim + 1 + corank:
            continue
        config = pt.PointConfiguration.from_points(sorted(pts))
        if config._gale is None:
            continue
        for tri in _random_walk_triangulations(rng, config, 3):
            assert pt.is_valid_triangulation(config, tri)
            verdicts.append(assert_verdict_matches_the_primal(config, tri))
    assert any(verdicts)
    if corank >= 3:
        cases = _twisted_cases(rng, corank)
        for _ in range(5):
            config, tri = next(cases)
            assert pt.is_valid_triangulation(config, tri)
            assert not assert_verdict_matches_the_primal(config, tri)
