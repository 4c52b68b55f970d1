"""The Gale-dual determinants and simplex dependences of `polytope`
against the primal computations they replaced, kept here as oracles: a
Bareiss determinant of the simplex's own points and a `Fraction` solve for
the barycentric coordinates -c_l / det of each point outside a simplex."""

import itertools
import random
from fractions import Fraction

import pytest

from vcdcycle import cycle as cy
from vcdcycle import data
from vcdcycle import polytope as pt
from vcdcycle import voronoi as vr
from vcdcycle.exactq import int_det, solve


def oracle_simplex_det(config, simplex):
    pts = config._int_points
    labels = sorted(simplex)
    base = pts[labels[0]]
    return int_det([[x - y for x, y in zip(pts[i], base)] for i in labels[1:]])


def oracle_side(config, ridge, apex):
    pts = config._int_points
    d = int_det([(1,) + pts[r] for r in sorted(ridge)] + [(1,) + pts[apex]])
    return (d > 0) - (d < 0)


def oracle_barycentric(config, simplex, label):
    pts = config._int_points
    labels = sorted(simplex)
    sol = solve(list(zip(*((1,) + pts[i] for i in labels))), (1,) + pts[label])
    if sol is None:
        raise pt.DegenerateConfiguration("degenerate simplex in triangulation")
    return dict(zip(labels, sol))


def assert_agrees(config, simplices):
    """Exact agreement of the two functions on each simplex (a set of m + 1
    labels) and each point outside it, and of the point's side of each
    ridge with the sign of its coordinate at the ridge's apex: the rule
    every side test of `polytope` reads.  On a degenerate simplex the solve
    may find some solution, where `_simplex_dependences` raises, as its
    callers never ask."""
    for s in simplices:
        s = frozenset(s)
        det = pt._simplex_det(config, s)
        assert det == oracle_simplex_det(config, s), sorted(s)
        if not det:
            with pytest.raises(pt.DegenerateConfiguration):
                pt._simplex_dependences(config, s)
            continue
        got = pt._simplex_dependences(config, s)
        assert list(got) == [w for w in config.labels if w not in s]
        for w, (d, dep) in got.items():
            assert d != 0 and all(type(c) is int for c in dep.values())
            assert {l: Fraction(-c, d) for l, c in dep.items()} == oracle_barycentric(config, s, w)
            for a in s:  # the side rule: sign lambda_a(w) = -sign(dep[a] * d)
                ridge = s - {a}
                side = oracle_side(config, ridge, w) * oracle_side(config, ridge, a)
                assert side == (dep[a] * d < 0) - (dep[a] * d > 0)


def _random_config(rng, dim, corank):
    while True:
        pts = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim + 1 + corank)}
        if len(pts) == dim + 1 + corank:
            config = pt.PointConfiguration.from_points(sorted(pts))
            if config._gale is not None:
                return config


@pytest.mark.parametrize("corank", range(6))
@pytest.mark.parametrize("dim", range(1, 6))
def test_random_configurations_agree_on_every_simplex(dim, corank):
    rng = random.Random(100 * dim + corank)
    for _ in range(3):
        config = _random_config(rng, dim, corank)
        subsets = list(itertools.combinations(config.labels, dim + 1))
        if len(subsets) > 60:
            subsets = rng.sample(subsets, 60)
        assert_agrees(config, subsets)


def test_the_rank_5_facet_and_the_d4_section_agree():
    f = cy.facet_geometry(vr.builtin_tile("D5"), data.D5_FACET_F).config
    assert (len(f), f.ambient_dim) == (16, 13)
    local = {label: i for i, label in enumerate(sorted(data.D5_FACET_F))}
    simplices = {
        frozenset(local[x] for x in s)
        for tri in (data.D5_F_TRIANGULATION_1, data.D5_F_TRIANGULATION_2)
        for s in tri
    }
    # the label sets that miss a pair of labels: the simplices and the
    # degenerate sets containing the circuit alike
    assert_agrees(f, [set(f.labels) - {a, b} for a, b in itertools.combinations(f.labels, 2)])
    assert any(pt._simplex_det(f, set(f.labels) - {a, b}) == 0
               for a, b in itertools.combinations(f.labels, 2))
    assert all(pt._simplex_det(f, s) != 0 for s in simplices)

    d4, _ = vr.section_configuration(vr.builtin_tile("D4"))
    assert (len(d4), d4.ambient_dim) == (12, 9)
    rng = random.Random(4)
    subsets = list(itertools.combinations(d4.labels, 10))
    assert_agrees(d4, [frozenset(s) for s in data.D4_TRIANGULATION] + rng.sample(subsets, 40))


def _criterion_6_draws(seed, count):
    """Configurations as criterion 6 (d) draws them: up to 8 points in
    dimension 2 or 3, corank up to 4."""
    rng = random.Random(seed)
    while count:
        dim = rng.choice((2, 3))
        npts = rng.randint(dim + 2, 8 if dim == 3 else 6)
        pts = {tuple(rng.randint(0, 8) for _ in range(dim)) for _ in range(npts)}
        config = pt.PointConfiguration.from_points(sorted(pts))
        if config._gale is None:
            continue
        count -= 1
        yield config


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_6_draws_agree_on_every_simplex(seed):
    for config in _criterion_6_draws(seed, 4):
        assert_agrees(config, itertools.combinations(config.labels, config.ambient_dim + 1))


def test_a_configuration_that_is_not_full_dimensional():
    # four points on a line in the plane
    config = pt.PointConfiguration.from_points([(0, 0), (1, 1), (2, 2), (5, 5)])
    assert config._gale is None
    for s in itertools.combinations(config.labels, 3):
        assert pt._simplex_det(config, s) == oracle_simplex_det(config, s) == 0
        with pytest.raises(pt.DegenerateConfiguration):
            pt._simplex_dependences(config, s)
    with pytest.raises(pt.DegenerateConfiguration):
        pt.placing_triangulation(config)


def test_a_simplex_of_the_wrong_size():
    config = pt.PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    for fn in (pt._simplex_det, oracle_simplex_det):
        for s in ([0, 1], [0, 1, 2, 3]):
            with pytest.raises(ValueError):
                fn(config, s)
    for s in ([0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError):
            pt._simplex_dependences(config, s)


def test_labels_that_are_no_simplex_raise():
    config = pt.PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    for s in ([0, 0, 1], [0, 1, 4], [-1, 0, 1]):
        with pytest.raises(ValueError):
            pt._simplex_det(config, s)
        with pytest.raises(ValueError):
            pt._simplex_dependences(config, s)


def test_the_dual_is_cached_per_instance():
    pts = [(0, 0), (3, 0), (0, 2), (1, 1)]
    first = pt.PointConfiguration.from_points(pts)
    assert first._gale is first._gale
    assert len(first._gale.rows) == 4 and all(len(r) == 1 for r in first._gale.rows)
    second = pt.PointConfiguration.from_points(pts)
    assert second == first and "_gale" not in vars(second)


def test_the_corank_0_dual_is_the_simplex_itself():
    config = pt.PointConfiguration.from_points([(0, 0), (3, 0), (0, 2)])
    assert config._gale == pt.GaleDual(((), (), ()), Fraction(6))
    assert pt._simplex_det(config, [0, 1, 2]) == 6
