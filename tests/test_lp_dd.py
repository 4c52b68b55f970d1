from fractions import Fraction as F

import pytest

from vcdcycle import lp
from vcdcycle.dd import cone_facets, extreme_rays


def test_simplex_max_feasible():
    x = lp.simplex_max([[1, 1]], [1])
    assert x is not None and x[0] + x[1] == 1 and min(x) >= 0


def test_simplex_infeasible():
    assert lp.simplex_max([[1, 1, 0], [1, 0, -1]], [1, 2]) is None


def test_simplex_exact_rationals():
    x = lp.simplex_max([[F(2, 7)]], [F(5, 11)])
    assert x == (F(5, 11) / F(2, 7),)
    assert lp.simplex_max([[F(2, 7)]], [F(-5, 11)]) is None


def test_simplex_redundant_row():
    # the second row is -1/2 times the first: an artificial stays basic at 0
    a = [[F(1, 2), 1, 0], [F(-1, 4), F(-1, 2), 0]]
    x = lp.simplex_max(a, [F(1, 3), F(-1, 6)])
    assert x is not None and min(x) >= 0
    assert all(sum(c * v for c, v in zip(row, x)) == b for row, b in zip(a, [F(1, 3), F(-1, 6)]))


def test_feasible_ge():
    x = lp.feasible_ge([[1], [-1]], [1, -3])
    assert x is not None and 1 <= x[0] <= 3
    assert lp.feasible_ge([[1], [-1]], [4, -3]) is None
    assert lp.feasible_ge([], []) == ()


def test_extreme_rays_square_cone():
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    rays = extreme_rays(gens)
    assert len(rays) == 4
    for r, mask in rays:
        assert sum(1 for g in gens if sum(a * b for a, b in zip(g, r)) == 0) == 2


def test_cone_facets_cube():
    pts = [(1, x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    facets = cone_facets(pts)
    assert len(facets) == 6
    assert all(len(f) == 4 for f, _ in facets)


def test_cone_facets_simplex():
    pts = [(1, 0, 0), (1, 1, 0), (1, 0, 1)]
    facets = cone_facets(pts)
    assert len(facets) == 3
    assert all(len(f) == 2 for f, _ in facets)


def test_extreme_rays_requires_full_rank():
    with pytest.raises(ValueError):
        extreme_rays([(1, 0, 0), (0, 1, 0)])
