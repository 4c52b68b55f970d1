import random
from fractions import Fraction as F
from math import ceil, floor, isqrt

import pytest

from vcdcycle import data
from vcdcycle import voronoi as vr
from vcdcycle.dd import cone_facets
from vcdcycle.exactq import (
    int_det,
    int_matrix_inverse,
    mat_mul_int,
    mat_vec_int,
    pairing_row,
    primitive_normalize,
    rank1_vec,
)


# ---------------------------------------------------------------------------
# oracle: the Fraction LDL^t and Fincke-Pohst enumeration that
# `vr.minimal_vectors` replaced with an integer one


def _ldl(gram):
    """LDL^t decomposition; raises unless positive definite."""
    n = len(gram)
    d = [F(0)] * n
    u = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        s = F(gram[i][i]) - sum(d[k] * u[k][i] * u[k][i] for k in range(i))
        if s <= 0:
            raise ValueError("form is not positive definite")
        d[i] = s
        u[i][i] = F(1)
        for j in range(i + 1, n):
            t = F(gram[i][j]) - sum(d[k] * u[k][i] * u[k][j] for k in range(i))
            u[i][j] = t / d[i]
    return d, u


def _sqrt_floor(x):
    if x < 0:
        return -1
    return isqrt(x.numerator * x.denominator) // x.denominator


def oracle_minimal_vectors(gram):
    rows = [[F(x) for x in r] for r in gram]
    n = len(rows)
    d, u = _ldl(rows)
    bound = min(rows[i][i] for i in range(n))
    found = []
    x = [0] * n

    def descend(i, remaining):
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        s = _sqrt_floor(remaining / d[i])
        for xi in range(floor(-c) - s - 1, ceil(-c) + s + 2):
            term = d[i] * (xi + c) ** 2
            if term > remaining:
                continue
            x[i] = xi
            if i == 0:
                if any(x):
                    found.append((bound - (remaining - term), tuple(x)))
            else:
                descend(i - 1, remaining - term)
        x[i] = 0

    descend(n - 1, bound)
    mv = min(v for v, _ in found)
    return mv, tuple(sorted({primitive_normalize(vec) for v, vec in found if v == mv}))


def _random_definite_gram(rng, n):
    """M^t M plus a positive rational diagonal, M rational."""
    m = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    return [
        [
            sum(m[k][i] * m[k][j] for k in range(n))
            + (F(1, rng.randint(1, 4)) if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_normalize_to_section():
    assert vr.normalize_to_section((1, 0, 0), 2) == (1, 0, 0)
    assert vr.normalize_to_section((1, -1, 1), 2) == (F(1, 2), F(-1, 2), F(1, 2))
    # e2 has vanishing leading coordinate but a fine trace section point
    assert vr.normalize_to_section(rank1_vec((0, 1)), 2) == (0, 0, 1)


def test_normalize_to_section_scale_invariant():
    rng = random.Random(1)
    for _ in range(10):
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(v):
            continue
        ray = rank1_vec(v)
        a = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = tuple(a * x for x in ray)
        assert vr.normalize_to_section(scaled, 3) == vr.normalize_to_section(ray, 3)


def test_minimal_vectors_identity():
    mv, vs = vr.minimal_vectors([[1, 0], [0, 1]])
    assert mv == 1 and set(vs) == {(1, 0), (0, 1)}


def test_minimal_vectors_hexagonal():
    mv, vs = vr.minimal_vectors([[2, 1], [1, 2]])
    assert mv == 2
    assert set(vs) == {(1, 0), (0, 1), (1, -1)}


def test_minimal_vectors_a3():
    form = vr.builtin_form("A3")
    mv, vs = vr.minimal_vectors(form.gram)
    assert mv == 2
    assert set(vs) == {primitive_normalize(v) for v in data.A3_VECTORS}


@pytest.mark.parametrize("name", [name for forms in data.FORMS.values() for name, _ in forms])
def test_minimal_vectors_match_the_fraction_oracle_on_builtin_forms(name):
    gram = vr.builtin_form(name).gram
    assert vr.minimal_vectors(gram) == oracle_minimal_vectors(gram)


def test_minimal_vectors_match_the_fraction_oracle_on_random_forms():
    rng = random.Random(22)
    ranks = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        ranks.add(n)
        gram = _random_definite_gram(rng, n)
        assert vr.minimal_vectors(gram) == oracle_minimal_vectors(gram), gram
    assert ranks == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("c", [2, 3, 7, 60])
def test_minimal_vectors_scale_with_the_form(c):
    rng = random.Random(c)
    grams = [vr.builtin_form("D5").gram, vr.builtin_form("A4").gram]
    grams += [_random_definite_gram(rng, rng.randint(2, 5)) for _ in range(5)]
    for gram in grams:
        scaled = [[c * x for x in r] for r in gram]
        mv, vs = vr.minimal_vectors(gram)
        assert vr.minimal_vectors(scaled) == oracle_minimal_vectors(scaled) == (c * mv, vs)


@pytest.mark.parametrize("gram", [
    [[1, 0], [0, -1]],  # indefinite
    [[1, 2], [2, 1]],  # indefinite, positive diagonal
    [[-1]],
    [[0]],  # semidefinite
    [[1, 1], [1, 1]],  # semidefinite
    [[2, 1, 3], [1, 2, 3], [3, 3, 6]],  # semidefinite, first minors positive
    [[F(1, 2), F(1, 3)], [F(1, 3), F(2, 9)]],  # semidefinite, rational
])
def test_minimal_vectors_reject_forms_that_are_not_definite(gram):
    message = "^form is not positive definite$"
    with pytest.raises(ValueError, match=message):
        oracle_minimal_vectors(gram)
    with pytest.raises(ValueError, match=message):
        vr.minimal_vectors(gram)


def test_form_from_minvecs_a2():
    form = vr.form_from_minvecs([(1, 0), (0, 1), (1, -1)], "A2")
    assert [list(r) for r in form.gram] == [[2, 1], [1, 2]]


def test_form_from_minvecs_rejects_nonspanning():
    with pytest.raises(ValueError):
        vr.form_from_minvecs([(1, 0), (0, 1)])


@pytest.mark.parametrize("vectors, message", [
    ([(1, 0), (0, 1), (1, 2)], "form is not positive definite"),
    ([(1, 0), (0, 1), (1, 0)], "rank-1 forms of the vectors do not span"),
])
def test_form_from_minvecs_error_messages(vectors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        vr.form_from_minvecs(vectors)


def test_form_from_minvecs_rejects_non_perfect_sets():
    # spanning rank-1 forms, but extra shorter vectors appear
    with pytest.raises(ValueError):
        vr.form_from_minvecs([(1, 0), (0, 1), (5, 1)])


def test_tile_of_counts():
    assert len(vr.builtin_tile("A2").rays) == 3
    assert len(vr.builtin_tile("A3").rays) == 6
    t5 = vr.builtin_tile("D5")
    assert len(t5.rays) == 20 and len(t5.rays[0]) == 15


def test_tile_facets_small():
    assert len(vr.tile_facets(vr.builtin_tile("A2"))) == 3
    a3 = vr.tile_facets(vr.builtin_tile("A3"))
    assert len(a3) == 6 and all(len(f) == 5 for f, _ in a3)


@pytest.mark.parametrize("name, count", [
    ("A2", 3), ("A3", 6), ("A4", 10), ("D4", 64), ("A5", 15), ("D5", 400),
])
def test_tile_facet_sets_are_the_rays_each_functional_kills(name, count):
    """The facet sets, read off the DD tight masks, against the pairing of
    every functional with every ray."""
    tile = vr.builtin_tile(name)
    gens = [pairing_row(v) for v in tile.ray_vectors]
    facets = vr.tile_facets(tile)
    assert len(facets) == count
    for labels, normal in facets:
        values = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        assert min(values) == 0
        assert labels == frozenset(i for i, v in enumerate(values) if v == 0)


def test_tile_facets_d4_all_simplicial():
    facets = vr.tile_facets(vr.builtin_tile("D4"))
    assert all(len(f) == 9 for f, _ in facets)


def test_stabilizer_orders_and_group_axioms():
    tile = vr.builtin_tile("A2")
    group = vr.stabilizer(tile).elements()
    assert len(group) == 6
    ident = ((1, 0), (0, 1))
    assert ident in group
    gset = set(group)
    for g in group:
        assert int_matrix_inverse(g) in gset
        for h in group:
            assert mat_mul_int(g, h) in gset
    rays = {primitive_normalize(v) for v in tile.ray_vectors}
    for g in group:
        assert {primitive_normalize(mat_vec_int(g, v)) for v in rays} == rays


def test_stabilizer_a3_order():
    group = vr.stabilizer(vr.builtin_tile("A3"))
    assert group.order == len(group.elements()) == 24


def test_group_action_on_facets():
    rng = random.Random(8)
    tile = vr.builtin_tile("A3")

    def facet_sets(vectors):
        return {f for f, _ in cone_facets([pairing_row(v) for v in vectors])}

    base = facet_sets(tile.ray_vectors)
    for _ in range(3):
        g = tuple(tuple(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        for _ in range(5):
            i, j = rng.sample(range(3), 2)
            e = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
            e[i][j] = rng.choice((1, -1))
            g = mat_mul_int(g, tuple(tuple(r) for r in e))
        assert int_det(g) == 1
        moved = [mat_vec_int(g, v) for v in tile.ray_vectors]
        assert facet_sets(moved) == base  # labels transported by position


def test_builtin_dataset_shapes():
    assert [e.name for e in vr.builtin_dataset(2)] == ["A2"]
    four = vr.builtin_dataset(4)
    assert [e.name for e in four] == ["A4", "D4"]
    assert len(four[1].vectors) == 12
    five = vr.builtin_dataset(5)
    assert [e.name for e in five] == ["A5", "A5+3", "D5"]
    assert len(five[1].vectors) == 15
    assert len(vr.builtin_dataset(2)[0].vectors) == 3
    with pytest.raises(ValueError):
        vr.builtin_dataset(6)


def test_section_configuration_roundtrip():
    tile = vr.builtin_tile("A2")
    config, labels = vr.section_configuration(tile)
    assert labels == [0, 1, 2]
    assert config.ambient_dim == 2 and len(config) == 3
