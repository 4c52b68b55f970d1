import random
from fractions import Fraction as F

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


def test_minimal_vectors_requires_positive_definite():
    with pytest.raises(ValueError):
        vr.minimal_vectors([[1, 0], [0, -1]])


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
