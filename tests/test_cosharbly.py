import random
from fractions import Fraction as F

import pytest

from vcdcycle import cosharbly as co
from vcdcycle import cycle as cy
from vcdcycle.exactq import affine_dim, mat_vec_int
from vcdcycle.sharbly import ZERO, BasicSharbly, canonicalize


def a2_section():
    _, basic = canonicalize([(1, 0), (0, 1), (1, -1)])
    return co.section_points(basic)


def test_epsilon_swap_negates():
    pts = list(a2_section())
    e = co.epsilon(pts)
    assert e in (1, -1)
    swapped = [pts[1], pts[0], pts[2]]
    assert co.epsilon(swapped) == -e


def test_epsilon_degenerate_zero():
    third = tuple(
        (a + b) / 2 for a, b in zip(a2_section()[0], a2_section()[1])
    )
    pts = [a2_section()[0], a2_section()[1], third]
    assert co.epsilon(pts) == 0


def test_epsilon_requires_section_points():
    with pytest.raises(ValueError):
        co.epsilon([(1, 0, 1), (0, 0, 1), (1, 1, 1)])  # traces not 1


def test_epsilon_matches_cone_orientation():
    # positively oriented cone symbols have section sign +1
    from vcdcycle.sharbly import sharbly_of_cone

    sign, basic = sharbly_of_cone([(1, 0), (0, 1), (1, -1)])
    assert co.epsilon(co.section_points(basic)) == sign


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


def test_three_equivalent_degeneracy_tests():
    rng = random.Random(5)
    n = 2
    d = 3
    count = 0
    while count < 200:
        vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d)]
        if any(not any(v) for v in vs):
            continue
        res = canonicalize(vs)
        if res == "zero":
            continue
        _, basic = res
        count += 1
        pts = co.section_points(basic)
        flip = co.is_flipon(basic)
        assert flip == (co.epsilon(pts) == 0)
        assert flip == (affine_dim(pts) <= d - 2)


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
    from vcdcycle.sharbly import orbit_canonical

    cls, _ = orbit_canonical(flipon, odict)
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
    from vcdcycle.exactq import rank1_vec
    from vcdcycle.voronoi import normalize_to_section

    rng = random.Random(21)
    checked = 0
    for n in (2, 3, 4):
        for _ in range(30):
            vs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n + 2)]
            res = canonicalize([v for v in vs if any(v)], n)
            if res is ZERO:
                continue
            basic = res[1]
            want = tuple(_old_section_point(rank1_vec(v), n) for v in basic.vectors)
            assert co.section_points(basic) == want
            checked += 1
            # a rational multiple of a ray
            ray = [F(rng.randint(1, 5), rng.randint(1, 4)) * x for x in rank1_vec(basic.vectors[0])]
            assert normalize_to_section(ray, n) == _old_section_point(ray, n)
    assert checked >= 60
