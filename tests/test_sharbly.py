import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdcycle import sharbly as sh
from vcdcycle.exactq import independent_rows, int_det, mat_vec_int

E1, E2 = (1, 0), (0, 1)
E12 = (1, -1)


def act(g, basic):
    """g . basic, canonicalized: ZERO or (sign, BasicSharbly); the action
    re-derived in full, span test included."""
    return sh.canonicalize([mat_vec_int(g, v) for v in basic.vectors], basic.n)


def chain_of(vectors, coeff=1):
    c = sh.SharblyChain()
    c.add_symbol(vectors, coeff)
    return c


def test_canonicalize_permutation_sign():
    assert sh.canonicalize([E2, E1]) == (1, sh.BasicSharbly(2, ((0, 1), (1, 0))))
    assert sh.canonicalize([E1, E2]) == (-1, sh.BasicSharbly(2, ((0, 1), (1, 0))))


def test_canonicalize_rescaling():
    sign, basic = sh.canonicalize([(2, 0), E2])
    assert basic.vectors == ((0, 1), (1, 0))
    # (2,0) normalizes to e1, which sorts after e2
    assert sign == -1


def test_canonicalize_zero_cases():
    assert sh.canonicalize([E1, (-3, 0)]) is sh.ZERO  # no span
    assert sh.canonicalize([(1, 0, 0), (0, 1, 0), (2, 0, 0)]) is sh.ZERO
    with pytest.raises(ValueError):
        sh.canonicalize([E1, (0, 0)])


@settings(max_examples=60)
@given(
    st.permutations(list(range(4))),
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        min_size=4,
        max_size=4,
    ),
)
def test_canonicalize_sign_multiplicative(perm, vs):
    if any(not any(v) for v in vs):
        return
    res = sh.canonicalize(vs)
    if res is sh.ZERO:
        return
    sign, basic = res
    permuted = [vs[i] for i in perm]
    sign2, basic2 = sh.canonicalize(permuted)
    assert basic2 == basic
    assert sign2 == sign * sh._perm_sign(list(perm))


def test_boundary_of_a2_symbol():
    # three faces with alternating signs
    c = chain_of([E1, E2, E12])
    b = sh.boundary(c)
    expected = sh.SharblyChain()
    expected.add_symbol([E2, E12], 1)
    expected.add_symbol([E1, E12], -1)
    expected.add_symbol([E1, E2], 1)
    assert b == expected


def test_boundary_squared_zero_random():
    rng = random.Random(11)
    for n in (2, 3):
        done = 0
        while done < 25:
            vs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 2)]
            if any(not any(v) for v in vs):
                continue
            res = sh.canonicalize(vs)
            if res is sh.ZERO:
                continue
            done += 1
            _, basic = res
            c = sh.SharblyChain({basic: F(1)})
            assert sh.boundary(sh.boundary(c)).is_zero()


def test_boundary_degree_error():
    _, basic = sh.canonicalize([E1, E2])
    with pytest.raises(ValueError):
        sh.boundary_basic(basic)


def test_six_term_boundary_contains_printed_face():
    vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
    sign, basic = sh.canonicalize(vs)
    b = sh.boundary(sh.SharblyChain({basic: F(sign)}))
    assert len(b.terms) == 6
    face = sh.canonicalize([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1)])
    assert face is not sh.ZERO
    assert face[1] in b.terms


def test_paper_action_examples():
    g = ((0, 1), (-1, 0))
    h = ((0, 1), (-1, -1))
    _, b12 = sh.canonicalize([E1, E2])
    # g[e1,e2] = [e2,e1] = -[e1,e2]: the class negates itself
    assert act(g, b12) == (-1, b12)
    # h[e1,e2] = [e2,e1-e2]
    target = sh.canonicalize([E2, E12])
    assert act(h, sh.BasicSharbly(2, (E1, E2))) == target


def test_rank3_negation_witness_from_tables():
    k = ((0, 0, -1), (0, 1, 1), (1, 0, 0))
    vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1)]
    sign, basic = sh.canonicalize(vs)
    assert int_det(k) == 1
    assert act(k, basic) == (-1, basic)


def test_equivalent_and_witness_validity():
    _, a = sh.canonicalize([E1, E2])
    _, b = sh.canonicalize([E2, E12])
    got = sh.equivalent(a, b)
    assert got is not None
    g, sign = got
    assert int_det(g) == 1
    assert act(g, a) == (sign, b)


def test_equivalent_symmetric():
    rng = random.Random(2)
    _, a = sh.canonicalize([E1, E2, (1, 2)])
    g = ((2, 1), (1, 1))
    s, b = act(g, a)
    fwd = sh.equivalent(a, b)
    bwd = sh.equivalent(b, a)
    assert fwd is not None and bwd is not None


def test_self_negation_witness():
    _, b12 = sh.canonicalize([E1, E2])
    w = sh.self_negation_witness(b12)
    assert w is not None and act(w, b12) == (-1, b12)


def test_orbit_dictionary_is_constant_on_orbits():
    rng = random.Random(4)
    odict = sh.OrbitDictionary()
    _, a = sh.canonicalize([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    cls_a, _, _ = odict.canonical_with_witness(a)
    for _ in range(5):
        g = _random_sl(rng, 3)
        s, b = act(g, a)
        cls_b, sign_b, _ = odict.canonical_with_witness(b)
        assert cls_b.class_id == cls_a.class_id


def _random_sl(rng, n):
    from vcdcycle.exactq import mat_mul_int

    g = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = rng.choice((-1, 1))
        g = mat_mul_int(g, tuple(tuple(r) for r in e))
    return g


def test_project_coinvariants_drops_self_negating():
    odict = sh.OrbitDictionary()
    c = chain_of([E1, E2, E12])
    proj = sh.project_coinvariants(sh.boundary(c), odict)
    assert proj == {}  # all three faces are self-negating classes


def test_project_coinvariants_linearity():
    rng = random.Random(9)
    odict = sh.OrbitDictionary()
    _, a = sh.canonicalize([(1, 0), (1, 2), (2, 1)])
    c = sh.SharblyChain({a: F(3, 7)})
    g = _random_sl(rng, 2)
    s, b = act(g, a)
    c2 = sh.SharblyChain({b: F(3, 7) * s})  # g.c as a chain
    total = c + c2
    p1 = sh.project_coinvariants(c, odict)
    pt = sh.project_coinvariants(total, odict)
    assert {k.class_id: v for k, v in pt.items()} == {
        k.class_id: 2 * v for k, v in p1.items()
    }


def test_boundary_commutes_with_action():
    rng = random.Random(12)
    odict = sh.OrbitDictionary()
    _, a = sh.canonicalize([(1, 0), (0, 1), (1, 1), (2, 1)])
    c = sh.SharblyChain({a: F(1)})
    g = _random_sl(rng, 2)
    s, b = act(g, a)
    gc = sh.SharblyChain({b: F(s)})
    lhs = sh.project_coinvariants(sh.boundary(gc), odict)
    rhs = sh.project_coinvariants(sh.boundary(c), odict)
    assert {k.class_id: v for k, v in lhs.items()} == {
        k.class_id: v for k, v in rhs.items()
    }


def test_sharbly_of_cone_a2():
    rays = [E1, E2, E12]
    sign, basic = sh.sharbly_of_cone(rays)
    # sign * basic equals the positively oriented symbol; check determinant
    from vcdcycle.exactq import int_det, rank1_vec

    assert int_det([rank1_vec(v) for v in basic.vectors]) * sign > 0 or sign in (1, -1)
    # permutation invariance
    assert sh.sharbly_of_cone([E2, E12, E1]) == (sign, basic)


def test_sharbly_of_cone_errors():
    with pytest.raises(ValueError):
        sh.sharbly_of_cone([E1, E2])  # wrong count
    with pytest.raises(ValueError):
        sh.sharbly_of_cone([E1, (2, 0), E2])  # dependent rays (duplicate line)


def test_antisym_sum():
    p, q, r = (F(0), F(0)), (F(1), F(0)), (F(0), F(1))
    s = sh.AntisymSum()
    s.add([p, q, r], 1)
    s.add([q, p, r], 1)  # odd permutation cancels
    assert s.is_zero()
    s.add([p, q, r], 1)
    s.add([p, p, q], 5)  # repeated point is zero
    assert len(s.terms) == 1
    b = s.boundary()
    assert len(b.terms) == 3
    assert b.boundary().is_zero()
    # the arithmetic shared with SharblyChain keeps the kind
    t = sh.AntisymSum()
    t.add([q, p, r], 2)  # -2 [p, q, r]
    assert type(s + t) is sh.AntisymSum and s + t == s.scale(-1)
    assert (s - s).is_zero() and s.scale(0) == sh.AntisymSum()
    assert repr(t) == "AntisymSum(1 terms)"
    assert sh.AntisymSum() != sh.SharblyChain()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_basic_matches_the_canonicalizing_path(n):
    # the oracle sends every face back through add_symbol -> canonicalize
    rng = random.Random(n)
    tested = 0
    while tested < 60:
        degree = rng.randint(1, 3)
        vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + degree)]
        if any(not any(v) for v in vs):
            continue
        res = sh.canonicalize(vs)
        if res is sh.ZERO:
            continue
        _, basic = res
        tested += 1
        oracle = sh.SharblyChain()
        for i in range(len(basic.vectors)):
            oracle.add_symbol(basic.vectors[:i] + basic.vectors[i + 1 :], (-1) ** i)
        got = sh.boundary_basic(basic)
        assert list(got.terms.items()) == list(oracle.terms.items())


def per_face_boundary_basic(basic):
    """The boundary with one spanning test per face: the oracle for the
    coloop test of `boundary_basic`."""
    out = sh.SharblyChain()
    n, vs = basic.n, basic.vectors
    for i in range(len(vs)):
        face = vs[:i] + vs[i + 1 :]
        if len(independent_rows(face, n)) == n:
            out.add(sh.BasicSharbly(n, face), (-1) ** i)
    return out


def _with_coloops(rng, n, k):
    """A canonical list with at least k coloops: distinct lines spanning the
    coordinate subspace x_0 = ... = x_{k-1} = 0 (of dimension n - k >= 2),
    one to three more than it needs, plus k random vectors spanning a
    complement of it."""
    while True:
        flat = [(0,) * k + tuple(rng.randint(-3, 3) for _ in range(n - k))
                for _ in range(rng.randint(n - k + 1, n - k + 3))]
        off = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if any(not any(v) for v in flat + off):
            continue
        res = sh.canonicalize(flat + off)
        if res is not sh.ZERO:
            return res[1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_basic_matches_the_per_face_rank_test(n):
    rng = random.Random(f"coloops/{n}")
    for k in range(1, n - 1):  # rank 2 has no coloops: any two lines span
        for _ in range(60):
            basic = _with_coloops(rng, n, k)
            got, want = sh.boundary_basic(basic), per_face_boundary_basic(basic)
            assert list(got.terms.items()) == list(want.terms.items())
            assert len(got.terms) <= len(basic.vectors) - k
    tested = 0
    while tested < 100:
        degree = rng.randint(1, 3)
        vs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + degree)]
        if any(not any(v) for v in vs):
            continue
        res = sh.canonicalize(vs)
        if res is sh.ZERO:
            continue
        tested += 1
        got, want = sh.boundary_basic(res[1]), per_face_boundary_basic(res[1])
        assert list(got.terms.items()) == list(want.terms.items())
    # every top cone of the cycle, as cycle.verify_boundary_zero takes it
    from vcdcycle import cycle as cy

    for prov in cy.build_zG(n).provenance:
        got, want = sh.boundary_basic(prov.basic), per_face_boundary_basic(prov.basic)
        assert list(got.terms.items()) == list(want.terms.items())


def test_boundary_basic_drops_the_faces_without_a_coloop():
    # e3 is off the plane x_2 = 0 that the other three vectors span, so the
    # face that drops it does not span Q^3
    _, basic = sh.canonicalize([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    got = sh.boundary_basic(basic)
    assert len(got.terms) == 3
    assert all((0, 0, 1) in face.vectors for face in got.terms)
    assert got == per_face_boundary_basic(basic)
