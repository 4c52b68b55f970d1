"""The one-pass SL_n(Z) equivalence search against the search it replaced,
kept here as the oracle: a base found by a pivoting integer rank on every
prefix, each candidate g built and checked (integral, det 1, set map), and
the sign of g.a = s.b re-derived by `act`, which re-canonicalizes g's image
of a.  The new search must give the same (g, sign) list in the same order."""

import random
from fractions import Fraction as Q
from math import gcd

import pytest

from vcdcycle import certs
from vcdcycle import cycle as cy
from vcdcycle import data, dd, repro
from vcdcycle import exactq as eq
from vcdcycle import polytope as pt
from vcdcycle import sharbly as sh
from vcdcycle import voronoi as vr
from vcdcycle.exactq import int_det, mat_mul_int, mat_vec_int

from test_exactq import cofactor_adjugate
from test_sharbly import act

# ---------------------------------------------------------------------------
# oracle


def _content_free(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def oracle_rank(rows):
    """Rank by integer elimination with the smallest pivot in each column."""
    a = [_content_free(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        live = [i for i in range(rank, len(a)) if a[i][col]]
        if not live:
            continue
        piv = min(live, key=lambda i: abs(a[i][col]))
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        for i in range(rank + 1, len(a)):
            if a[i][col]:
                g = gcd(prow[col], a[i][col])
                fp, fa = prow[col] // g, a[i][col] // g
                a[i] = _content_free([fp * x - fa * y for x, y in zip(a[i], prow)])
        rank += 1
    return rank


def _oracle_base(vectors, limit):
    """The first `limit` vectors, greedily, that raise the rank of the prefix."""
    base, rows = [], []
    for i, v in enumerate(vectors):
        if oracle_rank(rows + [v]) > len(rows):
            base.append(i)
            rows.append(v)
            if len(base) == limit:
                break
    return base


def oracle_independent_rows(rows, limit):
    """The gcd echelon that `exactq.independent_rows` replaced: a row is
    reduced, r <- e[c] r - r[c] e (both factors divided by their gcd, the
    result by its content), by each kept row e at its pivot column c, and is
    kept, pivoting on its last nonzero entry, when something is left."""
    picked, echelon = [], []  # echelon: (pivot column, row)
    for i, r in enumerate(rows):
        r = _content_free(r)
        for c, e in echelon:
            x = r[c]
            if x:
                p = e[c]
                g = gcd(p, x)
                p, x = p // g, x // g
                r = _content_free([p * y - x * z for y, z in zip(r, e)])
        for c in range(len(r) - 1, -1, -1):
            if r[c]:
                echelon.append((c, r))
                picked.append(i)
                break
        if len(picked) == limit:
            break
    return picked


def _oracle_complete(sa, sb, b_index, adj_a, det_a, assign_j, assign_s, n):
    images = [[assign_s[k] * y for y in sb[assign_j[k]]] for k in range(n)]
    g_rows = []
    for r in range(n):
        row = []
        for c in range(n):
            x, rem = divmod(sum(images[k][r] * adj_a[k][c] for k in range(n)), det_a)
            if rem:
                return
            row.append(x)
        g_rows.append(tuple(row))
    g = tuple(g_rows)
    if int_det(g) != 1:
        return
    seen = set()
    for v in sa:
        w = eq.primitive_normalize(mat_vec_int(g, v))
        j = b_index.get(w)
        if j is None or j in seen:
            return
        seen.add(j)
    yield g


def oracle_vector_set_maps(vs_a, vs_b, n):
    m = len(vs_a)
    if m != len(vs_b):
        return
    na, rka, gka = sh._pair_data(tuple(sorted(vs_a)), n)
    nb, rkb, gkb = sh._pair_data(tuple(sorted(vs_b)), n)
    if gka != gkb:
        return
    sa, sb = sorted(vs_a), sorted(vs_b)
    b_index = {v: i for i, v in enumerate(sb)}
    base = _oracle_base(sa, n)
    if len(base) < n:
        raise ValueError("vectors do not span Q^n")
    cand = [[j for j in range(m) if rkb[j] == rka[i]] for i in base]
    order = sorted(range(n), key=lambda k: len(cand[k]))
    basecols = list(zip(*(sa[i] for i in base)))
    det_a, adj_a = int_det(basecols), cofactor_adjugate(basecols)
    assign_j, assign_s, used = [-1] * n, [0] * n, set()

    def backtrack(pos):
        if pos == n:
            yield from _oracle_complete(sa, sb, b_index, adj_a, det_a, assign_j, assign_s, n)
            return
        k = order[pos]
        i = base[k]
        for j in cand[k]:
            if j in used:
                continue
            if any(abs(na[i][base[order[p]]]) != abs(nb[j][assign_j[order[p]]])
                   for p in range(pos)):
                continue
            for s in (1, -1):
                if any(na[i][base[order[p]]] != s * assign_s[order[p]] * nb[j][assign_j[order[p]]]
                       for p in range(pos)):
                    continue
                assign_j[k], assign_s[k] = j, s
                used.add(j)
                yield from backtrack(pos + 1)
                used.discard(j)
        assign_j[order[pos]] = -1

    yield from backtrack(0)


def oracle_equivalences(a, b, want_sign=None):
    if a.n != b.n or len(a.vectors) != len(b.vectors):
        return
    for g in oracle_vector_set_maps(a.vectors, b.vectors, a.n):
        res = act(g, a)
        if res is sh.ZERO:
            continue
        sign, c = res
        if c == b and (want_sign is None or sign == want_sign):
            yield g, sign


# ---------------------------------------------------------------------------
# seeded inputs


def _random_sl(rng, n, steps=6):
    g = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice((-1, 1))
        g = mat_mul_int(g, e)
    return g


def _random_symbol(rng, n):
    """A canonical symbol of n..n(n+1)/2 + 1 small vectors (many symmetries)."""
    for _ in range(1000):
        m = rng.randint(n, n * (n + 1) // 2 + 1)
        bound = rng.choice((1, 1, 2))
        vs = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)]
        if any(not any(v) for v in vs):
            continue
        res = sh.canonicalize(vs, n)
        if res is not sh.ZERO:
            return res[1]
    raise AssertionError("no spanning symbol drawn in 1000 tries")


def _pairs(seed, n, count):
    """(a, b) pairs: a symbol with a moved copy, with itself, or with another."""
    rng = random.Random(f"orbit-search/{seed}/{n}")
    out = []
    for _ in range(count):
        a = _random_symbol(rng, n)
        kind = rng.random()
        if kind < 0.6:
            _, b = act(_random_sl(rng, n), a)
        elif kind < 0.8:
            b = a
        else:
            b = _random_symbol(rng, n)
        out.append((a, b))
    return out


CASES = [(seed, n) for seed in (0, 1) for n in (2, 3, 4)]


def equivalences(a, b, want_sign=None):
    """All (g, s) with g.a = s.b, in search order, from the library's
    `vector_set_maps` on canonical symbols of one rank."""
    for g, sign in sh.vector_set_maps(a.vectors, b.vectors, a.n):
        if want_sign is None or sign == want_sign:
            yield g, sign


@pytest.mark.parametrize("seed, n", CASES)
def test_equivalences_match_the_oracle(seed, n):
    found = 0
    negating = 0
    for a, b in _pairs(seed, n, 40):
        for want in (None, 1, -1):
            got = list(equivalences(a, b, want_sign=want))
            assert got == list(oracle_equivalences(a, b, want_sign=want))
        found += any(equivalences(a, b))
        negating += any(s == -1 for _, s in equivalences(a, a))
        assert sh.equivalent(a, b) == next(oracle_equivalences(a, b), None)
    assert found >= 10 and negating >= 1  # the cases exercise both signs


@pytest.mark.parametrize("seed, n", CASES)
def test_signs_are_the_action_signs(seed, n):
    for a, b in _pairs(seed, n, 40):
        for g, sign in sh.vector_set_maps(a.vectors, b.vectors, n):
            assert int_det(g) == 1
            assert act(g, a) == (sign, b)


@pytest.mark.parametrize("seed, n", CASES)
def test_vector_set_maps_match_the_oracle_on_raw_lists(seed, n):
    """vs_a unnormalized, in any order, sometimes holding both v and -v;
    vs_b normalized (the search looks the normalized images up in it)."""
    rng = random.Random(f"orbit-search-raw/{seed}/{n}")
    found = 0
    for a, b in _pairs(seed, n, 30):
        h = _random_sl(rng, n)
        vs_a = [tuple(rng.choice((1, -1)) * x for x in v) for v in a.vectors]
        if rng.random() < 0.3:
            vs_a[-1] = tuple(-x for x in vs_a[0])
        rng.shuffle(vs_a)
        vs_b = [eq.primitive_normalize(mat_vec_int(h, v)) for v in vs_a]
        if rng.random() < 0.3:
            vs_b = list(b.vectors)
        got = _maps(lambda: [g for g, _ in sh.vector_set_maps(vs_a, vs_b, n)])
        assert got == _maps(lambda: list(oracle_vector_set_maps(vs_a, vs_b, n)))
        found += bool(got) and not isinstance(got, str)
    assert found >= 5


def _maps(search):
    try:
        return search()
    except ValueError as exc:  # the list no longer spans
        return str(exc)


def test_a_list_holding_v_and_minus_v_maps_nowhere():
    vs = [(1, 0), (-1, 0), (0, 1)]
    assert list(sh.vector_set_maps(vs, vs, 2)) == []
    assert list(oracle_vector_set_maps(vs, vs, 2)) == []


def _random_rows(rng):
    """Up to 20 x 16, entries up to +-3 or +-1000; rank deficiency forced
    through combinations of a few rows, and zero rows put in."""
    n = rng.randint(1, 16 if rng.random() < 0.3 else 5)
    m = rng.randint(1, 20 if n > 5 else n + 3)
    bound = rng.choice((3, 3, 1000))
    vs = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.4:
        k = rng.randint(1, n - 1) if n > 1 else 1
        basis = vs[:k]
        vs = [
            [sum(rng.randint(-2, 2) * b[c] for b in basis) for c in range(n)]
            for _ in range(m)
        ]
    if rng.random() < 0.2:
        for _ in range(rng.randint(1, 3)):
            vs.insert(rng.randint(0, len(vs)), [0] * n)
    return vs, n


@pytest.fixture(scope="module")
def d5_matrices():
    """The D5 pairing rows, the Gale dual of facet F and the Gale rows of T1."""
    tile = vr.tile_of(vr.builtin_form("D5"))
    config = cy.facet_geometry(tile, data.D5_FACET_F).config
    local = {label: i for i, label in enumerate(sorted(data.D5_FACET_F))}
    t1 = [frozenset(local[x] for x in s) for s in data.D5_F_TRIANGULATION_1]
    return [
        [eq.pairing_row(v) for v in tile.ray_vectors],
        list(config._gale.rows),
        pt._gale_rows(config, t1),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_independent_rows_and_spanning_test_agree_with_int_rank(seed, monkeypatch, d5_matrices):
    rng = random.Random(f"spanning/{seed}")
    deficient = 0
    for _ in range(400):
        vs, n = _random_rows(rng)
        base = eq.independent_rows(vs, n)
        rank = oracle_rank(vs)
        assert eq.int_rank(vs) == rank
        assert len(base) == min(rank, n)
        assert base == _oracle_base(vs, n) == oracle_independent_rows(vs, n)
        for limit in {rng.randint(1, n), rng.randint(1, max(rank, 1))}:
            assert eq.independent_rows(vs, limit) == _oracle_base(vs, limit)
            assert eq.independent_rows(vs, limit) == oracle_independent_rows(vs, limit)
        deficient += rank < n
        nonzero = [v for v in vs if any(v)]
        if nonzero and len({eq.primitive_normalize(v) for v in nonzero}) == len(nonzero):
            spans = sh.canonicalize(nonzero, n) is not sh.ZERO
            assert spans == (oracle_rank(nonzero) == n)
    assert deficient >= 100

    for rows in d5_matrices:
        for limit in range(1, len(rows[0]) + 1):
            assert eq.independent_rows(rows, limit) == oracle_independent_rows(rows, limit)

    # every rank test of criterion 7 on this seed, recorded
    calls = []
    kernel = eq.independent_rows

    def recorded(rows, limit):
        calls.append(([list(r) for r in rows], limit))
        return kernel(rows, limit)

    for module in (eq, sh, pt, certs, dd):
        if hasattr(module, "independent_rows"):
            monkeypatch.setattr(module, "independent_rows", recorded)
    assert repro.criterion_7(seed)["ok"]
    monkeypatch.undo()
    assert len(calls) > 6000
    for rows, limit in calls:
        assert kernel(rows, limit) == oracle_independent_rows(rows, limit)


# ---------------------------------------------------------------------------
# primitive_normalize: the plain-int path against the _clear_row path


def _cleared(v):
    ints = eq._clear_row(v)
    lead = next(x for x in ints if x)
    return tuple(-x for x in ints) if lead < 0 else tuple(ints)


@pytest.mark.parametrize("seed", [0, 1])
def test_primitive_normalize_int_path_equals_clear_row_path(seed):
    rng = random.Random(f"normalize/{seed}")
    for _ in range(500):
        n = rng.randint(1, 6)
        v = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
        if rng.random() < 0.3:
            v[0] = 0  # leading zero
        if rng.random() < 0.5:
            v = [rng.randint(2, 6) * x for x in v]  # content > 1
        if not any(v):
            with pytest.raises(ValueError):
                eq.primitive_normalize(v)
            continue
        want = _cleared(v)
        assert eq.primitive_normalize(v) == want
        assert eq.primitive_normalize(tuple(v)) == want
        assert eq.primitive_normalize([Q(x) for x in v]) == want
        mixed = [Q(x, 3) if i % 2 else x for i, x in enumerate(v)]
        assert eq.primitive_normalize(mixed) == _cleared(mixed)


def test_primitive_normalize_bools_and_zero():
    assert eq.primitive_normalize([True, False]) == (1, 0)
    assert eq.primitive_normalize([False, True, True]) == (0, 1, 1)
    assert type(eq.primitive_normalize([True, False])[0]) is int
    for zero in ([0, 0], (0,), [False, False], [Q(0), 0], []):
        with pytest.raises(ValueError):
            eq.primitive_normalize(zero)


# ---------------------------------------------------------------------------
# _pair_data: the one-comprehension kernel against the loop kernel it replaced


def oracle_pair_data(vectors, n):
    s = [[0] * n for _ in range(n)]
    for v in vectors:
        for i in range(n):
            for j in range(n):
                s[i][j] += v[i] * v[j]
    dets, adj = eq.int_det_adjugate(s)
    m = len(vectors)
    av = [mat_vec_int(adj, v) for v in vectors]
    npair = [[sum(x * y for x, y in zip(av[i], vectors[j])) for j in range(m)]
             for i in range(m)]
    row_keys = tuple(
        (npair[i][i], tuple(sorted(abs(npair[i][j]) for j in range(m))))
        for i in range(m)
    )
    return npair, row_keys, (n, m, dets, tuple(sorted(row_keys)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_data_matches_the_loop_kernel(n):
    rng = random.Random(f"pair-data/{n}")
    for _ in range(100):
        vs = _random_symbol(rng, n).vectors
        assert sh._pair_data.__wrapped__(vs, n) == oracle_pair_data(vs, n)


# ---------------------------------------------------------------------------
# automorphism groups: the stabilizer chain against the full enumeration


def oracle_elements(vectors, n):
    return sorted(g for g, _ in sh.vector_set_maps(vectors, vectors, n))


def _check_group(vectors, n, group):
    enumerated = oracle_elements(vectors, n)
    assert group.order == len(enumerated)
    assert group.elements() == enumerated
    _, a = sh.canonicalize(vectors, n)
    for g, sign in group.generators:
        assert int_det(g) == 1 and act(g, a) == (sign, a)


@pytest.mark.parametrize("name, order", [("A2", 6), ("A3", 24), ("A4", 120), ("D4", 576),
                                         ("D5", 1920)])
def test_tile_groups_match_the_enumeration(name, order):
    tile = vr.builtin_tile(name)
    group = sh.automorphism_group(tile.ray_vectors, tile.n)
    assert group.order == order
    _check_group(tile.ray_vectors, tile.n, group)


@pytest.mark.parametrize("seed, n", CASES)
def test_symbol_groups_and_self_negation_match_the_enumeration(seed, n):
    rng = random.Random(f"automorphisms/{seed}/{n}")
    negating = fixed = 0
    for _ in range(40):
        a = _random_symbol(rng, n)
        group = sh.automorphism_group(a.vectors, n)
        _check_group(a.vectors, n, group)
        first = next((g for g, _ in equivalences(a, a, want_sign=-1)), None)
        assert sh.self_negation_witness(a) == first
        assert any(s == -1 for _, s in group.generators) == (first is not None)
        negating += first is not None
        fixed += first is None
    assert negating >= 3 and fixed >= 3  # both answers of the sign test occur


def test_the_chain_visits_a_few_leaves(monkeypatch):
    """D4: 13 leaves for the group of order 576, which has 1152 leaves to
    enumerate (each element and its negative)."""
    leaves = []
    complete = sh._complete
    monkeypatch.setattr(sh, "_complete", lambda *args: leaves.append(1) or complete(*args))
    tile = vr.builtin_tile("D4")
    assert sh.automorphism_group(tile.ray_vectors, 4).order == 576
    assert len(leaves) == 13
