import random
from fractions import Fraction
from math import lcm

import pytest

from vcdcycle import cycle as cy
from vcdcycle import data
from vcdcycle import polytope as pt
from vcdcycle import repro
from vcdcycle import voronoi as vr
from vcdcycle.dd import cone_facets
from vcdcycle.exactq import (
    as_q, independent_rows, int_rank, int_rows, mat_vec_int, nullspace, solve, vec_q,
)
from vcdcycle.sharbly import AntisymSum, _perm_sign


def hull_volume_scaled(config):
    """Hull volume times m! in the configuration's integer scale: the cached
    volume in units of |kappa| (the placing's sum of |det K_O|) times |kappa|."""
    return abs(config._gale.kappa) * config._hull_volume


def lift_triangulation(config, heights):
    """Lower-hull triangulation induced by generic heights: the oracle for
    `is_regular`'s witnesses."""
    pt._require_full_dim(config)
    pts = config._int_points
    m = config.ambient_dim
    hs = [as_q(heights[i]) for i in config.labels]
    l = lcm(*(h.denominator for h in hs))
    hint = [int(h * l) for h in hs]
    lifted = [(1,) + p + (hint[i],) for i, p in enumerate(pts)]
    base = lifted[0]
    diffs = [[x - y for x, y in zip(q, base)] for q in lifted[1:]]
    if int_rank(diffs) == m:  # affine heights: flat lift
        if len(config.points) == m + 1:
            return frozenset({frozenset(config.labels)})
        raise pt.DegenerateConfiguration("heights are not generic")
    tri = set()
    for tight, normal in cone_facets(lifted):
        if normal[-1] <= 0:  # not a lower facet
            continue
        if len(tight) != m + 1:
            raise pt.DegenerateConfiguration("heights are not generic")
        tri.add(frozenset(tight))
    result = frozenset(tri)
    if sum(abs(pt._simplex_det(config, s)) for s in result) != hull_volume_scaled(config):
        raise pt.DegenerateConfiguration("heights are not generic")
    return result


def dd_hull_facets(config):
    """The hull facets' label sets by double description on the homogenized
    points: the oracle for the unshared-ridge test."""
    pt._require_full_dim(config)
    return {tight for tight, _ in cone_facets(pt._homog(config))}


def square():
    return pt.PointConfiguration.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])


def triangle():
    return pt.PointConfiguration.from_points([(0, 0), (1, 0), (0, 1)])


def pyramid():
    return pt.PointConfiguration.from_points(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]
    )


DIAG_02 = frozenset({frozenset({0, 1, 2}), frozenset({0, 2, 3})})
DIAG_13 = frozenset({frozenset({0, 1, 3}), frozenset({1, 2, 3})})


def _random_configs(seed, count, dims=(1, 2, 3, 4)):
    """Full-dimensional configurations of small integer points, often not in
    general position."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.choice(dims)
        npts = rng.randint(dim + 1, dim + 5)
        pts = {tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(npts)}
        config = pt.PointConfiguration.from_points(sorted(pts))
        if config._gale is not None:
            out.append(config)
    return out


def test_hull_facets_match_double_description():
    """On every ridge s - {a} of a placing triangulation, the unshared-ridge
    test (no point w with dep[a] * det > 0 in `_simplex_dependences`) says
    "on the hull" exactly when the ridge lies in a hull facet, and so
    exactly on the boundary ridges; these with the points on their
    hyperplanes (dep[a] == 0) give every hull facet."""
    d5 = cy.facet_geometry(vr.builtin_tile("D5"), data.D5_FACET_F).config
    d4, _ = vr.section_configuration(vr.builtin_tile("D4"))
    counts = []
    for config in [d5, d4] + _random_configs(7, 120):
        facets = dd_hull_facets(config)
        found = set()
        for ridge, owners in pt._ridges(config._placing).items():
            a = next(iter(owners[0] - ridge))
            deps = pt._simplex_dependences(config, owners[0]).items()
            on_hull = not any(dep[a] * det > 0 for _, (det, dep) in deps)
            assert on_hull == any(ridge <= f for f in facets) == (len(owners) == 1)
            if on_hull:
                found.add(ridge | {w for w, (_, dep) in deps if dep[a] == 0})
        assert found == facets, config.points
        counts.append(len(found))
    assert counts[:2] == [68, 64]


def test_affine_dependence_segment():
    cfg = pt.PointConfiguration.from_points([(0,), (1,), (2,)])
    z = pt.affine_dependence(cfg)
    assert {z.positive_part, z.negative_part} == {frozenset({0, 2}), frozenset({1})}
    coeffs = dict(z.dependence)
    assert coeffs[0] == coeffs[2] and coeffs[1] == -2 * coeffs[0]


def test_affine_dependence_square():
    z = pt.affine_dependence(square())
    assert {z.positive_part, z.negative_part} == {frozenset({0, 2}), frozenset({1, 3})}


def test_affine_dependence_errors():
    with pytest.raises(ValueError):
        pt.affine_dependence(triangle())
    five = pt.PointConfiguration.from_points([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    with pytest.raises(ValueError):
        pt.affine_dependence(five)


def test_gkz_two_triangulations_segment():
    cfg = pt.PointConfiguration.from_points([(0,), (1,), (2,)])
    z = pt.affine_dependence(cfg)
    t_plus, t_minus = pt.gkz_two_triangulations(z)
    split = frozenset({frozenset({0, 1}), frozenset({1, 2})})
    whole = frozenset({frozenset({0, 2})})
    assert {t_plus, t_minus} == {split, whole}


def test_gkz_two_triangulations_square():
    z = pt.affine_dependence(square())
    t_plus, t_minus = pt.gkz_two_triangulations(z)
    assert {t_plus, t_minus} == {DIAG_02, DIAG_13}


def test_placing_simplex_any_order():
    cfg = triangle()
    for order in ([0, 1, 2], [2, 0, 1]):
        tri = pt.placing_triangulation(cfg, order=order)
        h = pt.is_regular(cfg, tri)
        assert tri == frozenset({frozenset({0, 1, 2})})
        assert lift_triangulation(cfg, h) == tri


def test_placing_square_is_a_diagonal():
    tri = pt.placing_triangulation(square())
    heights = pt.is_regular(square(), tri)
    assert tri in (DIAG_02, DIAG_13)
    assert lift_triangulation(square(), heights) == tri


def test_lift_square_separating_height():
    tri = lift_triangulation(square(), {0: 0, 1: 0, 2: 0, 3: 1})
    assert tri == DIAG_02  # wall keeps the lifted corner on its own side
    assert 3 not in set().union(*[s for s in tri if len(s) < 3] or [set()])


def test_lift_rejects_non_generic():
    with pytest.raises(pt.DegenerateConfiguration):
        lift_triangulation(square(), {0: 0, 1: 0, 2: 0, 3: 0})


def test_is_valid_triangulation():
    assert pt.is_valid_triangulation(square(), DIAG_13)
    assert pt.is_valid_triangulation(square(), DIAG_02)
    assert not pt.is_valid_triangulation(
        square(), {frozenset({0, 1, 2}), frozenset({0, 1, 3})}
    )
    assert not pt.is_valid_triangulation(square(), {frozenset({0, 1, 2})})


def test_is_regular_square():
    for tri in (DIAG_02, DIAG_13):
        h = pt.is_regular(square(), tri)
        assert h is not None
        assert lift_triangulation(square(), h) == tri


def test_flip_path_rejects_invalid_endpoints():
    invalid = {frozenset({0, 1, 2}), frozenset({0, 1, 3})}
    for t1, t2 in ((invalid, DIAG_02), (DIAG_02, invalid), (invalid, invalid)):
        with pytest.raises(ValueError, match="endpoint is not a valid triangulation"):
            pt.flip_path(square(), t1, t2)


def test_non_regular_triangulation_detected():
    # twisted triangulation of a triangle inside a triangle
    pts = [
        (4, 0), (0, 4), (0, 0),
        (2, 1), (1, 2), (1, 1),
    ]
    cfg = pt.PointConfiguration.from_points(pts)
    tri = frozenset(
        frozenset(s)
        for s in (
            (0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5),
            (3, 4, 5),
        )
    )
    assert pt.is_valid_triangulation(cfg, tri)
    assert pt.is_regular(cfg, tri) is None


def test_supported_flips_simplex_empty():
    assert pt.supported_flips(triangle(), {frozenset({0, 1, 2})}) == []


def test_square_flip_roundtrip():
    cfg = square()
    flips = pt.supported_flips(cfg, DIAG_02)
    assert len(flips) == 1
    f = flips[0]
    t2 = pt.apply_flip(cfg, DIAG_02, f)
    assert t2 == DIAG_13
    back = pt.supported_flips(cfg, t2)
    assert len(back) == 1
    assert pt.apply_flip(cfg, t2, back[0]) == DIAG_02


def test_apply_flip_requires_containment():
    cfg = square()
    f = pt.supported_flips(cfg, DIAG_02)[0]
    with pytest.raises(ValueError):
        pt.apply_flip(cfg, DIAG_13, f)


def test_enumerate_square_and_pyramid():
    assert len(pt.enumerate_regular_triangulations(square())) == 2
    assert len(pt.enumerate_regular_triangulations(pyramid())) == 2


def test_flip_path_square():
    cfg = square()
    assert pt.flip_path(cfg, DIAG_02, DIAG_02) == []
    path = pt.flip_path(cfg, DIAG_02, DIAG_13)
    assert len(path) == 1


def test_pyramid_flip_and_identity():
    cfg = pyramid()
    t1 = frozenset({frozenset({0, 1, 2, 4}), frozenset({0, 2, 3, 4})})
    (f,) = pt.supported_flips(cfg, t1)
    assert f.circuit.labels == frozenset({0, 1, 2, 3})
    assert f.link == frozenset({frozenset({4})})
    t2 = pt.apply_flip(cfg, t1, f)
    links = pt.verify_flip_identity(cfg, f)
    assert len(links) == 1
    assert pt.flip_identity_sum(f, links) == pt.triangulation_difference(cfg, t1, t2)


def test_pyramid_identity_formal_shape():
    # with vertices labeled 1..5 the identity reads
    # -[2345]+[1345]-[1245]+[1235] = ([1235]+[1345]) - ([2345]+[1245])
    pts = {i + 1: p for i, p in enumerate(pyramid().points)}
    lhs = AntisymSum()
    for coeff, labs in ((-1, (2, 3, 4, 5)), (1, (1, 3, 4, 5)),
                        (-1, (1, 2, 4, 5)), (1, (1, 2, 3, 5))):
        lhs.add([pts[l] for l in labs], coeff)
    rhs = AntisymSum()
    for coeff, labs in ((1, (1, 2, 3, 5)), (1, (1, 3, 4, 5)),
                        (-1, (2, 3, 4, 5)), (-1, (1, 2, 4, 5))):
        rhs.add([pts[l] for l in labs], coeff)
    assert lhs == rhs


def test_volume_additivity_across_triangulations():
    cfg = square()
    total = hull_volume_scaled(cfg)
    for tri in (DIAG_02, DIAG_13):
        assert sum(
            abs(pt._simplex_det(cfg, s)) for s in tri
        ) == total


def test_unimodular_affine_invariance():
    rng = random.Random(5)
    cfg = square()
    tri = DIAG_02
    for _ in range(5):
        g = ((1, rng.randint(-2, 2)), (0, 1))
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        pts = [
            tuple(x + s for x, s in zip(mat_vec_int(g, [int(c) for c in p]), shift))
            for p in cfg.points
        ]
        cfg2 = pt.PointConfiguration.from_points(pts)
        assert pt.is_valid_triangulation(cfg2, tri)
        assert pt.is_regular(cfg2, tri) is not None


def test_project_to_affine_span():
    pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    proj = pt.project_to_affine_span(pts)
    cfg = pt.PointConfiguration.from_points(proj)
    assert cfg.ambient_dim == 2
    z = pt.affine_dependence(cfg)
    assert {z.positive_part, z.negative_part} == {
        frozenset({0, 3}),
        frozenset({1, 2}),
    }


def oracle_project_to_affine_span(points):
    """`project_to_affine_span` as it was: one `solve` per point."""
    pts = [vec_q(p) for p in points]
    diffs = [tuple(x - y for x, y in zip(p, pts[0])) for p in pts]
    basis = [diffs[k] for k in independent_rows(int_rows(diffs), len(pts[0]))]
    if not basis:
        return [()] * len(pts)
    mat = [list(col) for col in zip(*basis)]
    return [solve(mat, rhs) for rhs in diffs]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_to_affine_span_matches_the_per_point_solve(seed):
    rng = random.Random(seed)
    cases = [[(1, 2, 3)], [(1, 1), (1, 1), (1, 1)]]
    for _ in range(20):
        dim, npts = rng.randint(1, 5), rng.randint(1, 8)
        cases.append([
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(npts)
        ])
        # points on a random line in dimension 4: not full-dimensional
        a, b = (tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(2))
        cases.append([
            tuple(x + Fraction(t, 2) * y for x, y in zip(a, b))
            for t in rng.sample(range(-5, 6), 4)
        ])
    tile = vr.builtin_tile("D5")
    cases.append([tile.section_points[i] for i in sorted(data.D5_FACET_F)])
    for pts in cases:
        assert pt.project_to_affine_span(pts) == oracle_project_to_affine_span(pts), pts


def test_flip_path_proves_the_target_regular_once(monkeypatch):
    calls = []
    primal = []
    verdict = pt.nonregularity_witness
    is_regular = pt.is_regular

    def counting(config, tri):
        calls.append(tri)
        return verdict(config, tri)

    def primal_counting(config, tri):
        primal.append(tri)
        return is_regular(config, tri)

    monkeypatch.setattr(pt, "nonregularity_witness", counting)
    monkeypatch.setattr(pt, "is_regular", primal_counting)
    config, t1, t2 = _d5_facet_f()
    path = pt.flip_path(config, t1, t2)
    assert [sorted(f.circuit.labels) for f in path] == [[0, 1, 5, 6, 9, 10, 12, 13]]
    assert calls == [t1, t2]
    assert primal == []


@pytest.mark.parametrize("seed", [3, 4])
def test_each_flip_search_asks_one_verdict_per_triangulation(monkeypatch, seed):
    """Criterion 6's flip searches reach some non-regular triangulations
    from more than one regular neighbour; each gets one verdict per search."""
    searches = []
    active = []
    search = pt._regular_flip_search
    verdict = pt.nonregularity_witness

    def recording_search(*args, **kwargs):
        inner = search(*args, **kwargs)
        asked = []
        searches.append(asked)
        while True:
            active.append(asked)  # only while the search itself runs
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                active.pop()
            yield item

    def recording(config, tri):
        if active:
            active[-1].append(pt._canon_tri(tri))
        return verdict(config, tri)

    monkeypatch.setattr(pt, "_regular_flip_search", recording_search)
    monkeypatch.setattr(pt, "nonregularity_witness", recording)
    assert repro.criterion_6(seed)["ok"]
    assert sum(map(len, searches)) >= 90
    for asked in searches:
        assert len(asked) == len(set(asked))


# ---------------------------------------------------------------------------
# the two flip searches against the separate searches they replaced


def oracle_enumerate(config, budget=10000):
    start = pt.placing_triangulation(config)
    found = {pt._canon_tri(start): start}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for f in pt.supported_flips(config, cur):
            nxt = (cur - f.removed) | f.inserted
            key = pt._canon_tri(nxt)
            if key in found:
                continue
            if pt.is_regular(config, nxt) is None:
                continue
            found[key] = nxt
            queue.append(nxt)
            if len(found) > budget:
                raise pt.BudgetExceeded("triangulation enumeration budget exceeded")
    return [found[k] for k in sorted(found)]


def oracle_flip_path(config, t1, t2, budget=10000):
    t1 = frozenset(frozenset(s) for s in t1)
    t2 = frozenset(frozenset(s) for s in t2)
    for t in (t1, t2):
        if pt.is_regular(config, t) is None:
            raise ValueError("endpoint triangulation is not regular")
    if t1 == t2:
        return []
    start, target = pt._canon_tri(t1), pt._canon_tri(t2)
    parents = {start: None}
    tris = {start: t1}
    queue = [start]
    while queue:
        key = queue.pop(0)
        cur = tris[key]
        for f in pt.supported_flips(config, cur):
            nxt = (cur - f.removed) | f.inserted
            nkey = pt._canon_tri(nxt)
            if nkey in parents:
                continue
            if pt.is_regular(config, nxt) is None:
                continue
            parents[nkey] = (key, f)
            tris[nkey] = nxt
            if nkey == target:
                path = []
                k = nkey
                while parents[k] is not None:
                    k, f = parents[k]
                    path.append(f)
                return list(reversed(path))
            queue.append(nkey)
            if len(parents) > budget:
                raise pt.BudgetExceeded("flip path budget exceeded")
    raise ValueError("no flip path found between the triangulations")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (pt.BudgetExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _search_cases(seed, count):
    """Criterion-6 style configurations: up to 8 small integer points in
    dimension 2 or 3, with two placing triangulations."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        dim = rng.choice((2, 3))
        npts = rng.randint(dim + 2, 8 if dim == 2 else 7)
        pts = [tuple(Fraction(rng.randint(0, 4)) for _ in range(dim)) for _ in range(npts)]
        if len(set(pts)) != npts:
            continue
        config = pt.PointConfiguration.from_points(pts)
        try:
            t_a = pt.placing_triangulation(config)
            order = rng.sample(range(npts), npts)
            t_b = pt.placing_triangulation(config, order=order)
        except pt.DegenerateConfiguration:
            continue
        cases.append((config, t_a, t_b))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_flip_searches_match_the_separate_searches(seed):
    for config, t_a, t_b in _search_cases(seed, 4):
        for budget in (1, 2, 3, 10000):
            assert _outcome(pt.enumerate_regular_triangulations, config, budget) == _outcome(
                oracle_enumerate, config, budget
            )
            assert _outcome(pt.flip_path, config, t_a, t_b, budget) == _outcome(
                oracle_flip_path, config, t_a, t_b, budget
            )


# ---------------------------------------------------------------------------
# supported_flips against the loop with one circuit per wall and per (s, w)


def primal_dependences(config, labels):
    """The affine dependences of the points of a label set, by a nullspace
    of their homogenized coordinates: (sorted labels, kernel basis)."""
    sel = sorted(labels)
    pts = config._int_points
    return sel, nullspace(list(zip(*((1,) + pts[i] for i in sel))))


def oracle_circuit_of(config, labels):
    """The unique circuit in a label set with a 1-dim dependence space, or
    None: the primal nullspace of the set, then the primal nullspace of the
    support of its dependence."""
    sel, kernel = primal_dependences(config, labels)
    if len(kernel) != 1:
        return None
    support = [sel[i] for i, c in enumerate(kernel[0]) if c != 0]
    if len(support) < 3:
        return None
    sel, (dep,) = primal_dependences(config, support)
    return pt._circuit(sel, dep)


def _oracle_candidates(config, tri):
    """The circuits of each interior wall's label set, then of each simplex
    plus one point, one per label set, in that order."""
    candidates = {}
    wall_owner = {}
    for s in tri:
        for v in s:
            wall_owner.setdefault(s - {v}, []).append(s)
    for owners in wall_owner.values():
        if len(owners) == 2:
            z = oracle_circuit_of(config, owners[0] | owners[1])
            if z is not None:
                candidates[z.labels] = z
    for s in tri:
        for w in config.labels:
            if w in s:
                continue
            z = oracle_circuit_of(config, set(s) | {w})
            if z is not None and w in z.labels:
                candidates.setdefault(z.labels, z)
    return candidates


def oracle_supported_flips(config, triangulation):
    """`supported_flips` as it was: one primal circuit per interior wall and
    per (simplex, point outside it), in the same candidate order, and a
    validity check of each flip."""
    tri = frozenset(frozenset(s) for s in triangulation)
    flips = []
    seen = set()
    for z in _oracle_candidates(config, tri).values():
        f = pt._flip_from_circuit(tri, z)
        if f is None or (f.removed, f.inserted) in seen:
            continue
        seen.add((f.removed, f.inserted))
        if pt.is_valid_triangulation(config, (tri - f.removed) | f.inserted):
            flips.append(f)
    flips.sort(key=lambda f: sorted(map(sorted, f.removed)))
    return flips


def _d5_facet_f():
    config = cy.facet_geometry(vr.builtin_tile("D5"), data.D5_FACET_F).config
    local = {label: i for i, label in enumerate(sorted(data.D5_FACET_F))}
    t1, t2 = (
        frozenset(frozenset(local[x] for x in s) for s in tri)
        for tri in (data.D5_F_TRIANGULATION_1, data.D5_F_TRIANGULATION_2)
    )
    return config, t1, t2


def _flip_cases():
    config, t1, t2 = _d5_facet_f()
    yield "D5 T1", config, t1
    yield "D5 T2", config, t2
    a3 = cy.facet_geometry(vr.builtin_tile("A3"), (0, 1, 2, 3, 4)).config
    yield "A3", a3, pt.placing_triangulation(a3)
    d4, _ = vr.section_configuration(vr.builtin_tile("D4"))
    yield "D4", d4, frozenset(frozenset(s) for s in data.D4_TRIANGULATION)
    for seed in (0, 1, 2):
        for k, (config, t_a, t_b) in enumerate(_search_cases(seed, 4)):
            yield f"seed {seed} case {k} a", config, t_a
            yield f"seed {seed} case {k} b", config, t_b
            for f in pt.supported_flips(config, t_a):
                yield f"seed {seed} case {k} a flipped", config, (t_a - f.removed) | f.inserted


@pytest.fixture
def considered(monkeypatch):
    """The circuits `supported_flips` tries a flip on, in order."""
    circuits = []
    flip_from_circuit = pt._flip_from_circuit

    def recording(tri, z):
        circuits.append(z)
        return flip_from_circuit(tri, z)

    monkeypatch.setattr(pt, "_flip_from_circuit", recording)
    return circuits


def test_supported_flips_match_the_per_candidate_loop(considered):
    for name, config, tri in _flip_cases():
        considered.clear()
        flips = pt.supported_flips(config, tri)
        labels = [z.labels for z in considered]
        assert flips == oracle_supported_flips(config, tri), name
        assert len(labels) == len(set(labels)), name
        assert set(labels) == set(_oracle_candidates(config, tri)), name


def test_supported_flips_circuits_match_the_primal_nullspace_version(considered):
    checked = 0
    for name, config, tri in _flip_cases():
        considered.clear()
        pt.supported_flips(config, tri)
        for z in considered:
            assert z == oracle_circuit_of(config, z.labels), (name, sorted(z.labels))
        checked += len(considered)
    assert checked > 100


def test_supported_flips_take_one_adjugate_per_simplex_and_no_nullspace(monkeypatch):
    config, t1, _ = _d5_facet_f()
    pt._require_full_dim(config)  # builds the Gale dual before the counted calls
    calls = {"nullspace": 0, "int_det_adjugate": 0}
    for fn in calls:
        def counting(*args, _fn=getattr(pt, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(pt, fn, counting)
    flips = pt.supported_flips(config, t1)
    assert calls == {"nullspace": 0, "int_det_adjugate": len(t1)} and len(t1) == 16
    assert [sorted(f.circuit.labels) for f in flips] == [
        [0, 1, 5, 6, 9, 10, 12, 13],
        [1, 2, 3, 5, 7, 9, 12, 15],
    ]


def test_affine_dependence_matches_the_primal_version():
    for config in _random_configs(3, 60):
        sel, kernel = primal_dependences(config, config.labels)
        if len(kernel) == 1 and all(kernel[0]):
            assert pt.affine_dependence(config) == pt._circuit(sel, kernel[0])
        else:
            with pytest.raises(ValueError):
                pt.affine_dependence(config)


# ---------------------------------------------------------------------------
# flips are valid by construction


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_supported_flips_are_valid_by_construction(seed):
    """Every flip `supported_flips` returns, from placing triangulations and
    from their flips, gives a valid triangulation with full-dimensional
    inserted simplices."""
    rng = random.Random(seed)
    flips = 0
    for config in _random_configs(seed + 100, 120):
        order = rng.sample(range(len(config)), len(config))
        starts = [pt.placing_triangulation(config, order=order)]
        for tri in list(starts):
            starts.extend((tri - f.removed) | f.inserted for f in pt.supported_flips(config, tri))
        for tri in starts:
            assert pt.is_valid_triangulation(config, tri)
            for f in pt.supported_flips(config, tri):
                assert all(pt._simplex_det(config, s) != 0 for s in f.inserted)
                assert pt.is_valid_triangulation(config, (tri - f.removed) | f.inserted)
                flips += 1
    assert flips > 400


# ---------------------------------------------------------------------------
# flip identities over labels against the point-keyed sums they replaced


def oracle_antisym_term(points):
    """The point-keyed `antisym_term`: canonical (sign, sorted tuple of
    `Fraction` points), or None for a repeated point."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(set(pts)) != len(pts):
        return None
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return _perm_sign(order), tuple(pts[i] for i in order)


def oracle_add(terms: dict, points, coeff) -> None:
    t = oracle_antisym_term(points)
    if t is None:
        return
    sign, key = t
    c = terms.get(key, 0) + sign * Fraction(coeff)
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def on_points(config, s: AntisymSum) -> dict:
    """A label-keyed sum with each label replaced by its point."""
    out = {}
    for key, c in s.terms.items():
        oracle_add(out, [config.points[l] for l in key], c)
    return out


def oracle_triangulation_difference(config, t1, t2) -> dict:
    out = {}
    for tri, sign in ((t1, 1), (t2, -1)):
        for s in tri:
            labels = sorted(s)
            oracle_add(out, [config.points[l] for l in labels],
                       sign * pt.simplex_orientation(config, labels))
    return out


def oracle_circuit_link_sum(config, z, lf, e) -> dict:
    out = {}
    for i in range(len(z)):
        oracle_add(out, [config.points[l] for l in z[:i] + z[i + 1 :] + lf], e * (-1) ** (i + 1))
    return out


def oracle_link_signs(config, flip) -> list:
    """(sorted link facet, e) per link facet, decided on point keys."""
    z = sorted(flip.circuit.labels)
    signs = []
    for facet in sorted(flip.link, key=sorted):
        lf = sorted(facet)
        lhs = oracle_circuit_link_sum(config, z, lf, 1)
        rhs = oracle_triangulation_difference(
            config,
            [s for s in flip.removed if s - flip.circuit.labels == facet],
            [s for s in flip.inserted if s - flip.circuit.labels == facet],
        )
        e = 1 if lhs == rhs else -1
        assert oracle_circuit_link_sum(config, z, lf, e) == rhs
        signs.append((tuple(lf), e))
    return signs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_keyed_flip_identities_match_the_point_keyed_oracle(seed):
    flips = 0
    for config, t_a, t_b in _search_cases(seed, 4):
        z_sum, oracle_sum = AntisymSum(), {}
        cur = t_a
        for f in pt.flip_path(config, t_a, t_b):
            links = pt.verify_flip_identity(config, f)
            signs = oracle_link_signs(config, f)
            assert [(l.link, l.e) for l in links] == signs
            for side, simplices in (("removed", f.removed), ("inserted", f.inserted)):
                listed = [s for l in links for s in getattr(l, side)]
                assert sorted(s for s, _ in listed) == sorted(tuple(sorted(s)) for s in simplices)
                assert all(o == pt.simplex_orientation(config, s) for s, o in listed)
            nxt = pt.apply_flip(config, cur, f)
            lhs = pt.flip_identity_sum(f, links)
            oracle_lhs = {}
            for lf, e in signs:
                for k, c in oracle_circuit_link_sum(config, sorted(f.circuit.labels), list(lf), e).items():
                    oracle_add(oracle_lhs, k, c)
            assert on_points(config, lhs) == oracle_lhs
            assert lhs == pt.triangulation_difference(config, cur, nxt)
            assert on_points(config, lhs) == oracle_triangulation_difference(config, cur, nxt)
            z_sum = z_sum + lhs
            for k, c in oracle_lhs.items():
                oracle_add(oracle_sum, k, c)
            cur = nxt
            flips += 1
        assert cur == t_b
        assert z_sum == pt.triangulation_difference(config, t_a, t_b)
        assert on_points(config, z_sum) == oracle_sum == oracle_triangulation_difference(
            config, t_a, t_b
        )
    assert flips > 0
