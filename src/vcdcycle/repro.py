"""Drivers for the acceptance checklist.

Each criterion function performs one verification item end to end and
returns a report dict with an `ok` flag and supporting details; the test
suite asserts on these and the CLI prints them as a table.  Randomized
items take an explicit seed and are reproducible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, Collection

from . import cycle as cy
from . import data
from . import polytope as pt
from . import voronoi as vr
from .cosharbly import epsilon, is_flipon, mu_sign_certificate, section_affine_dim, section_rays
from .exactq import int_det, int_matrix_inverse, int_rank, mat_mul_int
from .sharbly import AntisymSum, SharblyChain, ZERO, boundary, canonicalize


def _timed(fn: Callable[[], dict]) -> dict:
    t0 = time.perf_counter()
    try:
        report = fn()
    except Exception as exc:
        report = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    report["seconds"] = round(time.perf_counter() - t0, 2)
    return report


# ---------------------------------------------------------------------------
# SL_2(Z) conjugacy search (for the witness check of criterion 1)

_S = ((0, 1), (-1, 0))
_T = ((1, 1), (0, 1))
_TI = ((1, -1), (0, 1))


def sl2_conjugator(target, base, cap: int = 200000):
    """Some u in SL_2(Z) with u base u^-1 = target or u base^-1 u^-1 = target."""
    base_inv = int_matrix_inverse(base)
    ident = ((1, 0), (0, 1))
    seen = {ident}
    frontier = [ident]
    while frontier and len(seen) < cap:
        nxt = []
        for u in frontier:
            ui = int_matrix_inverse(u)
            for b in (base, base_inv):
                if mat_mul_int(mat_mul_int(u, b), ui) == target:
                    return u
            for gen in (_S, _T, _TI):
                v = mat_mul_int(gen, u)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> dict:
    """Rank 2: closed form, boundary certificate, order-4 witnesses."""
    z = cy.build_zG(2)
    sign, b = canonicalize([(1, 0), (0, 1), (1, -1)])
    ((cls, coeff),) = tuple(z.coin.items())
    closed_form = cls.rep == b and coeff == Fraction(sign, 6)
    cert = cy.verify_boundary_zero(z)
    witnesses_ok = cert.valid
    conjugators = []
    g_paper = ((0, 1), (-1, 0))
    for account in cert.accounts:
        if account.kind != "self-negating":
            witnesses_ok = False
        for _, _, _, _, w in account.members:
            trace = w[0][0] + w[1][1]
            if trace != 0 or int_det(w) != 1:
                witnesses_ok = False
                continue
            u = sl2_conjugator(w, g_paper)
            conjugators.append(u)
            if u is None:
                witnesses_ok = False
    return {
        "ok": closed_form and cert.valid and witnesses_ok,
        "closed_form": closed_form,
        "certificate_valid": cert.valid,
        "witness_conjugators_found": all(u is not None for u in conjugators),
        "stabilizer_order": z.stabilizer_orders["A2"],
    }


def criterion_2() -> dict:
    """Rank 3: stabilizer order 24, coefficient 1/24, self-negation ledger."""
    tile = vr.builtin_tile("A3")
    order = vr.stabilizer(tile).order
    z = cy.build_zG(3)
    sign, b = canonicalize(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
    )
    ((cls, coeff),) = tuple(z.coin.items())
    closed_form = cls.rep == b and coeff == Fraction(sign, 24)
    cert = cy.verify_boundary_zero(z)
    members = [m for a in cert.accounts if a.kind == "self-negating" for m in a.members]
    six_witnessed = len(members) == 6 and all(m[4] is not None for m in members)
    return {
        "ok": order == 24 and closed_form and cert.valid and six_witnessed,
        "stabilizer_order": order,
        "closed_form": closed_form,
        "certificate_valid": cert.valid,
        "boundary_terms_witnessed": len(members),
    }


def criterion_3() -> dict:
    """Rank 4 pipeline: two orbits, the 16-cone subdivision, empty residual."""
    entries = vr.builtin_dataset(4)
    two_orbits = len(entries) == 2 and len(entries[0].vectors) != len(entries[1].vectors)
    tile = vr.builtin_tile("D4")
    twelve = len(tile.ray_vectors) == 12
    config, orig = vr.section_configuration(tile)
    tri = frozenset(frozenset(s) for s in data.D4_TRIANGULATION)
    tri_valid = pt.is_valid_triangulation(config, tri)
    regular = pt.nonregularity_witness(config, tri) is None
    z = cy.build_zG(4)
    seventeen = len(z.provenance) == 17
    cert = cy.verify_boundary_zero(z)
    return {
        "ok": two_orbits and twelve and tri_valid and seventeen and cert.valid
        and not cert.residual,
        "tile_orbits": len(entries),
        "d4_rays": len(tile.ray_vectors),
        "triangulation_valid": tri_valid,
        "triangulation_regular": regular,
        "terms": len(z.provenance),
        "certificate_valid": cert.valid,
        "stabilizer_orders": dict(z.stabilizer_orders),
    }


def criterion_4() -> dict:
    """Bare tile-symbol boundary: nonzero of size d in rank 4, zero below."""
    r4 = cy.verify_an_remark(4)
    single = len(r4["classes"]) == 1
    coeff_ok = single and abs(r4["classes"][0]["coefficient"]) == 10
    not_self = single and not r4["classes"][0]["is_zero"]
    r2 = cy.verify_an_remark(2)
    r3 = cy.verify_an_remark(3)
    return {
        "ok": single and coeff_ok and not_self
        and r2["is_boundary_zero"] and r3["is_boundary_zero"],
        "rank4_classes": len(r4["classes"]),
        "rank4_coefficient": r4["classes"][0]["coefficient"] if single else None,
        "rank2_zero": r2["is_boundary_zero"],
        "rank3_zero": r3["is_boundary_zero"],
    }


def criterion_5(budget: int = 10000) -> dict:
    """Rank 5 data: census 400/320/80, the 16-vertex facet, its three
    regular triangulations and the published single flip."""
    form = vr.builtin_form("D5")
    reproduced = set(form.min_vectors) == {
        vr.primitive_normalize(v) for v in data.D5_VECTORS
    }
    tile = vr.tile_of(form)
    facets = vr.tile_facets(tile)
    sizes: dict[int, int] = {}
    for f, _ in facets:
        sizes[len(f)] = sizes.get(len(f), 0) + 1
    census_ok = len(facets) == 400 and sizes == {14: 320, 16: 80}
    f_labels = frozenset(data.D5_FACET_F)
    f_is_facet = any(f == f_labels for f, _ in facets)

    geom = cy.facet_geometry(tile, data.D5_FACET_F)
    to_local = {o: i for i, o in enumerate(geom.tile_labels)}
    t1 = frozenset(frozenset(to_local[l] for l in s) for s in data.D5_F_TRIANGULATION_1)
    t2 = frozenset(frozenset(to_local[l] for l in s) for s in data.D5_F_TRIANGULATION_2)
    valid = pt.is_valid_triangulation(geom.config, t1) and pt.is_valid_triangulation(
        geom.config, t2
    )
    regular = (
        pt.nonregularity_witness(geom.config, t1) is None
        and pt.nonregularity_witness(geom.config, t2) is None
    )
    all_tris = pt.enumerate_regular_triangulations(geom.config, budget=budget)
    three = len(all_tris) == 3 and any(t == t1 for t in all_tris) and any(
        t == t2 for t in all_tris
    )
    path = pt.flip_path(geom.config, t1, t2, budget=budget)
    one_flip = len(path) == 1
    circuit_ok = one_flip and tuple(sorted(path[0].circuit.labels)) == data.D5_F_CIRCUIT_LOCAL
    sides = {
        frozenset(frozenset(s) for s in data.D5_F_T_PLUS_LOCAL),
        frozenset(frozenset(s) for s in data.D5_F_T_MINUS_LOCAL),
    }
    sides_ok = one_flip and set(pt.gkz_two_triangulations(path[0].circuit)) == sides
    # verify_flip_identity raises ValueError where an identity fails
    identity = one_flip and len(pt.verify_flip_identity(geom.config, path[0])) == len(
        path[0].link
    )
    applied = one_flip and pt.apply_flip(geom.config, t1, path[0]) == t2
    return {
        "ok": reproduced and census_ok and f_is_facet and valid and regular
        and three and one_flip and circuit_ok and sides_ok and identity and applied,
        "minimal_vectors_reproduced": reproduced,
        "census": {"total": len(facets), "by_rays": sizes},
        "facet_listed": f_is_facet,
        "triangulations_valid": valid,
        "triangulations_regular": regular,
        "regular_triangulations": len(all_tris),
        "flip_path_length": len(path),
        "circuit": sorted(path[0].circuit.labels) if one_flip else None,
        "published_sides_match": sides_ok,
        "identity_valid": identity,
    }


def _random_circuit(rng: random.Random, p: int):
    """A configuration of p random distinct points forming a circuit, or
    None on a degenerate draw."""
    dim = p - 2
    pts = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(p)]
    try:
        config = pt.PointConfiguration.from_points(pts)
        pt.affine_dependence(config)
    except ValueError:
        return None
    return config


def criterion_6(seed: int = 0) -> dict:
    """Gluing properties: the two-sign lemma, the pyramid identity,
    square-zero boundaries, and flip-path telescoping."""
    rng = random.Random(seed)

    # (a) exactly two sign patterns kill the boundary of a circuit sum
    sign_lemma_ok = True
    checked = 0
    for p in (3, 4, 5, 6):
        tried = 0
        while tried < 3:
            config = _random_circuit(rng, p)
            if config is None:
                continue
            tried += 1
            checked += 1
            good = 0
            labels = list(config.labels)
            for mask in range(2 ** p):
                total = AntisymSum()
                for i in range(p):
                    eps_i = 1 if (mask >> i) & 1 else -1
                    total.add(labels[:i] + labels[i + 1 :], eps_i)
                if total.boundary().is_zero():
                    good += 1
            if good != 2:
                sign_lemma_ok = False

    # (b) the pyramid flip identity
    pyramid = pt.PointConfiguration.from_points(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]
    )
    t_pyr = frozenset({frozenset({0, 1, 2, 4}), frozenset({0, 2, 3, 4})})
    flips = pt.supported_flips(pyramid, t_pyr)
    pyramid_ok = len(flips) == 1
    if pyramid_ok:
        t_pyr2 = pt.apply_flip(pyramid, t_pyr, flips[0])
        lhs = pt.flip_identity_sum(flips[0], pt.verify_flip_identity(pyramid, flips[0]))
        pyramid_ok = lhs == pt.triangulation_difference(pyramid, t_pyr, t_pyr2)

    # (c) the composite through degree k vanishes: chains in degree k+1
    dd_ok = True
    for n in (2, 3, 4):
        for k in (1, 2):
            count = 0
            while count < 100:
                vs = [
                    tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(n + k + 1)
                ]
                if any(all(x == 0 for x in v) for v in vs):
                    continue
                res = canonicalize(vs)
                if res is ZERO:
                    continue
                sign, basic = res
                count += 1
                chain = SharblyChain({basic: Fraction(rng.randint(1, 5), rng.randint(1, 5))})
                if not boundary(boundary(chain)).is_zero():
                    dd_ok = False

    # (d) telescoping of flip-path identities on small configurations
    telescope_ok = True
    telescoped = 0
    attempts = 0
    while telescoped < 4 and attempts < 60:
        attempts += 1
        dim = rng.choice((2, 3))
        npts = rng.randint(dim + 2, 8 if dim == 3 else 6)
        pts = [tuple(rng.randint(0, 8) for _ in range(dim)) for _ in range(npts)]
        try:
            config = pt.PointConfiguration.from_points(pts)  # rejects a repeated point
            t_a = pt.placing_triangulation(config)
            order = rng.sample(range(npts), npts)
            t_b = pt.placing_triangulation(config, order=order)
            path = pt.flip_path(config, t_a, t_b, budget=4000)
        except (pt.DegenerateConfiguration, ValueError, pt.BudgetExceeded):
            continue
        telescoped += 1
        total = AntisymSum()
        cur = t_a
        for f in path:
            total = total + pt.flip_identity_sum(f, pt.verify_flip_identity(config, f))
            cur = pt.apply_flip(config, cur, f)
        if cur != t_b or total != pt.triangulation_difference(config, t_a, t_b):
            telescope_ok = False
    telescope_ok = telescope_ok and telescoped >= 4

    return {
        "ok": sign_lemma_ok and pyramid_ok and dd_ok and telescope_ok,
        "sign_lemma": sign_lemma_ok,
        "circuits_checked": checked,
        "pyramid_identity": pyramid_ok,
        "boundary_squared_zero": dd_ok,
        "telescoping": telescope_ok,
        "paths_telescoped": telescoped,
    }


def criterion_7(seed: int = 0) -> dict:
    """Degeneracy test against two independent oracles; positivity of the
    cycle pairing for ranks 2 through 4."""
    rng = random.Random(seed)
    agree = True
    tested = 0
    flipons_seen = 0
    for n in (2, 3):
        d = n * (n + 1) // 2
        count = 0
        while count < 1000:
            vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d)]
            if any(all(x == 0 for x in v) for v in vs):
                continue
            res = canonicalize(vs)
            if res is ZERO:
                continue
            _, basic = res
            count += 1
            tested += 1
            flip = is_flipon(basic)
            rays = section_rays(basic)
            oracle_rank = section_affine_dim(rays, n) <= d - 2
            oracle_eps = epsilon(rays, n) == 0
            if not (flip == oracle_rank == oracle_eps):
                agree = False
            if flip:
                flipons_seen += 1
    example = canonicalize(
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1)]
    )
    _, example_basic = example
    example_ok = is_flipon(example_basic) and int_rank(example_basic.vectors) == 3
    positivity = {}
    for n in (2, 3, 4):
        positivity[n] = mu_sign_certificate(cy.build_zG(n)).valid
    return {
        "ok": agree and example_ok and all(positivity.values()),
        "symbols_tested": tested,
        "oracles_agree": agree,
        "flipons_seen": flipons_seen,
        "constructed_flipon": example_ok,
        "positivity": positivity,
    }


def criterion_8() -> dict:
    """Dataset integrity: every built-in form reproduces its vectors."""
    results = {}
    for n in (2, 3, 4, 5):
        for entry in vr.builtin_dataset(n):
            form = vr.form_from_minvecs(entry.vectors, entry.name)
            mv, attain = vr.minimal_vectors(form.gram)
            stored = {vr.primitive_normalize(v) for v in entry.vectors}
            results[entry.name] = mv == form.min_value and set(attain) == stored
    return {"ok": all(results.values()), "forms": results}


CRITERIA = {
    1: ("rank-2 closed form and certificate", criterion_1),
    2: ("rank-3 closed form and certificate", criterion_2),
    3: ("rank-4 pipeline", criterion_3),
    4: ("bare-tile boundary contrast", criterion_4),
    5: ("rank-5 data verification", criterion_5),
    6: ("gluing properties", criterion_6),
    7: ("degeneracy and positivity", criterion_7),
    8: ("dataset integrity", criterion_8),
}


def run_criterion(num: int, seed: int = 0, budget: int = 10000) -> dict:
    """Criterion `num` with the arguments it takes: the search budget for
    criterion 5, the seed for the randomized criteria 6 and 7."""
    fn = CRITERIA[num][1]
    if num == 5:
        return fn(budget)
    if num in (6, 7):
        return fn(seed)
    return fn()


def run_all(seed: int = 0, budget: int = 10000, skip: Collection[int] = ()) -> list[dict]:
    reports = []
    for num, (name, _) in sorted(CRITERIA.items()):
        if num in skip:
            continue
        report = _timed(lambda: run_criterion(num, seed, budget))
        report["criterion"] = num
        report["name"] = name
        reports.append(report)
    return reports
