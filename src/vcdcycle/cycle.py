"""Assembly and certification of the fundamental cycle.

The candidate cycle for rank n (2, 3, 4) is the stabilizer-weighted sum of
oriented top simplices over one regular triangulation per tile orbit.  Its
boundary is certified to vanish in the coinvariants by an explicit ledger:
interior walls cancel in pairs, the remaining facet terms cancel in
group-orbit accounts with integer matrix witnesses, and self-negating
classes carry their own negation witness.  The flip machinery converts a
mismatch of facet triangulations into flipon chains and cones error terms
off a fixed vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import data
from .cosharbly import is_flipon
from .exactq import Q, int_matrix_inverse, int_rank, mat_vec_int, primitive_normalize
from .polytope import PointConfiguration, flip_path, verify_flip_identity
from .sharbly import (
    BasicSharbly,
    GroupElement,
    OrbitClass,
    OrbitDictionary,
    SharblyChain,
    ZERO,
    boundary_basic,
    canonicalize,
    sharbly_of_cone,
    vector_set_maps,
)
from .voronoi import Tile, section_configuration, tile_facets


@dataclass(frozen=True)
class TermProvenance:
    tile: str
    simplex: tuple[int, ...]
    weight: Q
    sign: int
    basic: BasicSharbly


@dataclass
class CycleChain:
    """Weighted chain whose coinvariant image is the candidate cycle."""

    n: int
    raw: SharblyChain
    provenance: list[TermProvenance]
    odict: OrbitDictionary
    coin: dict[OrbitClass, Q]
    stabilizer_orders: dict[str, int]


SUPPORTED_RANKS = (2, 3, 4)


def _tiles_for(n: int) -> list[Tile]:
    from .voronoi import builtin_dataset, form_from_minvecs, tile_of

    return [tile_of(form_from_minvecs(e.vectors, e.name)) for e in builtin_dataset(n)]


def default_triangulation(tile: Tile) -> list[frozenset]:
    """One regular triangulation of the tile, as ray label sets."""
    d = tile.n * (tile.n + 1) // 2
    if len(tile.ray_vectors) == d:
        return [frozenset(tile.labels)]
    if tile.form.name == "D4":
        return [frozenset(s) for s in data.D4_TRIANGULATION]
    from .polytope import placing_triangulation

    config, orig = section_configuration(tile)
    tri = placing_triangulation(config, return_witness=False)
    return [frozenset(orig[i] for i in s) for s in tri]


def build_zG(
    n: int,
    odict: Optional[OrbitDictionary] = None,
    triangulations: Optional[dict[str, Iterable]] = None,
) -> CycleChain:
    """The stabilizer-weighted cycle for rank n in {2, 3, 4}."""
    if n not in SUPPORTED_RANKS:
        raise ValueError(f"rank {n} is not supported for cycle assembly")
    from .voronoi import stabilizer

    odict = odict if odict is not None else OrbitDictionary()
    raw = SharblyChain()
    provenance: list[TermProvenance] = []
    orders: dict[str, int] = {}
    for tile in _tiles_for(n):
        order = len(stabilizer(tile))
        orders[tile.form.name] = order
        weight = Fraction(1, order)
        tri = (
            [frozenset(s) for s in triangulations[tile.form.name]]
            if triangulations and tile.form.name in triangulations
            else default_triangulation(tile)
        )
        for simplex in sorted(tri, key=sorted):
            rays = [tile.ray_vectors[i] for i in sorted(simplex)]
            sign, basic = sharbly_of_cone(rays, tile.orientation)
            raw.add(basic, weight * sign)
            provenance.append(
                TermProvenance(tile.form.name, tuple(sorted(simplex)), weight, sign, basic)
            )
    from .sharbly import project_coinvariants

    coin = project_coinvariants(raw, odict)
    return CycleChain(n, raw, provenance, odict, coin, orders)


# ---------------------------------------------------------------------------
# boundary certificate


@dataclass(frozen=True)
class BoundaryTerm:
    term_id: int
    tile: str
    simplex: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    coeff: Q  # coefficient on the canonical basic, weights and signs included


@dataclass(frozen=True)
class CancellationAccount:
    kind: str  # "self-negating" | "zero-sum"
    rep: tuple[tuple[int, ...], ...]
    witness: Optional[GroupElement]  # negation witness for the representative
    members: tuple  # (term_id, contribution, g to rep, sign, self witness | None)


@dataclass
class BoundaryCertificate:
    n: int
    terms: tuple[BoundaryTerm, ...]
    interior_pairs: tuple[tuple[int, int], ...]
    accounts: tuple[CancellationAccount, ...]
    residual: tuple  # (rep vectors, total) for classes that fail to cancel
    valid: bool


def _conjugate_negation(
    witness_rep: GroupElement, to_rep: GroupElement
) -> GroupElement:
    """Negation witness for a term, conjugated from the representative's."""
    from .exactq import mat_mul_int

    inv = int_matrix_inverse(to_rep)
    return mat_mul_int(mat_mul_int(inv, witness_rep), to_rep)


def verify_boundary_zero(z: CycleChain) -> BoundaryCertificate:
    """Certify that the cycle's boundary vanishes in the coinvariants.

    The ledger accounts for every boundary term exactly once: interior
    walls pair off inside their tile, the rest cancel per orbit class
    either by summing to zero or because the class negates itself.
    """
    terms: list[BoundaryTerm] = []
    for prov in z.provenance:
        faces = boundary_basic(prov.basic)
        for face_basic, c in faces.terms.items():
            terms.append(
                BoundaryTerm(
                    len(terms),
                    prov.tile,
                    prov.simplex,
                    face_basic.vectors,
                    c * prov.weight * prov.sign,
                )
            )

    # interior pairing: identical canonical faces inside one tile
    groups: dict[tuple, list[int]] = {}
    for t in terms:
        groups.setdefault((t.tile, t.vectors), []).append(t.term_id)
    interior_pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    for ids in groups.values():
        pos = [i for i in ids if terms[i].coeff > 0]
        neg = [i for i in ids if terms[i].coeff < 0]
        while pos and neg and len(pos) + len(neg) >= 2:
            a, b = pos[-1], neg[-1]
            if terms[a].coeff != -terms[b].coeff:
                break
            interior_pairs.append((min(a, b), max(a, b)))
            pos.pop()
            neg.pop()
        unpaired.extend(pos)
        unpaired.extend(neg)

    # orbit accounts for the rest
    n = z.n
    by_class: dict[int, list] = {}
    class_of: dict[int, OrbitClass] = {}
    for tid in unpaired:
        basic = BasicSharbly(n, terms[tid].vectors)
        cls, sign, g = z.odict.canonical_with_witness(basic)
        class_of[cls.class_id] = cls
        by_class.setdefault(cls.class_id, []).append((tid, sign, g))
    accounts: list[CancellationAccount] = []
    residual = []
    for cid, members in sorted(by_class.items()):
        cls = class_of[cid]
        total = sum(terms[tid].coeff * sign for tid, sign, _ in members)
        if cls.is_zero:
            mem = []
            for tid, sign, g in members:
                w = _conjugate_negation(cls.witness, g)
                mem.append((tid, terms[tid].coeff * sign, g, sign, w))
            accounts.append(
                CancellationAccount("self-negating", cls.rep.vectors, cls.witness, tuple(mem))
            )
        elif total == 0:
            mem = tuple(
                (tid, terms[tid].coeff * sign, g, sign, None)
                for tid, sign, g in members
            )
            accounts.append(
                CancellationAccount("zero-sum", cls.rep.vectors, None, mem)
            )
        else:
            residual.append((cls.rep.vectors, total))
    return BoundaryCertificate(
        n,
        tuple(terms),
        tuple(interior_pairs),
        tuple(accounts),
        tuple(residual),
        not residual,
    )


# ---------------------------------------------------------------------------
# facet machinery


def _label_map(tile: Tile) -> dict[tuple[int, ...], int]:
    return {primitive_normalize(v): i for i, v in enumerate(tile.ray_vectors)}


def phi_by_facet(tiles: Sequence[tuple[Tile, Iterable]]):
    """Boundary terms of tile triangulations after interior cancellation,
    grouped by the facet containing each term.

    Returns {(tile name, facet label frozenset): [(coefficient, basic)]}.
    """
    out: dict[tuple[str, frozenset], list] = {}
    for tile, triangulation in tiles:
        lmap = _label_map(tile)
        facets = [f for f, _ in tile_facets(tile)]
        collected: dict[BasicSharbly, Q] = {}
        for simplex in triangulation:
            rays = [tile.ray_vectors[i] for i in sorted(simplex)]
            sign, basic = sharbly_of_cone(rays, tile.orientation)
            for face_basic, c in boundary_basic(basic).terms.items():
                cur = collected.get(face_basic, Q(0)) + c * sign
                if cur == 0:
                    collected.pop(face_basic, None)
                else:
                    collected[face_basic] = cur
        for face_basic, coeff in collected.items():
            labels = frozenset(lmap[v] for v in face_basic.vectors)
            homes = [f for f in facets if labels <= f]
            if not homes:
                raise AssertionError("uncancelled interior boundary term")
            if len(homes) != 1:
                raise AssertionError("boundary term lies in two facets")
            key = (tile.form.name, homes[0])
            out.setdefault(key, []).append((coeff, face_basic))
    return out


@dataclass(frozen=True)
class FacetMatch:
    tile: str
    facet: frozenset
    partner_tile: str
    partner_facet: frozenset
    witness: GroupElement  # maps the partner facet's rays onto the facet's


def match_facets(tiles: Sequence[Tile]) -> list[FacetMatch]:
    """For every facet of every tile, a second tile meeting it.

    Finds g in SL_n(Z) carrying a facet of the partner tile onto the facet
    with g . partner-tile different from the original tile; reports an
    error when some facet stays unmatched.
    """
    n = tiles[0].n
    tile_ray_sets = {
        t.form.name: frozenset(primitive_normalize(v) for v in t.ray_vectors)
        for t in tiles
    }
    all_facets = {t.form.name: [f for f, _ in tile_facets(t)] for t in tiles}
    matches = []
    for tile in tiles:
        own_rays = tile_ray_sets[tile.form.name]
        for facet in all_facets[tile.form.name]:
            fvecs = [primitive_normalize(tile.ray_vectors[i]) for i in sorted(facet)]
            found = None
            for other in tiles:
                for ofacet in all_facets[other.form.name]:
                    ovecs = [
                        primitive_normalize(other.ray_vectors[i])
                        for i in sorted(ofacet)
                    ]
                    if len(ovecs) != len(fvecs):
                        continue
                    for g, _ in vector_set_maps(ovecs, fvecs, n):
                        image = frozenset(
                            primitive_normalize(mat_vec_int(g, v))
                            for v in other.ray_vectors
                        )
                        if not (
                            other.form.name == tile.form.name and image == own_rays
                        ):
                            found = FacetMatch(
                                tile.form.name, facet, other.form.name, ofacet, g
                            )
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                raise ValueError(
                    f"facet {sorted(facet)} of {tile.form.name} has no partner tile"
                )
            matches.append(found)
    return matches


# ---------------------------------------------------------------------------
# flipons


@dataclass(frozen=True)
class Flipon:
    """A degenerate top symbol: circuit vectors first, then the cone labels."""

    vectors: tuple[tuple[int, ...], ...]
    circuit_size: int
    provenance: tuple


@dataclass(frozen=True)
class FacetGeometry:
    tile: Tile
    facet_labels: tuple[int, ...]
    config: PointConfiguration
    tile_labels: tuple[int, ...]  # config label -> tile label


def facet_geometry(tile: Tile, facet_labels: Iterable[int]) -> FacetGeometry:
    labels = tuple(sorted(facet_labels))
    config, orig = section_configuration(tile, labels)
    return FacetGeometry(tile, labels, config, tuple(orig))


def flipons_for_facet(geom: FacetGeometry, tri_a, tri_b) -> list[Flipon]:
    """Flipons converting one regular facet triangulation into another.

    One flipon per (flip, link facet); each is verified degenerate, its
    vectors span, and the alternating-sum identity of its flip holds.
    """
    tri_a = frozenset(frozenset(s) for s in tri_a)
    tri_b = frozenset(frozenset(s) for s in tri_b)
    path = flip_path(geom.config, tri_a, tri_b)
    tile = geom.tile
    n = tile.n
    d = n * (n + 1) // 2
    out: list[Flipon] = []
    for step, flip in enumerate(path):
        cert = verify_flip_identity(geom.config, flip)
        if not cert.valid:
            raise AssertionError("flip identity failed")
        circuit_local = sorted(flip.circuit.labels)
        for link_facet, e in cert.signs:
            local = list(circuit_local) + list(link_facet)
            vectors = tuple(
                primitive_normalize(tile.ray_vectors[geom.tile_labels[i]])
                for i in local
            )
            if len(vectors) != d:
                raise AssertionError("flipon does not have d vectors")
            if int_rank(vectors) != n:
                raise AssertionError("flipon vectors fail to span")
            basic = BasicSharbly(n, vectors)
            if not is_flipon(basic):
                raise AssertionError("flip produced a non-degenerate symbol")
            out.append(
                Flipon(
                    vectors,
                    len(circuit_local),
                    (geom.tile.form.name, tuple(geom.facet_labels), step, e),
                )
            )
    return out


def secondary_flipons(
    terms: Sequence[Flipon], x: Sequence[int]
) -> tuple[SharblyChain, SharblyChain]:
    """Cone the error sum of flipon terms off the fixed vector x.

    Returns (coned chain, error chain): the coned chain sums, over terms
    and positions j past each circuit, (-1)^j [x, v_1, ..., v_j hat, ...,
    v_d]; every summand is checked to be a flipon.  The error chain is the
    same sum without x.
    """
    x = primitive_normalize(x)
    omega = SharblyChain()
    psi = SharblyChain()
    for t in terms:
        d = len(t.vectors)
        p = t.circuit_size
        for j in range(p + 1, d + 1):  # 1-based positions past the circuit
            sub = t.vectors[: j - 1] + t.vectors[j:]
            coeff = (-1) ** j
            psi.add_symbol(sub, coeff)
            coned = (x,) + sub
            res = canonicalize(coned)
            if res is not ZERO:
                _, cbasic = res
                if not is_flipon(cbasic):
                    raise ValueError("coned summand is not a flipon")
            omega.add_symbol(coned, coeff)
    return omega, psi


def cone_chain(x: Sequence[int], chain: SharblyChain) -> SharblyChain:
    """[x, -] applied term by term."""
    x = primitive_normalize(x)
    out = SharblyChain()
    for basic, coeff in chain.terms.items():
        out.add_symbol((x,) + basic.vectors, coeff)
    return out


def omega_error_parts(terms: Sequence[Flipon]) -> tuple[SharblyChain, SharblyChain, SharblyChain]:
    """The three double-deletion sums whose coned images control the cone's
    boundary: circuit-side deletions, both-past-circuit deletions with
    i < j, and with i > j."""
    part1 = SharblyChain()
    part2 = SharblyChain()
    part3 = SharblyChain()
    for t in terms:
        d = len(t.vectors)
        p = t.circuit_size
        for j in range(p + 1, d + 1):
            for i in range(1, p + 1):
                sub = tuple(
                    v
                    for k, v in enumerate(t.vectors, start=1)
                    if k != i and k != j
                )
                part1.add_symbol(sub, (-1) ** (i + j))
            for i in range(p + 1, j):
                sub = tuple(
                    v
                    for k, v in enumerate(t.vectors, start=1)
                    if k != i and k != j
                )
                part2.add_symbol(sub, (-1) ** (i + j))
            for i in range(j + 1, d + 1):
                sub = tuple(
                    v
                    for k, v in enumerate(t.vectors, start=1)
                    if k != i and k != j
                )
                part3.add_symbol(sub, (-1) ** (i + j - 1))
    return part1, part2, part3


# ---------------------------------------------------------------------------
# the closed-form contrast for the single-orbit tile


def verify_an_remark(n: int) -> dict:
    """Boundary of the bare root-form tile symbol in the coinvariants.

    For n = 4 this is a single nonzero class with coefficient of absolute
    value d = 10; for n = 2, 3 it is empty.
    """
    from .voronoi import builtin_dataset, form_from_minvecs, tile_of

    entry = builtin_dataset(n)[0]
    tile = tile_of(form_from_minvecs(entry.vectors, entry.name))
    sign, basic = sharbly_of_cone(tile.ray_vectors, tile.orientation)
    odict = OrbitDictionary()
    from .sharbly import project_coinvariants

    boundary = boundary_basic(basic).scale(sign)
    proj = project_coinvariants(boundary, odict)
    report = {
        "n": n,
        "boundary_terms": len(boundary.terms),
        "classes": [
            {
                "rep": cls.rep.vectors,
                "coefficient": coeff,
                "is_zero": cls.is_zero,
            }
            for cls, coeff in sorted(
                proj.items(), key=lambda kv: kv[0].class_id
            )
        ],
        "is_boundary_zero": not proj,
    }
    return report
