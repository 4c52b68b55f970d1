"""Assembly and certification of the fundamental cycle.

The candidate cycle for rank n (2, 3, 4) is the stabilizer-weighted sum of
oriented top simplices over one regular triangulation per tile orbit.  Its
boundary is certified to vanish in the coinvariants by an explicit ledger:
interior walls cancel in pairs, the remaining facet terms cancel in
group-orbit accounts with integer matrix witnesses, and self-negating
classes carry their own negation witness.  `facet_geometry` gives the
section configuration of a tile face, on which the rank-5 triangulations
and flips are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional

from .exactq import Q, int_matrix_inverse, mat_mul_int
from .polytope import PointConfiguration, placing_triangulation
from .sharbly import (
    BasicSharbly,
    GroupElement,
    OrbitClass,
    OrbitDictionary,
    SharblyChain,
    boundary_basic,
    project_coinvariants,
    sharbly_of_cone,
)
from .voronoi import (
    Tile, builtin_dataset, form_from_minvecs, section_configuration, stabilizer, tile_of,
)


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
    return [tile_of(form_from_minvecs(e.vectors, e.name)) for e in builtin_dataset(n)]


@cache
def default_triangulation(tile: Tile) -> tuple[frozenset, ...]:
    """One regular triangulation of the tile, as ray label sets; computed
    once per tile in a process."""
    d = tile.n * (tile.n + 1) // 2
    if len(tile.ray_vectors) == d:
        return (frozenset(tile.labels),)
    config, orig = section_configuration(tile)
    tri = placing_triangulation(config)
    return tuple(frozenset(orig[i] for i in s) for s in tri)


def build_zG(n: int) -> CycleChain:
    """The stabilizer-weighted cycle for rank n in {2, 3, 4}."""
    if n not in SUPPORTED_RANKS:
        raise ValueError(f"rank {n} is not supported for cycle assembly")
    odict = OrbitDictionary()
    raw = SharblyChain()
    provenance: list[TermProvenance] = []
    orders: dict[str, int] = {}
    for tile in _tiles_for(n):
        order = stabilizer(tile).order
        orders[tile.form.name] = order
        weight = Fraction(1, order)
        for simplex in sorted(default_triangulation(tile), key=sorted):
            rays = [tile.ray_vectors[i] for i in sorted(simplex)]
            sign, basic = sharbly_of_cone(rays)
            raw.add(basic, weight * sign)
            provenance.append(
                TermProvenance(tile.form.name, tuple(sorted(simplex)), weight, sign, basic)
            )
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
# facet sections


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


# ---------------------------------------------------------------------------
# the closed-form contrast for the single-orbit tile


def verify_an_remark(n: int) -> dict:
    """Boundary of the bare root-form tile symbol in the coinvariants.

    For n = 4 this is a single nonzero class with coefficient of absolute
    value d = 10; for n = 2, 3 it is empty.
    """
    entry = builtin_dataset(n)[0]
    tile = tile_of(form_from_minvecs(entry.vectors, entry.name))
    sign, basic = sharbly_of_cone(tile.ray_vectors)
    odict = OrbitDictionary()
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
