"""JSON encodings for chains, cycles, triangulations and certificates.

Rationals serialize as "p/q" (or "p" when the denominator is one); vectors
and matrices as nested integer lists; triangulations as sorted lists of
sorted label lists.  parse(serialize(x)) is the identity on every payload.

Every certificate is written here, one builder per kind (`census_certificate`,
`triangulation_certificate`, `flip_identity_certificate`,
`boundary_certificate`, `positivity_certificate`), each returning the whole
certificate: schema version, kind, the SHA-256 `input_hash` of the object
the claim is about, and the payload.  `certs.check_certificate` reads them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .cycle import BoundaryCertificate, CycleChain, TermProvenance
from .exactq import q_parse, q_str
from .polytope import verify_flip_identity
from .sharbly import BasicSharbly, OrbitDictionary, SharblyChain, canonicalize, project_coinvariants
from .voronoi import tile_facets

SCHEMA_VERSION = 1


def chain_to_json(chain: SharblyChain) -> list:
    out = []
    for basic, coeff in sorted(chain.terms.items(), key=lambda kv: kv[0].vectors):
        out.append({"vectors": [list(v) for v in basic.vectors], "coeff": q_str(coeff)})
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_vectors(vectors) -> list[tuple[int, ...]]:
    """A nonempty list of integer lists as tuples; ValueError otherwise."""
    if not isinstance(vectors, list) or not vectors or not all(
        isinstance(v, list) and all(type(x) is int for x in v) for v in vectors
    ):
        raise ValueError(f"vectors must be a nonempty list of integer lists, got {vectors!r}")
    return [tuple(v) for v in vectors]


def _labels(items, what: str) -> tuple[int, ...]:
    """A list of nonnegative integer labels as a tuple; ValueError otherwise."""
    if not isinstance(items, list) or not all(type(x) is int and x >= 0 for x in items):
        raise ValueError(f"{what} must be a list of nonnegative integer labels, got {items!r}")
    return tuple(items)


def chain_from_json(items: list) -> SharblyChain:
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("a chain must be a list of {vectors, coeff} objects")
    chain = SharblyChain()
    for item in items:
        chain.add_symbol(_int_vectors(item["vectors"]), q_parse(item["coeff"]))
    return chain


def matrix_to_json(rows) -> list:
    return [[int(x) for x in r] for r in rows]


def triangulation_to_json(tri) -> list:
    return sorted(sorted(s) for s in tri)


def triangulation_from_json(items) -> frozenset:
    if not isinstance(items, list):
        raise ValueError(f"a triangulation must be a list of label lists, got {items!r}")
    tri = frozenset(frozenset(_labels(s, "a simplex")) for s in items)
    if len(tri) != len(items):
        raise ValueError("a triangulation lists a simplex twice")
    return tri


def circuit_to_json(circuit) -> dict:
    return {
        "labels": sorted(circuit.labels),
        "positive": sorted(circuit.positive_part),
        "negative": sorted(circuit.negative_part),
    }


def cycle_to_json(z: CycleChain) -> dict:
    return {
        "n": z.n,
        "chain": chain_to_json(z.raw),
        "stabilizer_orders": dict(sorted(z.stabilizer_orders.items())),
        "provenance": [
            {
                "tile": p.tile,
                "simplex": list(p.simplex),
                "weight": q_str(p.weight),
                "sign": p.sign,
                "vectors": [list(v) for v in p.basic.vectors],
            }
            for p in z.provenance
        ],
        "classes": [
            {
                "class_id": cls.class_id,
                "rep": [list(v) for v in cls.rep.vectors],
                "coeff": q_str(coeff),
                "is_zero": cls.is_zero,
                "witness_g": matrix_to_json(cls.witness) if cls.witness else None,
            }
            for cls, coeff in sorted(z.coin.items(), key=lambda kv: kv[0].class_id)
        ],
    }


def _provenance_from_json(p, n: int) -> TermProvenance:
    if not isinstance(p, dict):
        raise ValueError(f"a provenance entry must be an object, got {p!r}")
    if not isinstance(p["tile"], str):
        raise ValueError(f"provenance tile must be a form name, got {p['tile']!r}")
    if not (isinstance(p["weight"], str) or _is_int(p["weight"])):
        raise ValueError(f"provenance weight must be a rational string, got {p['weight']!r}")
    if not _is_int(p["sign"]) or p["sign"] not in (1, -1):
        raise ValueError(f"provenance sign must be 1 or -1, got {p['sign']!r}")
    basic = BasicSharbly(n, tuple(_int_vectors(p["vectors"])))
    if any(len(v) != n for v in basic.vectors):
        raise ValueError(f"provenance vectors must have length {n}, got {p['vectors']!r}")
    if canonicalize(basic.vectors, n) != (1, basic):
        raise ValueError(f"provenance vectors must be canonical, got {p['vectors']!r}")
    return TermProvenance(
        p["tile"],
        _labels(p["simplex"], "provenance simplex"),
        q_parse(p["weight"]),
        p["sign"],
        basic,
    )


def cycle_from_json(doc: dict) -> CycleChain:
    if not isinstance(doc, dict) or not _is_int(doc["n"]):
        raise ValueError("a cycle must be an object with an integer n")
    n = doc["n"]
    raw = chain_from_json(doc["chain"])
    if any(len(v) != n for item in doc["chain"] for v in item["vectors"]):
        raise ValueError(f"chain vectors must have length {n}")
    if not isinstance(doc["provenance"], list):
        raise ValueError("cycle provenance must be a list")
    provenance = [_provenance_from_json(p, n) for p in doc["provenance"]]
    total = SharblyChain()
    for p in provenance:
        total.add(p.basic, p.sign * p.weight)
    if total != raw:
        raise ValueError("the provenance terms sign * weight * symbol do not sum to the chain")
    orders = doc.get("stabilizer_orders", {})
    if not isinstance(orders, dict) or not all(_is_int(v) for v in orders.values()):
        raise ValueError("stabilizer_orders must map form names to integers")
    odict = OrbitDictionary()
    coin = project_coinvariants(raw, odict)
    return CycleChain(n, raw, provenance, odict, coin, dict(orders))


def input_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def make_certificate(kind: str, payload: dict, input_obj) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "input_hash": input_hash(input_obj),
        "payload": payload,
    }


def census_certificate(tile) -> dict:
    """The tile's facets, each as its ray labels and inward functional, with
    their counts by number of rays; hashes the form name and the rays."""
    facets = tile_facets(tile)
    sizes: dict[str, int] = {}
    for f, _ in facets:
        k = str(len(f))
        sizes[k] = sizes.get(k, 0) + 1
    rays = [list(v) for v in tile.ray_vectors]
    payload = {
        "rays": rays,
        "facets": [{"labels": sorted(f), "functional": list(fn)} for f, fn in facets],
        "counts": {"total": len(facets), "by_rays": sizes},
    }
    return make_certificate("census", payload, {"form": tile.form.name, "rays": rays})


def heights_to_json(heights) -> dict:
    return {str(i): q_str(h) for i, h in heights.items()}


def triangulation_certificate(config, tri, heights, labels) -> dict:
    """The triangulation with its lifting heights; hashes the tile labels
    of the configuration's points."""
    payload = {
        "points": points_to_json(config.points),
        "simplices": triangulation_to_json(tri),
        "heights": heights_to_json(heights),
    }
    return make_certificate("triangulation", payload, list(labels))


def flip_identity_certificate(config, path) -> dict:
    """The identity of each flip of the path, link by link, with every
    simplex's orientation; hashes the points."""

    def simplices(oriented):
        return [{"labels": list(s), "orientation": o} for s, o in oriented]

    flips = [
        {
            "circuit": sorted(flip.circuit.labels),
            "links": [
                {"link": list(l.link), "e": l.e,
                 "removed": simplices(l.removed), "inserted": simplices(l.inserted)}
                for l in verify_flip_identity(config, flip)
            ],
        }
        for flip in path
    ]
    points = points_to_json(config.points)
    return make_certificate("flip-identity", {"points": points, "flips": flips}, points)


def boundary_certificate(cert: BoundaryCertificate, z: CycleChain) -> dict:
    """The boundary ledger of z; hashes the cycle."""
    payload = {
        "n": cert.n,
        "chain": chain_to_json(z.raw),
        "terms": [
            {
                "id": t.term_id,
                "tile": t.tile,
                "simplex": list(t.simplex),
                "vectors": [list(v) for v in t.vectors],
                "coeff": q_str(t.coeff),
            }
            for t in cert.terms
        ],
        "interior_pairs": [list(p) for p in cert.interior_pairs],
        "accounts": [
            {
                "kind": a.kind,
                "rep": [list(v) for v in a.rep],
                "witness": matrix_to_json(a.witness) if a.witness else None,
                "members": [
                    {
                        "id": tid,
                        "contribution": q_str(contrib),
                        "to_rep": matrix_to_json(g),
                        "sign": sign,
                        "self_witness": matrix_to_json(w) if w else None,
                    }
                    for tid, contrib, g, sign, w in a.members
                ],
            }
            for a in cert.accounts
        ],
        "residual": [
            {"rep": [list(v) for v in rep], "total": q_str(total)}
            for rep, total in cert.residual
        ],
        "valid": cert.valid,
    }
    return make_certificate("boundary", payload, cycle_to_json(z))


def positivity_certificate(cert, z: CycleChain) -> dict:
    """The sign verdict of each class of z; hashes the cycle."""
    payload = {
        "verdicts": [
            {
                "rep": [list(v) for v in v.rep],
                "coeff": q_str(v.coefficient),
                "verdict": v.verdict,
                "sign": v.sign,
            }
            for v in cert.verdicts
        ],
        "valid": cert.valid,
    }
    return make_certificate("positivity", payload, cycle_to_json(z))


def points_to_json(points) -> list:
    return [[q_str(Fraction(x)) for x in p] for p in points]


def points_from_json(items) -> list:
    return [tuple(q_parse(x) for x in p) for p in items]


def form_to_json(form) -> dict:
    return {
        "name": form.name,
        "n": form.n,
        "gram": [[q_str(x) for x in row] for row in form.gram],
        "min_vectors": [list(v) for v in form.min_vectors],
    }
