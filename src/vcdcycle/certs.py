"""Self-contained certificate files and their trusted checker.

A certificate records the result of a budgeted search together with every
witness needed to re-validate the claim by plain arithmetic.  `check`
never repeats a search: it re-verifies witness matrices, cancellation
sums, lifting inequalities, orientation signs and tightness conditions
against the data embedded in the file.
"""

from __future__ import annotations

import hashlib
import json
from operator import mul
from typing import Callable

from .exactq import Q, int_det, int_rank, pairing_row, q_parse
from .sharbly import BasicSharbly, SharblyChain, ZERO, act, boundary

SCHEMA_VERSION = 1

KINDS = ("boundary", "positivity", "triangulation", "flip-identity", "census")


def input_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def make_certificate(kind: str, payload: dict, input_obj) -> dict:
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "input_hash": input_hash(input_obj),
        "payload": payload,
    }


def check_certificate(cert: dict) -> tuple[bool, str]:
    """Re-validate every arithmetic claim of a certificate."""
    try:
        if cert.get("schema_version") != SCHEMA_VERSION:
            return False, "unsupported schema version"
        kind = cert.get("kind")
        payload = cert.get("payload", {})
        checker = _CHECKERS.get(kind)
        if checker is None:
            return False, f"unknown certificate kind {kind!r}"
        return checker(payload)
    except Exception as exc:  # malformed data is an invalid certificate
        return False, f"malformed certificate: {exc}"


# ---------------------------------------------------------------------------


def _vectors(item) -> tuple:
    return tuple(tuple(int(x) for x in v) for v in item)


def _matrix(item) -> tuple:
    return tuple(tuple(int(x) for x in r) for r in item)


def _check_boundary(payload: dict) -> tuple[bool, str]:
    n = int(payload["n"])
    chain = SharblyChain()
    for item in payload["chain"]:
        chain.add_symbol(_vectors(item["vectors"]), q_parse(item["coeff"]))
    terms = payload["terms"]
    accumulated = SharblyChain()
    for t in terms:
        accumulated.add(BasicSharbly(n, _vectors(t["vectors"])), q_parse(t["coeff"]))
    if boundary(chain) != accumulated:
        return False, "terms do not sum to the boundary of the chain"

    by_id = {int(t["id"]): t for t in terms}
    if sorted(by_id) != list(range(len(terms))):
        return False, "term ids are not contiguous"
    covered: set[int] = set()

    for a, b in payload["interior_pairs"]:
        ta, tb = by_id[int(a)], by_id[int(b)]
        if ta["vectors"] != tb["vectors"]:
            return False, "interior pair on different faces"
        if q_parse(ta["coeff"]) + q_parse(tb["coeff"]) != 0:
            return False, "interior pair does not cancel"
        if int(a) in covered or int(b) in covered:
            return False, "term accounted twice"
        covered.update((int(a), int(b)))

    for account in payload["accounts"]:
        rep = BasicSharbly(n, _vectors(account["rep"]))
        kind = account["kind"]
        if kind == "self-negating":
            w = _matrix(account["witness"])
            if not _negates(w, rep):
                return False, "class witness does not negate the representative"
        total = Q(0)
        for member in account["members"]:
            tid = int(member["id"])
            if tid in covered:
                return False, "term accounted twice"
            covered.add(tid)
            t = by_id[tid]
            basic = BasicSharbly(n, _vectors(t["vectors"]))
            g = _matrix(member["to_rep"])
            sign = int(member["sign"])
            if int_det(g) != 1:
                return False, "witness is not in SL_n(Z)"
            res = act(g, basic)
            if res is ZERO or res != (sign, rep):
                return False, "witness does not map the term to the representative"
            contrib = q_parse(member["contribution"])
            if contrib != q_parse(t["coeff"]) * sign:
                return False, "member contribution mismatch"
            total += contrib
            if kind == "self-negating":
                sw = _matrix(member["self_witness"])
                if not _negates(sw, basic):
                    return False, "self witness does not negate the term"
        if kind == "zero-sum" and total != 0:
            return False, "account does not sum to zero"
    if payload["residual"]:
        return False, "certificate has a nonzero residual"
    if covered != set(range(len(terms))):
        return False, "ledger does not cover every boundary term"
    if not payload.get("valid", False):
        return False, "certificate marked invalid"
    return True, "boundary certificate valid"


def _negates(g, basic: BasicSharbly) -> bool:
    if int_det(g) != 1:
        return False
    res = act(g, basic)
    return res is not ZERO and res == (-1, basic)


def _check_positivity(payload: dict) -> tuple[bool, str]:
    from .cosharbly import epsilon, is_flipon, section_rays

    positives = 0
    for item in payload["verdicts"]:
        n = len(item["rep"][0])
        rep = BasicSharbly(n, _vectors(item["rep"]))
        coeff = q_parse(item["coeff"])
        if is_flipon(rep):
            if item["verdict"] != "flipon":
                return False, "degenerate term not marked as flipon"
            continue
        sign = epsilon(section_rays(rep), n)
        if sign != int(item["sign"]):
            return False, "orientation sign mismatch"
        if coeff * sign > 0:
            if item["verdict"] != "proper-positive":
                return False, "verdict mismatch"
            positives += 1
        else:
            return False, "term with nonpositive contribution"
    if positives == 0:
        return False, "no positive term"
    if not payload.get("valid", False):
        return False, "certificate marked invalid"
    return True, "positivity certificate valid"


def _check_triangulation(payload: dict) -> tuple[bool, str]:
    from .polytope import (
        PointConfiguration,
        _barycentric,
        _simplex_det,
        hull_volume_scaled,
    )
    from .serialize import points_from_json, triangulation_from_json

    config = PointConfiguration.from_points(points_from_json(payload["points"]))
    tri = triangulation_from_json(payload["simplices"])
    heights = {int(k): q_parse(v) for k, v in payload["heights"].items()}
    total = 0
    for s in tri:
        d = _simplex_det(config, s)
        if d == 0:
            return False, "degenerate simplex"
        total += abs(d)
        for w in config.labels:
            if w in s:
                continue
            lam = _barycentric(config, sorted(s), w)
            lifted = sum(c * heights[l] for l, c in lam.items())
            if not heights[w] > lifted:
                return False, "height witness violates a lifting inequality"
    if total != hull_volume_scaled(config):
        return False, "simplex volumes do not sum to the hull volume"
    return True, "triangulation certificate valid"


def _check_flip_identity(payload: dict) -> tuple[bool, str]:
    from .polytope import (
        PointConfiguration,
        circuit_link_sum,
        oriented_difference,
        simplex_orientation,
    )
    from .serialize import points_from_json

    config = PointConfiguration.from_points(points_from_json(payload["points"]))
    for flip_entry in payload["flips"]:
        circuit = [int(x) for x in flip_entry["circuit"]]
        for entry in flip_entry["links"]:
            link = [int(x) for x in entry["link"]]
            e = int(entry["e"])
            if e not in (1, -1):
                return False, "identity sign must be +-1"
            sides = []
            for side in ("removed", "inserted"):
                listed = [([int(l) for l in s["labels"]], int(s["orientation"]))
                          for s in entry[side]]
                for labels, o in listed:
                    # the orientation is that of the labels in ascending order
                    if labels != sorted(labels):
                        return False, "simplex labels not ascending"
                    if o == 0 or simplex_orientation(config, labels) != o:
                        return False, "simplex orientation mismatch"
                sides.append(listed)
            if circuit_link_sum(circuit, link, e) != oriented_difference(*sides):
                return False, "flip identity fails"
    return True, "flip identity certificate valid"


def _check_census(payload: dict) -> tuple[bool, str]:
    vectors = _vectors(payload["rays"])
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        return False, f"a ray whose length is not {n}"
    d = n * (n + 1) // 2
    rows = [pairing_row(v) for v in vectors]  # rows[i] . y = v_i^t Y v_i
    facets = payload["facets"]
    sizes: dict[str, int] = {}
    for f in facets:
        functional = tuple(int(x) for x in f["functional"])
        if len(functional) != d:
            return False, f"a functional whose length is not {d}"
        values = [sum(map(mul, row, functional)) for row in rows]
        if min(values) < 0:
            return False, "functional negative on a ray"
        tight = [i for i, val in enumerate(values) if val == 0]
        if tight != sorted(int(x) for x in f["labels"]):
            return False, "tight set mismatch"
        if int_rank([rows[i] for i in tight]) != d - 1:
            return False, "facet is not of codimension one"
        sizes[str(len(tight))] = sizes.get(str(len(tight)), 0) + 1
    counts = payload["counts"]
    if counts.get("total") != len(facets) or counts.get("by_rays") != sizes:
        return False, "census counts mismatch"
    return True, "census certificate valid"


_CHECKERS: dict[str, Callable] = {
    "boundary": _check_boundary,
    "positivity": _check_positivity,
    "triangulation": _check_triangulation,
    "flip-identity": _check_flip_identity,
    "census": _check_census,
}
