"""The trusted checker of certificate files.

A certificate records the result of a budgeted search together with every
witness needed to re-validate the claim by plain arithmetic.  The builders
that write each kind are in `serialize`; `check_certificate` never repeats
a search: it re-verifies witness matrices, cancellation sums, lifting
inequalities, orientation signs and tightness conditions against the data
embedded in the file.  Every integer is read strictly, as `serialize`
reads it: 0.5 or "1" is malformed, not truncated.

A triangulation is checked from its heights, with no hull computed: strict
lifting inequalities make each listed simplex a cell of the heights'
regular subdivision T_h, and with no point strictly across a ridge of one
listed simplex, a nonempty list is all of T_h, whose dual graph is
connected (De Loera, Rambau, Santos, *Triangulations*, Ch. 2 and 4).

A boundary certificate is checked in one pass over its ledger, each term
parsed once.  An account's representative is canonicalized once, when it
is first needed; each member's `to_rep`, each self-witness and the class
witness are then checked by comparing the witness's sorted,
primitive-normalized images and their sort parity with the representative
(with the term itself for a self-witness), which needs no span test: a list
equal to a canonical one spans.

A census certificate is checked on one base elimination: the rays must
span, each functional must be nonnegative on every ray and tight exactly
on its facet's labels, no two facets may share their labels, and each
facet's tight rank, read off the adjugate of d independent pairing rows
(`_tight_rank`), must be d - 1.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Optional

from .cosharbly import epsilon, is_flipon, section_rays
from .exactq import (
    Q,
    independent_rows,
    int_det,
    int_det_adjugate,
    int_rank,
    mat_vec_int,
    pairing_row,
    q_parse,
)
from .polytope import (
    DegenerateConfiguration, PointConfiguration, _ridge_defect, _simplex_dependences,
    circuit_link_sum, oriented_difference, simplex_orientation,
)
from .serialize import (
    SCHEMA_VERSION, _int_vectors, _is_int, _labels, chain_from_json, points_from_json,
    triangulation_from_json,
)
from .sharbly import BasicSharbly, SharblyChain, boundary, canonicalize, sort_normalized


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


def _int(x, what: str) -> int:
    if not _is_int(x):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _check_boundary(payload: dict) -> tuple[bool, str]:
    n = _int(payload["n"], "n")
    chain = chain_from_json(payload["chain"])
    terms = payload["terms"]
    parsed = [(tuple(_int_vectors(t["vectors"])), q_parse(t["coeff"])) for t in terms]
    accumulated = SharblyChain()
    for vectors, coeff in parsed:
        accumulated.add(BasicSharbly(n, vectors), coeff)
    if boundary(chain) != accumulated:
        return False, "terms do not sum to the boundary of the chain"

    by_id = dict(zip(_labels([t["id"] for t in terms], "term ids"), parsed))
    if sorted(by_id) != list(range(len(terms))):
        return False, "term ids are not contiguous"
    covered: set[int] = set()

    for pair in payload["interior_pairs"]:
        a, b = _labels(pair, "an interior pair")
        (va, ca), (vb, cb) = by_id[a], by_id[b]
        if va != vb:
            return False, "interior pair on different faces"
        if ca + cb != 0:
            return False, "interior pair does not cancel"
        if a in covered or b in covered:
            return False, "term accounted twice"
        covered.update((a, b))

    for account in payload["accounts"]:
        rep = BasicSharbly(n, tuple(_int_vectors(account["rep"])))
        canonical = None  # whether canonicalize(rep) == (1, rep), taken when first needed
        kind = account["kind"]
        if kind == "self-negating":
            canonical = _is_canonical(rep)
            if not (_negates(_int_vectors(account["witness"]), rep.vectors, n) and canonical):
                return False, "class witness does not negate the representative"
        total = Q(0)
        for member in account["members"]:
            tid = _int(member["id"], "a member id")
            if tid in covered:
                return False, "term accounted twice"
            covered.add(tid)
            vectors, coeff = by_id[tid]
            g = _int_vectors(member["to_rep"])
            sign = _int(member["sign"], "a member sign")
            if int_det(g) != 1:
                return False, "witness is not in SL_n(Z)"
            image = _image(g, vectors, n)
            if canonical is None:
                canonical = _is_canonical(rep)
            if not canonical or image != (sign, rep.vectors):
                return False, "witness does not map the term to the representative"
            contrib = q_parse(member["contribution"])
            if contrib != coeff * sign:
                return False, "member contribution mismatch"
            total += contrib
            # the term now spans and its vectors lie on distinct lines, like rep
            if kind == "self-negating":
                if not _negates(_int_vectors(member["self_witness"]), vectors, n):
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


def _is_canonical(basic: BasicSharbly) -> bool:
    """Whether the vectors are as `canonicalize` leaves them: primitive,
    normalized, sorted, distinct, of length n, and spanning Q^n."""
    try:
        return canonicalize(basic.vectors, basic.n) == (1, basic)
    except ValueError:  # a zero vector, or one of another length
        return False


def _image(g, vectors, n: int) -> tuple[int, tuple]:
    """(sign, images): g's images of the vectors, primitively normalized and
    sorted, with the sign of that sort.  Images equal to a canonical list
    are distinct and span, so g.vectors is then sign times that list."""
    return sort_normalized([mat_vec_int(g, v) for v in vectors], n)


def _negates(g, vectors: tuple, n: int) -> bool:
    """g in SL_n(Z) with g.vectors = -vectors, for vectors that span and lie
    on distinct lines (the images then equal them only if they are
    canonical)."""
    return int_det(g) == 1 and _image(g, vectors, n) == (-1, vectors)


def _check_positivity(payload: dict) -> tuple[bool, str]:
    positives = 0
    for item in payload["verdicts"]:
        vectors = tuple(_int_vectors(item["rep"]))
        rep = BasicSharbly(len(vectors[0]), vectors)
        coeff = q_parse(item["coeff"])
        if is_flipon(rep):
            if item["verdict"] != "flipon":
                return False, "degenerate term not marked as flipon"
            continue
        sign = epsilon(section_rays(rep), rep.n)
        if sign != _int(item["sign"], "a verdict sign"):
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
    config = PointConfiguration.from_points(points_from_json(payload["points"]))
    tri = triangulation_from_json(payload["simplices"])
    keys = set(payload["heights"])
    names = {str(i) for i in config.labels}
    if keys - names:
        return False, f"height key {min(keys - names)!r} names no point"
    if names - keys:
        return False, f"no height for point {min(names - keys, key=int)}"
    heights = {int(k): q_parse(v) for k, v in payload["heights"].items()}
    if not tri:
        return False, "triangulation has no simplex"
    try:
        deps = {s: _simplex_dependences(config, s) for s in tri}
    except DegenerateConfiguration:
        return False, "degenerate simplex"
    for s in tri:
        # h_w above the lifted simplex at p_w: h_w > sum_l (-c_l / det) h_l
        for w, (det, dep) in deps[s].items():
            if (det * heights[w] + sum(c * heights[l] for l, c in dep.items())) * det <= 0:
                return False, "height witness violates a lifting inequality"
    defect = _ridge_defect(tri, deps)  # only an unshared ridge can fail here
    if defect:
        return False, defect
    return True, "triangulation certificate valid"


def _check_flip_identity(payload: dict) -> tuple[bool, str]:
    config = PointConfiguration.from_points(points_from_json(payload["points"]))
    for flip_entry in payload["flips"]:
        circuit = _labels(flip_entry["circuit"], "a circuit")
        for entry in flip_entry["links"]:
            link = _labels(entry["link"], "a link")
            e = _int(entry["e"], "an identity sign")
            if e not in (1, -1):
                return False, "identity sign must be +-1"
            sides = []
            for side in ("removed", "inserted"):
                listed = [(list(_labels(s["labels"], "simplex labels")),
                           _int(s["orientation"], "an orientation"))
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
    vectors = _int_vectors(payload["rays"])
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        return False, f"a ray whose length is not {n}"
    d = n * (n + 1) // 2
    rows = [pairing_row(v) for v in vectors]  # rows[i] . y = v_i^t Y v_i
    frame = _base_frame(rows, d)
    if frame is None:
        return False, "rays do not span"
    facets = payload["facets"]
    sizes: dict[str, int] = {}
    listed: set[tuple] = set()
    for f in facets:
        functional = _int_vectors([f["functional"]])[0]
        if len(functional) != d:
            return False, f"a functional whose length is not {d}"
        values = [sum(map(mul, row, functional)) for row in rows]
        if min(values) < 0:
            return False, "functional negative on a ray"
        tight = [i for i, val in enumerate(values) if val == 0]
        if tight != sorted(_labels(f["labels"], "facet labels")):
            return False, "tight set mismatch"
        if tuple(tight) in listed:
            return False, "facet listed twice"
        listed.add(tuple(tight))
        if _tight_rank(frame, tight) != d - 1:
            return False, "facet is not of codimension one"
        sizes[str(len(tight))] = sizes.get(str(len(tight)), 0) + 1
    counts = payload["counts"]
    total = _int(counts["total"], "a facet count")
    by_rays = {k: _int(x, "a facet count") for k, x in counts["by_rays"].items()}
    if total != len(facets) or by_rays != sizes:
        return False, "census counts mismatch"
    return True, "census certificate valid"


def _base_frame(rows: list, d: int) -> Optional[tuple[list[int], dict]]:
    """(base, coords): the indices of d independent rows R_B, and each other
    row's integer coordinates row . adj(R_B) in that base; None when the rows
    span less than dimension d."""
    base = independent_rows(rows, d)
    if len(base) < d:
        return None
    _, adj = int_det_adjugate([rows[i] for i in base])
    cols = list(zip(*adj))
    others = [i for i in range(len(rows)) if i not in base]
    return base, {i: tuple(sum(map(mul, rows[i], c)) for c in cols) for i in others}


def _tight_rank(frame: tuple[list[int], dict], tight) -> int:
    """The rank of the rows labelled `tight`, read off the base frame.

    In the coordinates of row . adj(R_B), invertible over Q, the base rows
    are multiples of unit vectors, so the rank is |T & B| plus the rank of
    the other tight rows' coordinates at the base positions outside T.
    """
    base, coords = frame
    tight = set(tight)
    free = [k for k, i in enumerate(base) if i not in tight]
    rest = [[c[k] for k in free] for i, c in coords.items() if i in tight]
    return len(base) - len(free) + int_rank(rest)


_CHECKERS: dict[str, Callable] = {
    "boundary": _check_boundary,
    "positivity": _check_positivity,
    "triangulation": _check_triangulation,
    "flip-identity": _check_flip_identity,
    "census": _check_census,
}
