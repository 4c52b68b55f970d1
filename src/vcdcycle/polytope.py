"""Exact combinatorics of rational point configurations.

Convex hull facets, placing triangulations, regularity witnesses,
circuits with their sign partitions, bistellar flips, and the
antisymmetrized gluing identities that relate a flip to the difference of
the two triangulations it connects.  All geometry is exact: validity is
decided by integer orientation signs, and regularity comes with rational
witnesses.  A configuration's points are distinct, so its labels name
them one to one; circuits, flips and their identities are stated on labels
(De Loera, Rambau, Santos, *Triangulations*, Ch. 4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property, partial
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import lp
from .dd import cone_facets
from .exactq import (
    Q, independent_rows, int_det, int_rank, int_rows, nullspace, primitive_normalize,
    solve, vec_q,
)
from .sharbly import AntisymSum

Triangulation = frozenset  # of frozensets of point labels
LiftingHeights = dict  # label -> Fraction


class DegenerateConfiguration(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class PointConfiguration:
    """Labeled distinct exact points; label i is position i."""

    ambient_dim: int
    points: tuple[tuple[Q, ...], ...]

    @staticmethod
    def from_points(points: Sequence[Sequence]) -> "PointConfiguration":
        pts = tuple(vec_q(p) for p in points)
        if not pts:
            raise ValueError("empty point configuration")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("points of mixed ambient dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("repeated point in configuration")
        return PointConfiguration(dim, pts)

    @property
    def labels(self) -> range:
        return range(len(self.points))

    def __len__(self) -> int:
        return len(self.points)

    # The hull data below is cached on the instance, never in a module-level
    # cache keyed on the points: a certificate checker must recompute it
    # from the certificate's own points, even in the process that wrote it.

    @cached_property
    def _int_points(self) -> tuple[tuple[int, ...], ...]:
        """All points scaled by one common denominator (a similarity)."""
        l = lcm(*(x.denominator for p in self.points for x in p))
        return tuple(tuple(x.numerator * (l // x.denominator) for x in p) for p in self.points)

    @cached_property
    def _hull_volume(self) -> int:
        tri = placing_triangulation(self)
        return sum(abs(_simplex_det(self, s)) for s in tri)

    @cached_property
    def _hull_facet_labels(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(tight) for tight, _ in convex_hull_facets(self))


@dataclass(frozen=True)
class Circuit:
    """Minimal affine dependence with its sign partition."""

    labels: frozenset
    positive_part: frozenset
    negative_part: frozenset
    dependence: tuple[tuple[int, int], ...]  # (label, integer coefficient)


@dataclass(frozen=True)
class Flip:
    """Exchange of the two triangulations of a circuit inside a larger one.

    `link` is the set of label sets coned onto the circuit simplices; the
    removed simplices are exactly {(Z - w) | L : w in one part of the
    circuit, L in link} and the inserted ones use the opposite part.
    """

    circuit: Circuit
    removed: Triangulation
    inserted: Triangulation
    link: frozenset  # of frozensets of labels outside the circuit


# ---------------------------------------------------------------------------
# integer coordinates


def _homog(config: PointConfiguration) -> list[tuple[int, ...]]:
    return [(1,) + p for p in config._int_points]


def config_affine_dim(config: PointConfiguration, labels=None) -> int:
    pts = config._int_points
    sel = list(labels) if labels is not None else list(config.labels)
    base = pts[sel[0]]
    diffs = [[x - y for x, y in zip(pts[i], base)] for i in sel[1:]]
    return int_rank(diffs) if diffs else 0


def _require_full_dim(config: PointConfiguration) -> None:
    if config_affine_dim(config) != config.ambient_dim:
        raise DegenerateConfiguration(
            "configuration is not full-dimensional in its ambient space"
        )


def _simplex_det(config: PointConfiguration, simplex: Iterable[int]) -> int:
    pts = config._int_points
    labels = sorted(simplex)
    base = pts[labels[0]]
    rows = [[x - y for x, y in zip(pts[i], base)] for i in labels[1:]]
    return int_det(rows)


def simplex_orientation(config: PointConfiguration, simplex: Iterable[int]) -> int:
    """Sign of the ordered simplex (labels ascending) in the ambient space."""
    d = _simplex_det(config, simplex)
    return (d > 0) - (d < 0)


def _side(config: PointConfiguration, ridge: Iterable[int], apex: int) -> int:
    """The orientation predicate: the sign of det[(1, p_r) ... (1, p_apex)]
    over r in sorted(ridge), then apex.

    For a ridge of m affinely independent points it tells which side of the
    ridge's hyperplane the apex lies on; 0 means on it.
    """
    pts = config._int_points
    d = int_det([(1,) + pts[r] for r in sorted(ridge)] + [(1,) + pts[apex]])
    return (d > 0) - (d < 0)


# ---------------------------------------------------------------------------
# hulls


def convex_hull_facets(config: PointConfiguration):
    """All facets as (vertex label set, inward integer functional).

    The functional (c, a_1, ..., a_m) satisfies c + a.x >= 0 on the
    configuration, with equality exactly on the facet's points.
    """
    _require_full_dim(config)
    return cone_facets(_homog(config))


def _boundary_faces(triangulation: Triangulation) -> dict:
    """Codimension-1 faces lying in exactly one simplex, with that simplex."""
    count: dict[frozenset, list] = {}
    for s in triangulation:
        for v in s:
            f = s - {v}
            count.setdefault(f, []).append(s)
    return {f: ss[0] for f, ss in count.items() if len(ss) == 1}


def placing_triangulation(
    config: PointConfiguration, order: Optional[Sequence[int]] = None
) -> Triangulation:
    """Triangulation by placing points in the given label order.

    Regular by construction; `is_regular` gives its witness heights.
    """
    _require_full_dim(config)
    pts = config._int_points
    m = config.ambient_dim
    order = list(order) if order is not None else list(config.labels)
    if sorted(order) != list(config.labels):
        raise ValueError("order must be a permutation of the labels")

    diffs = [[x - y for x, y in zip(pts[i], pts[order[0]])] for i in order[1:]]
    initial = [order[0]] + [order[1 + k] for k in independent_rows(diffs, m)]
    if len(initial) < m + 1:
        raise DegenerateConfiguration("no full-dimensional initial simplex")

    tri = {frozenset(initial)}
    used = set(initial)
    for i in order:
        if i in used:
            continue
        used.add(i)
        boundary = _boundary_faces(frozenset(tri))
        new_simplices = []
        for face, parent in boundary.items():
            apex = next(iter(parent - face))
            # strictly visible: i and the parent's apex on opposite sides
            if _side(config, face, i) * _side(config, face, apex) < 0:
                new_simplices.append(face | {i})
        tri.update(new_simplices)
    return frozenset(tri)


def hull_volume_scaled(config: PointConfiguration) -> int:
    """Hull volume times m! in the configuration's integer scale.

    Computed once per configuration instance, from a placing triangulation.
    """
    return config._hull_volume


# ---------------------------------------------------------------------------
# validity


def is_valid_triangulation(config: PointConfiguration, triangulation) -> bool:
    """Exact validity by the interior-ridge characterization (De Loera,
    Rambau, Santos, *Triangulations*, 2010, Ch. 4).

    A nonempty set of distinct full-dimensional simplices on the labels of a
    full-dimensional configuration triangulates its hull exactly when
    1. the simplex volumes sum to the hull volume;
    2. every ridge (codimension-1 label set) lies in at most two simplices;
    3. a ridge in two simplices strictly separates their apexes;
    4. a ridge in one simplex lies in a facet of the hull.
    By 2-4 the number of simplices over a generic point of the hull does
    not change across any ridge, so it is constant; by 1 it is one.  Ridges
    of one simplex that end inside the hull (T-junctions) fail 4.  Sides
    come from the orientation predicate `_side`, read off each simplex's
    own determinant.
    """
    try:
        _require_full_dim(config)
    except DegenerateConfiguration:
        return False
    tri = [frozenset(s) for s in triangulation]
    if len(set(tri)) != len(tri) or not tri:
        return False
    m = config.ambient_dim
    labels = set(config.labels)
    volume = 0
    sides: dict[frozenset, list[int]] = {}  # ridge -> side of each apex
    for s in tri:
        if len(s) != m + 1 or not s <= labels:
            return False
        d = _simplex_det(config, s)
        if d == 0:
            return False
        volume += abs(d)
        sign = 1 if d > 0 else -1
        for apex in s:
            # _side(config, s - {apex}, apex): _simplex_det is the determinant
            # of the rows (1, p) in label order, and moving apex's row last
            # passes one row per larger label.
            larger = sum(1 for r in s if r > apex)
            sides.setdefault(s - {apex}, []).append(-sign if larger % 2 else sign)
    if volume != hull_volume_scaled(config):
        return False
    facets = config._hull_facet_labels
    for ridge, ss in sides.items():
        if len(ss) > 2:
            return False
        if len(ss) == 2:
            if ss[0] == ss[1]:
                return False
        elif not any(ridge <= f for f in facets):
            return False
    return True


# ---------------------------------------------------------------------------
# regularity


def _barycentric(config: PointConfiguration, simplex: Sequence[int], label: int):
    """Affine coordinates of a point with respect to a full simplex."""
    pts = config._int_points
    labels = sorted(simplex)
    mat = list(zip(*((1,) + pts[i] for i in labels)))
    sol = solve(mat, (1,) + pts[label])
    if sol is None:
        raise DegenerateConfiguration("degenerate simplex in triangulation")
    return dict(zip(labels, sol))


def is_regular(config: PointConfiguration, triangulation) -> Optional[LiftingHeights]:
    """Witness heights when the triangulation is regular, else None.

    The triangulation is assumed valid (`is_valid_triangulation`); the
    answer on any other set of simplices means nothing.  The witness lifts
    every point strictly above the affine span of every lifted simplex it
    does not belong to (scaled to a margin of 1).
    """
    tri = [frozenset(s) for s in triangulation]
    nlab = len(config.points)
    rows = []
    rhs = []
    for s in tri:
        for w in config.labels:
            if w in s:
                continue
            lam = _barycentric(config, sorted(s), w)
            row = [0] * nlab
            row[w] = 1
            for l, c in lam.items():
                row[l] -= c
            rows.append(row)
            rhs.append(1)
    if not rows:  # a single simplex: any heights work
        return {i: Q(0) for i in range(nlab)}
    sol = lp.feasible_ge(rows, rhs)
    if sol is None:
        return None
    return {i: sol[i] for i in range(nlab)}


# ---------------------------------------------------------------------------
# circuits and flips


def affine_dependence(
    config: PointConfiguration, labels: Optional[Iterable[int]] = None
) -> Circuit:
    """The circuit carried by points with exactly one affine dependence."""
    sel = sorted(labels) if labels is not None else list(config.labels)
    pts = config._int_points
    kernel = nullspace(list(zip(*((1,) + pts[i] for i in sel))))
    if len(kernel) == 0:
        raise ValueError("points are affinely independent")
    if len(kernel) > 1:
        raise ValueError("more than one affine dependence")
    coeffs = list(primitive_normalize(kernel[0]))
    if any(c == 0 for c in coeffs):
        raise ValueError("dependence does not involve every point")
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    dep = tuple(zip(sel, coeffs))
    pos = frozenset(l for l, c in dep if c > 0)
    neg = frozenset(l for l, c in dep if c < 0)
    return Circuit(frozenset(sel), pos, neg, dep)


def gkz_two_triangulations(z: Circuit):
    """The two triangulations of a circuit's hull."""
    t_plus = frozenset(frozenset(z.labels - {w}) for w in z.positive_part)
    t_minus = frozenset(frozenset(z.labels - {w}) for w in z.negative_part)
    return t_plus, t_minus


def _circuit_of(config: PointConfiguration, labels: Iterable[int]) -> Optional[Circuit]:
    """The unique circuit inside a label set with a 1-dim dependence space."""
    sel = sorted(labels)
    pts = config._int_points
    kernel = nullspace(list(zip(*((1,) + pts[i] for i in sel))))
    if len(kernel) != 1:
        return None
    support = [sel[i] for i, c in enumerate(kernel[0]) if c != 0]
    if len(support) < 3:
        return None
    return affine_dependence(config, support)


def _flip_from_circuit(
    config: PointConfiguration, tri: Triangulation, z: Circuit
) -> Optional[Flip]:
    """The flip supported on circuit z in tri, if the star decomposes."""
    for part in (z.positive_part, z.negative_part):
        star: dict[int, set] = {w: set() for w in part}
        covered = set()
        for s in tri:
            for w in part:
                if z.labels - {w} <= s:
                    star[w].add(frozenset(s - (z.labels - {w})))
                    covered.add(s)
                    break
        if any(not v for v in star.values()):
            continue
        links = list(star.values())
        if any(l != links[0] for l in links[1:]):
            continue
        link = frozenset(links[0])
        removed = frozenset(
            frozenset((z.labels - {w}) | f) for w in part for f in link
        )
        if removed != frozenset(covered) or not removed <= tri:
            continue
        other = z.negative_part if part == z.positive_part else z.positive_part
        inserted = frozenset(
            frozenset((z.labels - {w}) | f) for w in other for f in link
        )
        if any(_simplex_det(config, s) == 0 for s in inserted):
            continue
        return Flip(z, removed, inserted, link)
    return None


def supported_flips(config: PointConfiguration, triangulation) -> list[Flip]:
    """All flips applicable to the triangulation (result validity checked).

    The candidates are the circuits of the interior walls' label sets, then
    of each simplex plus one point, one circuit per label set.  Flips that
    tie in the sort keep this order, which `_regular_flip_search` explores:
    both flips from the D5 facet's T1 remove all 16 simplices.
    """
    tri = frozenset(frozenset(s) for s in triangulation)
    circuit = cache(partial(_circuit_of, config))  # for this call only
    candidates: dict[frozenset, Circuit] = {}

    wall_owner: dict[frozenset, list] = {}
    for s in tri:
        for v in s:
            wall_owner.setdefault(s - {v}, []).append(s)
    for wall, owners in wall_owner.items():
        if len(owners) == 2:
            z = circuit(owners[0] | owners[1])
            if z is not None:
                candidates[z.labels] = z
    for s in tri:
        for w in config.labels:
            if w in s:
                continue
            z = circuit(s | {w})
            if z is not None and w in z.labels:
                candidates.setdefault(z.labels, z)

    flips = []
    seen = set()
    for z in candidates.values():
        f = _flip_from_circuit(config, tri, z)
        if f is None:
            continue
        key = (f.removed, f.inserted)
        if key in seen:
            continue
        seen.add(key)
        new_tri = (tri - f.removed) | f.inserted
        if is_valid_triangulation(config, new_tri):
            flips.append(f)
    flips.sort(key=lambda f: sorted(map(sorted, f.removed)))
    return flips


def apply_flip(config: PointConfiguration, triangulation, flip: Flip) -> Triangulation:
    tri = frozenset(frozenset(s) for s in triangulation)
    if not flip.removed <= tri:
        raise ValueError("flip's removed simplices are not in the triangulation")
    out = (tri - flip.removed) | flip.inserted
    if not is_valid_triangulation(config, out):
        raise ValueError("flip result is not a valid triangulation")
    return out


def _canon_tri(tri: Triangulation) -> tuple:
    return tuple(sorted(tuple(sorted(s)) for s in tri))


def _regular_flip_search(
    config: PointConfiguration, start: Triangulation, budget: int, what: str
) -> Iterator[tuple[tuple, Triangulation, tuple, Flip]]:
    """Breadth-first search over the regular triangulations that flips
    connect to the regular `start`.

    Yields (key, triangulation, parent key, flip) once for each one newly
    reached, in visit order (keys are `_canon_tri`).  After each yield the
    triangulation is queued, and once more than `budget` are known, the
    start included, BudgetExceeded is raised: a caller that stops at the
    yield never meets that test.
    """
    start_key = _canon_tri(start)
    seen = {start_key}
    queue = deque([(start_key, start)])
    while queue:
        key, cur = queue.popleft()
        for f in supported_flips(config, cur):
            nxt = (cur - f.removed) | f.inserted
            nkey = _canon_tri(nxt)
            if nkey in seen:
                continue
            if is_regular(config, nxt) is None:
                continue
            seen.add(nkey)
            yield nkey, nxt, key, f
            queue.append((nkey, nxt))
            if len(seen) > budget:
                raise BudgetExceeded(f"{what} budget exceeded")


def enumerate_regular_triangulations(
    config: PointConfiguration, budget: int = 10000
) -> list[Triangulation]:
    """All regular triangulations: flip closure from a placing start."""
    start = placing_triangulation(config)
    found = {_canon_tri(start): start}
    for key, tri, _, _ in _regular_flip_search(
        config, start, budget, "triangulation enumeration"
    ):
        found[key] = tri
    return [found[k] for k in sorted(found)]


def flip_path(
    config: PointConfiguration, t1, t2, budget: int = 10000
) -> list[Flip]:
    """A shortest flip sequence from t1 to t2 through regular triangulations.

    Raises ValueError unless both endpoints are valid, regular
    triangulations.
    """
    t1 = frozenset(frozenset(s) for s in t1)
    t2 = frozenset(frozenset(s) for s in t2)
    for t in (t1, t2):
        if not is_valid_triangulation(config, t):
            raise ValueError("endpoint is not a valid triangulation")
        if is_regular(config, t) is None:
            raise ValueError("endpoint triangulation is not regular")
    if t1 == t2:
        return []
    target = _canon_tri(t2)
    parents: dict[tuple, tuple] = {}
    for key, _, parent, f in _regular_flip_search(config, t1, budget, "flip path"):
        parents[key] = (parent, f)
        if key == target:
            path = []
            while key in parents:
                key, f = parents[key]
                path.append(f)
            return path[::-1]
    raise ValueError("no flip path found between the triangulations")


# ---------------------------------------------------------------------------
# gluing identities


class LinkIdentity(NamedTuple):
    """The flip identity on one link facet L, with circuit z_1 < ... < z_p:
    `circuit_link_sum(z, L, e)` equals the oriented sum of `removed` minus
    that of `inserted`, the flip's simplices whose labels outside the
    circuit are L, each listed (sorted labels, orientation)."""

    link: tuple[int, ...]  # sorted
    e: int
    removed: tuple[tuple[tuple[int, ...], int], ...]
    inserted: tuple[tuple[tuple[int, ...], int], ...]


def circuit_link_sum(circuit: Sequence[int], link: Sequence[int], e: int) -> AntisymSum:
    """e * sum_i (-1)^(i+1) (z_1, ..., ^z_i, ..., z_p, L) over the circuit
    labels in the given order, each tuple joined with the link labels L."""
    z, link = list(circuit), list(link)
    out = AntisymSum()
    for i in range(len(z)):
        out.add(z[:i] + z[i + 1 :] + link, e * (-1) ** (i + 1))
    return out


def _oriented(config: PointConfiguration, simplices) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The simplices as (sorted labels, orientation), in sorted order."""
    out = []
    for s in sorted(tuple(sorted(s)) for s in simplices):
        sign = simplex_orientation(config, s)
        if sign == 0:
            raise ValueError("degenerate simplex")
        out.append((s, sign))
    return tuple(out)


def oriented_difference(removed, inserted) -> AntisymSum:
    """The sum of o * s over the (labels s, orientation o) in `removed`,
    minus the same sum over `inserted`."""
    out = AntisymSum()
    for simplices, sign in ((removed, 1), (inserted, -1)):
        for s, o in simplices:
            out.add(s, sign * o)
    return out


def verify_flip_identity(config: PointConfiguration, flip: Flip) -> list[LinkIdentity]:
    """The alternating-sum identity of a flip, link facet by link facet
    (sorted); raises ValueError where it fails for both signs e."""
    z = flip.circuit.labels
    out = []
    for facet in sorted(flip.link, key=sorted):
        removed, inserted = (
            _oriented(config, [s for s in simplices if s - z == facet])
            for simplices in (flip.removed, flip.inserted)
        )
        link = tuple(sorted(facet))
        lhs = circuit_link_sum(sorted(z), link, 1)
        rhs = oriented_difference(removed, inserted)
        if lhs == rhs:
            e = 1
        elif lhs.scale(-1) == rhs:
            e = -1
        else:
            raise ValueError("flip identity fails for both signs")
        out.append(LinkIdentity(link, e, removed, inserted))
    return out


def triangulation_difference(config: PointConfiguration, t1, t2) -> AntisymSum:
    """Oriented simplex sum of t1 minus that of t2."""
    return oriented_difference(_oriented(config, t1), _oriented(config, t2))


def flip_identity_sum(flip: Flip, identities: Sequence[LinkIdentity]) -> AntisymSum:
    """The signed alternating sums of a verified flip, totalled over links."""
    z = sorted(flip.circuit.labels)
    return sum((circuit_link_sum(z, l.link, l.e) for l in identities), AntisymSum())


# ---------------------------------------------------------------------------
# affine span projection (for configurations presented inside a larger space)


def project_to_affine_span(points: Sequence[Sequence]) -> list[tuple[Q, ...]]:
    """Coordinates of the points inside their own affine span.

    Affine relations, convexity and orientation classes are preserved;
    the projection basis is chosen deterministically.
    """
    pts = [vec_q(p) for p in points]
    base = pts[0]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    basis = [diffs[k] for k in independent_rows(int_rows(diffs), len(base))]
    k = len(basis)
    mat = [list(col) for col in zip(*basis)] if basis else []
    out = []
    for p in pts:
        rhs = [x - y for x, y in zip(p, base)]
        if k == 0:
            out.append(())
            continue
        sol = solve(mat, rhs)
        if sol is None:
            raise AssertionError("point outside its own affine span")
        out.append(tuple(sol))
    return out
