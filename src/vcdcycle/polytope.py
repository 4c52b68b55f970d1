"""Exact combinatorics of rational point configurations.

Placing triangulations, validity checks, regularity verdicts and
witnesses, circuits with their sign partitions, bistellar flips, and the
antisymmetrized gluing identities that relate a flip to the difference of
the two triangulations it connects.  All geometry is exact: validity is
decided by integer orientation signs, and regularity by Gordan's
alternative on the Gale rows, with an integer witness when it fails.  A
configuration's points are distinct, so its labels name them one to one;
circuits, flips and their identities are stated on labels (De Loera,
Rambau, Santos, *Triangulations*, Ch. 4).

Two objects are built once per configuration instance, and the rest is
read off them.  The integer Gale dual K (ibid., Ch. 4-5) is a basis of the
affine dependences of all the points, one row per label, of size the
corank N - m - 1 (2 on the rank-5 facet F, however large the ambient
dimension m).  It is read two ways, both on the rows K_O of the labels O
outside a full simplex: det K_O gives the simplex's determinant, and
adj(K_O) gives the dependence of the simplex and each point outside it,
from which the lifting inequalities, the flip circuits and every side
test are read (w is strictly across the ridge S - {a} from a exactly when
its barycentric coordinate lambda_a(w) < 0).  The columns of adj(K_O),
signed by det K_O, over the simplices of a
triangulation T are its Gale rows X_T: T is regular exactly when
X_T psi > 0 for some psi, and by Gordan's alternative exactly when no
y >= 0, y != 0 has X_T^T y = 0, an LP of corank + 1 integer rows
(`nonregularity_witness`, which gives every verdict).  The primal
lifting LP, one row per simplex and outside point (`is_regular`), only
writes the heights of `triangulate`'s certificate.  The placing
triangulation gives the hull volume; no hull facet is listed, as a ridge
lies on the hull exactly when no point is strictly across it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import lp
from .exactq import (
    Q, _clear_row, _gauss_jordan, independent_rows, int_det, int_det_adjugate,
    int_rows, nullspace, primitive_normalize, vec_q,
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

    # The Gale dual, the placing triangulation and the hull volume read off
    # it are cached on the instance, never in a module-level cache keyed on
    # the points: a certificate checker must recompute the Gale dual from
    # the certificate's own points, even in the process that wrote it.

    @cached_property
    def _int_points(self) -> tuple[tuple[int, ...], ...]:
        """All points scaled by one common denominator (a similarity)."""
        l = lcm(*(x.denominator for p in self.points for x in p))
        return tuple(tuple(x.numerator * (l // x.denominator) for x in p) for p in self.points)

    @cached_property
    def _gale(self) -> Optional["GaleDual"]:
        """The integer Gale dual, None when the points are not
        full-dimensional."""
        return _gale_dual(self)

    @cached_property
    def _placed(self) -> tuple[frozenset, int]:
        return _place(self)

    @cached_property
    def _placing(self) -> frozenset:
        """The placing triangulation in label order."""
        return self._placed[0]

    @cached_property
    def _hull_volume(self) -> int:
        """The hull volume in units of |kappa| (`GaleDual`): the sum of
        |det K_O| over the simplices of any triangulation."""
        return self._placed[1]


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
# integer coordinates and the Gale dual


def _homog(config: PointConfiguration) -> list[tuple[int, ...]]:
    return [(1,) + p for p in config._int_points]


class GaleDual(NamedTuple):
    """Rows K, one per label, of an integer basis of the affine dependences
    x of the points (sum_i x_i (1, p_i) = 0), and the constant kappa of the
    Gale identity: for m + 1 labels S with complement T,

        det[(1, p_s)], s in S ascending  =  kappa * shuffle(S) * det K_T,

    with K_T the rows of T in ascending order and shuffle(S) the sign of
    the permutation listing S ascending, then T ascending."""

    rows: tuple[tuple[int, ...], ...]
    kappa: Q


def _gale_dual(config: PointConfiguration) -> Optional[GaleDual]:
    """The Gale dual, None when the points are not full-dimensional; kappa
    comes from one basis of the points."""
    homog = _homog(config)
    kernel = nullspace(list(zip(*homog)))
    corank = len(homog) - len(homog[0])
    if len(kernel) != corank:
        return None
    rows = tuple(zip(*int_rows(kernel))) if kernel else ((),) * len(homog)
    others = independent_rows(rows, corank)  # a T with det K_T != 0
    basis, _, shuffle = _split(config, set(config.labels) - set(others))
    kappa = Q(int_det([homog[b] for b in basis]), shuffle * int_det([rows[t] for t in others]))
    return GaleDual(rows, kappa)


def _split(config: PointConfiguration, simplex: Iterable[int]) -> tuple[list, list, int]:
    """(S, T, shuffle(S)) for m + 1 distinct labels S of the configuration,
    S and its complement T ascending; ValueError for any other labels."""
    labels = sorted(simplex)
    inside = set(labels)
    n, size = len(config.points), config.ambient_dim + 1
    others = [t for t in range(n) if t not in inside]
    if len(labels) != size or len(others) != n - size:  # a label repeated or out of range
        raise ValueError(f"a simplex is {size} distinct labels of the configuration")
    # the i-th smallest label of S comes after s_i - i labels of T
    parity = sum(labels) - len(labels) * (len(labels) - 1) // 2
    return labels, others, -1 if parity % 2 else 1


def _require_full_dim(config: PointConfiguration) -> None:
    if config._gale is None:
        raise DegenerateConfiguration(
            "configuration is not full-dimensional in its ambient space"
        )


def _simplex_det(config: PointConfiguration, simplex: Iterable[int]) -> int:
    """det[(1, p_s)] over the simplex's labels s in ascending order (m! times
    its signed volume), read off the Gale dual; 0 when the configuration is
    not full-dimensional."""
    _, others, shuffle = _split(config, simplex)
    gale = config._gale
    if gale is None:
        return 0
    kappa = gale.kappa
    det = int_det([gale.rows[t] for t in others])
    return shuffle * det * kappa.numerator // kappa.denominator


def simplex_orientation(config: PointConfiguration, simplex: Iterable[int]) -> int:
    """Sign of the ordered simplex (labels ascending) in the ambient space."""
    d = _simplex_det(config, simplex)
    return (d > 0) - (d < 0)


# ---------------------------------------------------------------------------
# hulls


def _ridges(triangulation: Iterable[frozenset]) -> dict[frozenset, list]:
    """Each codimension-1 face of the simplices, with the simplices it lies
    in; a boundary face lies in one."""
    owners: dict[frozenset, list] = {}
    for s in triangulation:
        for v in s:
            owners.setdefault(s - {v}, []).append(s)
    return owners


def placing_triangulation(
    config: PointConfiguration, order: Optional[Sequence[int]] = None
) -> Triangulation:
    """Triangulation by placing points in the given label order.

    Regular by construction; `is_regular` gives its witness heights.
    """
    return _place(config, order)[0]


def _place(
    config: PointConfiguration, order: Optional[Sequence[int]] = None
) -> tuple[Triangulation, int]:
    """(the placing triangulation, the hull volume in units of |kappa|).

    A simplex coned from face = s - {a} to a point w that sees it has
    |det K_O| = |c_a| in w's dependence on s (`_simplex_dependences`):
    (1, p_w) replaces (1, p_a) at the factor -c_a / det, so no simplex
    needs an elimination of its own for the volume.
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

    first = frozenset(initial)
    tri = {first}
    used = set(initial)
    adjugate = _simplex_adjugate(config, first)
    volume = abs(adjugate[2])
    deps = {first: _dependences(config, adjugate)}  # simplex -> _simplex_dependences
    for i in order:
        if i in used:
            continue
        used.add(i)
        new_simplices = []
        for face, owners in _ridges(tri).items():
            if len(owners) != 1:
                continue
            s = owners[0]
            if s not in deps:
                deps[s] = _simplex_dependences(config, s)
            # strictly visible: i across the face from the apex a of s,
            # lambda_a(i) = -dep[a] / det < 0
            det, dep = deps[s][i]
            c = dep[next(iter(s - face))]
            if c * det > 0:
                new_simplices.append(face | {i})
                volume += abs(c)
        tri.update(new_simplices)
    return frozenset(tri), volume


# ---------------------------------------------------------------------------
# validity


def is_valid_triangulation(config: PointConfiguration, triangulation) -> bool:
    """Exact validity by the interior-ridge characterization (De Loera,
    Rambau, Santos, *Triangulations*, 2010, Ch. 2 and 4).

    A nonempty set of distinct full-dimensional simplices on the labels of a
    full-dimensional configuration triangulates its hull exactly when
    1. the simplex volumes sum to the hull volume (both in units of |kappa|:
       |det K_O| off each simplex's one adjugate);
    2. every ridge (codimension-1 label set) lies in at most two simplices;
    3. a ridge in two simplices strictly separates their apexes;
    4. no point lies strictly across a ridge in one simplex from its apex,
       so the ridge lies in a facet of the hull.
    By 2-4 the number of simplices over a generic point of the hull does
    not change across any ridge, so it is constant; by 1 it is one (the
    cube's two five-tetrahedron triangulations together fail only 1).
    Ridges of one simplex that end inside the hull (T-junctions) fail 4.
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
    deps = {}
    for s in tri:
        if len(s) != m + 1 or not s <= labels:
            return False
        try:
            adjugate = _simplex_adjugate(config, s)
        except DegenerateConfiguration:
            return False
        volume += abs(adjugate[2])
        deps[s] = _dependences(config, adjugate)
    if volume != config._hull_volume:
        return False
    return _ridge_defect(tri, deps) is None


def _ridge_defect(triangulation, deps: dict) -> Optional[str]:
    """The first ridge condition 2-4 of `is_valid_triangulation` that the
    simplices fail, or None; deps holds each one's `_simplex_dependences`.
    w lies strictly across the ridge s - {a} from a exactly when its
    coordinate lambda_a(w) = -dep[a] / det is negative."""
    for ridge, owners in _ridges(triangulation).items():
        if len(owners) > 2:
            return "ridge in three simplices"
        s = owners[0]
        a = next(iter(s - ridge))
        if len(owners) == 2:
            det, dep = deps[s][next(iter(owners[1] - ridge))]
            if dep[a] * det <= 0:
                return "apexes on one side"
        elif any(dep[a] * det > 0 for det, dep in deps[s].values()):
            return "unshared ridge inside the hull"
    return None


# ---------------------------------------------------------------------------
# regularity


def _simplex_adjugate(
    config: PointConfiguration, simplex: Iterable[int]
) -> tuple[list, list, int, list]:
    """(S, O, det K_O, adj(K_O)) for a full simplex S with complement O, both
    ascending: the one elimination per simplex that its dependences and its
    Gale rows are read off.  DegenerateConfiguration when det K_O = 0."""
    labels, others, _ = _split(config, simplex)
    gale = config._gale
    if gale is None:
        raise DegenerateConfiguration("degenerate simplex in triangulation")
    try:
        det, adj = int_det_adjugate([gale.rows[o] for o in others])
    except ValueError:  # det(K_O) = 0: the simplex is degenerate
        raise DegenerateConfiguration("degenerate simplex in triangulation") from None
    return labels, others, det, adj


def _simplex_dependences(config: PointConfiguration, simplex: Iterable[int]) -> dict:
    """The integer affine dependence of a full simplex and each point w
    outside it: {w: (det, {simplex label l: c_l})}, points ascending, with
    det * (1, p_w) + sum_l c_l * (1, p_l) = 0 and det != 0.

    With O the complement of the simplex and x w's column of adj(K_O), the
    dependence K x is det(K_O) at w and 0 on the rest of O, so it relates w
    to the simplex alone: c_l = K_l . x.  The affine coordinates of p_w are
    -c_l / det.
    """
    return _dependences(config, _simplex_adjugate(config, simplex))


def _dependences(config: PointConfiguration, adjugate: tuple) -> dict:
    """`_simplex_dependences` read off the simplex's `_simplex_adjugate`."""
    labels, others, det, adj = adjugate
    rows = config._gale.rows
    return {
        w: (det, {l: sum(map(mul, rows[l], x)) for l in labels})
        for w, x in zip(others, zip(*adj))
    }


def _gale_rows(config: PointConfiguration, triangulation) -> list[tuple[int, ...]]:
    """X_T: the distinct rows sign(det K_O) * x_w over the simplices of the
    triangulation and the points w outside each, x_w w's column of adj(K_O),
    every row divided by its positive content, sorted.

    The lifting inequality of a simplex and w, (K x_w) . h / det K_O > 0
    (`_simplex_dependences`), reads sign(det K_O) * x_w . psi > 0 with
    psi = K^T h.  K has full column rank, so psi ranges over all of Q^c as
    the heights h do: T is regular exactly when X_T psi > 0 for some psi.
    """
    rows = set()
    for s in triangulation:
        _, _, det, adj = _simplex_adjugate(config, s)
        sign = 1 if det > 0 else -1
        for x in zip(*adj):
            g = gcd(*x)
            rows.add(tuple(sign * v // g for v in x))
    return sorted(rows)


def nonregularity_witness(config: PointConfiguration, triangulation) -> Optional[dict]:
    """None when the triangulation is regular; otherwise a Gordan vector,
    {row of X_T: y_row} over all of `_gale_rows`, with integers y >= 0, not
    all 0, and sum_row y_row * row = 0.

    The triangulation is assumed valid (`is_valid_triangulation`).  By
    Gordan's alternative, some psi has X_T psi > 0 exactly when no such y
    exists (Gelfand, Kapranov, Zelevinsky, Ch. 7; De Loera, Rambau, Santos,
    *Triangulations*, Ch. 5).  The LP asks for y >= 0 with X_T^T y = 0 and
    sum y = 1: corank + 1 integer rows, one column per distinct Gale row.
    """
    rows = _gale_rows(config, triangulation)
    if not rows:  # a single simplex: regular
        return None
    a_eq = [*zip(*rows), [1] * len(rows)]
    y = lp.simplex_max(a_eq, [0] * len(rows[0]) + [1])
    if y is None:
        return None
    return dict(zip(rows, _clear_row(y)))


def is_regular(config: PointConfiguration, triangulation) -> Optional[LiftingHeights]:
    """Witness heights when the triangulation is regular, else None.

    The triangulation is assumed valid (`is_valid_triangulation`); the
    answer on any other set of simplices means nothing.  The witness lifts
    every point strictly above the affine span of every lifted simplex it
    does not belong to (scaled to a margin of 1).  This primal LP, one row
    per (simplex, outside point), only writes the heights of `triangulate`'s
    certificate and is the tests' oracle; every verdict comes from Gordan's
    alternative on the Gale rows (`nonregularity_witness`).
    """
    tri = [frozenset(s) for s in triangulation]
    nlab = len(config.points)
    rows = []
    rhs = []
    for s in tri:
        for w, (det, dep) in _simplex_dependences(config, s).items():
            row = [0] * nlab
            row[w] = 1
            for l, c in dep.items():
                row[l] = Q(c, det)
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


def _circuit(labels: Sequence[int], coeffs: Sequence) -> Circuit:
    """The circuit of a dependence with the given nonzero coefficients,
    scaled to primitive integers with the first one positive."""
    dep = tuple(zip(labels, primitive_normalize(coeffs)))
    pos = frozenset(l for l, c in dep if c > 0)
    neg = frozenset(l for l, c in dep if c < 0)
    return Circuit(frozenset(labels), pos, neg, dep)


def affine_dependence(config: PointConfiguration) -> Circuit:
    """The circuit of a full-dimensional configuration with exactly one
    affine dependence, which involves every point."""
    _require_full_dim(config)
    deps = list(zip(*config._gale.rows))  # every dependence: the columns of K
    if len(deps) == 0:
        raise ValueError("points are affinely independent")
    if len(deps) > 1:
        raise ValueError("more than one affine dependence")
    if any(c == 0 for c in deps[0]):
        raise ValueError("dependence does not involve every point")
    return _circuit(config.labels, deps[0])


def gkz_two_triangulations(z: Circuit):
    """The two triangulations of a circuit's hull."""
    t_plus = frozenset(frozenset(z.labels - {w}) for w in z.positive_part)
    t_minus = frozenset(frozenset(z.labels - {w}) for w in z.negative_part)
    return t_plus, t_minus


def _flip_from_circuit(tri: Triangulation, z: Circuit) -> Optional[Flip]:
    """The flip supported on circuit z in tri, if the star decomposes.

    Each inserted simplex (Z - w') | L is full-dimensional: every Z - w'
    spans the affine hull of the circuit, so it spans what the removed
    (Z - w) | L spans.
    """
    for part in (z.positive_part, z.negative_part):
        star: dict[int, set] = {w: set() for w in part}
        for s in tri:
            for w in part:
                if z.labels - {w} <= s:
                    star[w].add(frozenset(s - (z.labels - {w})))
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
        other = z.negative_part if part == z.positive_part else z.positive_part
        inserted = frozenset(
            frozenset((z.labels - {w}) | f) for w in other for f in link
        )
        return Flip(z, removed, inserted, link)
    return None


def supported_flips(config: PointConfiguration, triangulation) -> list[Flip]:
    """All flips applicable to the valid triangulation.

    A flip on a circuit whose cells share one link is a triangulation by
    construction (De Loera, Rambau, Santos, *Triangulations*, Ch. 4), so
    no result is re-checked.  The candidates are the circuits of each
    simplex plus one point outside it: the support of their dependence,
    read off one adjugate per simplex.  Flips that tie in the sort keep
    the candidate order, which `_regular_flip_search` explores: both flips
    from the D5 facet's T1 remove all 16 simplices.
    """
    tri = frozenset(frozenset(s) for s in triangulation)
    deps = {s: _simplex_dependences(config, s) for s in tri}
    candidates: dict[frozenset, Circuit] = {}

    def add(s: frozenset, w: int) -> None:
        det, dep = deps[s][w]
        support = sorted([w] + [l for l, c in dep.items() if c])
        if frozenset(support) not in candidates:
            coeffs = [det if l == w else dep[l] for l in support]
            candidates[frozenset(support)] = _circuit(support, coeffs)

    # An interior wall s|t is s plus the apex of t, a candidate the loop
    # after it meets too: the walls come first only to fix the tie order.
    for wall, owners in _ridges(tri).items():
        if len(owners) == 2:
            add(owners[0], next(iter(owners[1] - wall)))
    for s in tri:
        for w in deps[s]:
            add(s, w)

    flips = []
    seen = set()
    for z in candidates.values():
        f = _flip_from_circuit(tri, z)
        if f is None:
            continue
        key = (f.removed, f.inserted)
        if key in seen:
            continue
        seen.add(key)
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
    config: PointConfiguration,
    start: Triangulation,
    budget: int,
    what: str,
    proven: frozenset = frozenset(),
) -> Iterator[tuple[tuple, Triangulation, tuple, Flip]]:
    """Breadth-first search over the regular triangulations that flips
    connect to the regular `start`.

    Yields (key, triangulation, parent key, flip) once for each one newly
    reached, in visit order (keys are `_canon_tri`).  After each yield the
    triangulation is queued, and once more than `budget` are known, the
    start included, BudgetExceeded is raised: a caller that stops at the
    yield never meets that test.  Keys in `proven` name triangulations the
    caller has already shown regular; their verdict is not taken again.
    Each other key gets at most one verdict: a rejected key is remembered.
    """
    start_key = _canon_tri(start)
    seen = {start_key}
    rejected = set()
    queue = deque([(start_key, start)])
    while queue:
        key, cur = queue.popleft()
        for f in supported_flips(config, cur):
            nxt = (cur - f.removed) | f.inserted
            nkey = _canon_tri(nxt)
            if nkey in seen or nkey in rejected:
                continue
            if nkey not in proven and nonregularity_witness(config, nxt) is not None:
                rejected.add(nkey)
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
    start = config._placing
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
        if nonregularity_witness(config, t) is not None:
            raise ValueError("endpoint triangulation is not regular")
    if t1 == t2:
        return []
    target = _canon_tri(t2)
    parents: dict[tuple, tuple] = {}
    search = _regular_flip_search(config, t1, budget, "flip path", frozenset([target]))
    for key, _, parent, f in search:
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
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts]
    basis = [diffs[k] for k in independent_rows(int_rows(diffs), len(base))]
    k = len(basis)
    if k == 0:
        return [()] * len(pts)
    # one elimination of [basis | every difference], column by column: the
    # basis is independent, so each point's coordinates are unique
    red, pivots, p, _ = _gauss_jordan([_clear_row(r) for r in zip(*basis, *diffs)])
    if pivots != list(range(k)):
        raise AssertionError("point outside its own affine span")
    return [tuple(Q(red[r][k + j], p) for r in range(k)) for j in range(len(pts))]
