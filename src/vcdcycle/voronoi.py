"""Perfect quadratic forms and their top-dimensional cones.

A perfect form is pinned down by its minimal vectors; the associated tile
is the cone spanned by the rank-1 forms of those vectors.  This module
reconstructs forms from vector data, enumerates minimal vectors exactly
(an integer Fincke-Pohst enumeration on the Bareiss minors of the scaled
Gram matrix), computes tile facets through the double description
machinery, and finds tile stabilizers inside SL_n(Z) as stabilizer chains.
The built-in datasets cover ranks 2 through 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

from . import data
from .dd import cone_facets
from .exactq import (
    Q,
    as_q,
    int_rank,
    pairing_row,
    primitive_normalize,
    rank1_vec,
    solve,
    vec_sym,
    vec_trace,
)
from .polytope import PointConfiguration, project_to_affine_span
from .sharbly import AutomorphismGroup, automorphism_group

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class PerfectForm:
    name: str
    n: int
    gram: tuple[tuple[Q, ...], ...]
    min_value: Q
    min_vectors: tuple[IntVector, ...]  # one per +- pair, as given


@dataclass(frozen=True)
class Tile:
    """Top-dimensional cone of a perfect form; `sharbly_of_cone` orients its simplices."""

    form: PerfectForm
    ray_vectors: tuple[IntVector, ...]  # primitive v, label = position
    rays: tuple[IntVector, ...]  # upper-triangle coordinates of v v^t
    section_points: tuple[tuple[Q, ...], ...]  # trace-1 scalings of the rays

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def labels(self) -> range:
        return range(len(self.ray_vectors))


def normalize_to_section(v_prime: Sequence, n: int) -> tuple[Q, ...]:
    """Scale a nonzero positive semidefinite ray of n x n forms to trace 1.

    Takes upper-triangle coordinates; the trace section meets every ray of
    the cone of nonzero positive semidefinite forms, unlike any single
    coordinate hyperplane.
    """
    t = vec_trace(v_prime, n)
    if t <= 0:
        raise ValueError("ray has nonpositive trace")
    return tuple(Q(x, t) for x in v_prime)


# ---------------------------------------------------------------------------
# minimal vectors (integer Fincke-Pohst enumeration)


def minimal_vectors(gram) -> tuple[Q, tuple[IntVector, ...]]:
    """Exact minimum of the form over nonzero integer vectors, with all
    attaining vectors up to sign (sorted, primitive, sign-normalized).

    Fincke-Pohst enumeration (Fincke & Pohst, Math. Comp. 44, 1985) on
    integers only.  The Gram matrix is scaled by the lcm l of its
    denominators to an integer A.  One Bareiss pass over A gives the leading
    minors D_1..D_n (D_0 = 1), all positive exactly when A is positive
    definite, and the integer rows b_k with b_kk = D_{k+1}; then
    A(x) = sum_k t_k^2 / (D_k D_{k+1}) with t_k = sum_{j>=k} b_kj x_j.
    Scaled by M = lcm_k(D_k D_{k+1}) this is sum_k w_k t_k^2 with integer
    weights w_k, so the coordinates are enumerated from the top against the
    integer bound M * min_i A_ii with exact bounds |t_i| <= isqrt(R // w_i).
    The minimum is returned as Fraction(min, l * M).
    """
    rows = [[as_q(x) for x in r] for r in gram]
    n = len(rows)
    l = lcm(*(x.denominator for r in rows for x in r))
    a = [[x.numerator * (l // x.denominator) for x in r] for r in rows]
    diagonal = min(a[k][k] for k in range(n))
    minors = [1]  # D_0, D_1, ..., D_n; row k of `a` ends as b_k
    for k in range(n):
        krow, p = a[k], a[k][k]
        if p <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            a[i] = [0] * (k + 1) + [
                (row[j] * p - f * krow[j]) // minors[k] for j in range(k + 1, n)
            ]
        minors.append(p)
    dens = [minors[k] * minors[k + 1] for k in range(n)]
    m = lcm(*dens)
    w = [m // d for d in dens]
    bound = m * diagonal
    found: list[tuple[int, IntVector]] = []
    x = [0] * n

    def descend(i: int, remaining: int) -> None:
        bi, d, wi = a[i], minors[i + 1], w[i]
        s = sum(bi[j] * x[j] for j in range(i + 1, n))
        r = isqrt(remaining // wi)
        for xi in range(-((r + s) // d), (r - s) // d + 1):
            t = d * xi + s
            rest = remaining - wi * t * t
            x[i] = xi
            if i == 0:
                if any(x):
                    found.append((bound - rest, tuple(x)))
            else:
                descend(i - 1, rest)
        x[i] = 0

    descend(n - 1, bound)
    mv = min(v for v, _ in found)
    attain = {primitive_normalize(vec) for v, vec in found if v == mv}
    return Q(mv, l * m), tuple(sorted(attain))


def form_from_minvecs(vectors: Iterable[Sequence[int]], name: str = "") -> PerfectForm:
    """The unique form with value 2 on the given vectors, verified perfect.

    Errors when the rank-1 forms fail to span, the solved form is not
    positive definite, or extra minimal vectors exist.
    """
    vs = tuple(primitive_normalize(v) for v in vectors)
    n = len(vs[0])
    dsym = n * (n + 1) // 2
    rows = [pairing_row(v) for v in vs]
    if int_rank(rows) < dsym:
        raise ValueError("rank-1 forms of the vectors do not span")
    sol = solve(rows, [2] * len(vs))
    if sol is None:
        raise ValueError("no form takes equal values on the vectors")
    gram = tuple(tuple(r) for r in vec_sym(sol, n))
    mv, attain = minimal_vectors(gram)
    if mv != 2 or set(attain) != {primitive_normalize(v) for v in vs}:
        raise ValueError("solved form is not perfect with the given vectors")
    return PerfectForm(name, n, gram, mv, vs)


# ---------------------------------------------------------------------------
# tiles


def tile_of(form: PerfectForm) -> Tile:
    rays = tuple(rank1_vec(v) for v in form.min_vectors)
    d = form.n * (form.n + 1) // 2
    if int_rank(rays) != d:
        raise ValueError("form is not perfect: rays do not span")
    section = tuple(normalize_to_section(r, form.n) for r in rays)
    return Tile(form, tuple(form.min_vectors), rays, section)


def tile_facets(tile: Tile) -> list[tuple[frozenset, IntVector]]:
    """Facets of the tile as (ray label set, inward functional).

    The functional is the upper-triangle coordinate vector of a symmetric
    matrix that is nonnegative against every ray and zero exactly on the
    facet's rays.
    """
    gens = [pairing_row(v) for v in tile.ray_vectors]
    return cone_facets(gens)


# ---------------------------------------------------------------------------
# stabilizers


def stabilizer(tile: Tile) -> AutomorphismGroup:
    """The g in SL_n(Z) with g . tile = tile, as a stabilizer chain.

    These are the g that map the minimal vectors to themselves up to sign.
    Each level of the chain fixes one more base vector, and one first-hit
    search per orbit point not yet reached finds a transversal element, so
    the search visits a few leaves per level rather than one per group
    element.  Every generator is verified to be integral with determinant
    one and to permute the rays.
    """
    return automorphism_group(tile.ray_vectors, tile.n)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    n: int
    vectors: tuple[IntVector, ...]


def builtin_dataset(n: int) -> list[DatasetEntry]:
    """The embedded reference data for rank n (2 through 5), bit-exact."""
    if n not in data.FORMS:
        raise ValueError(f"no built-in data for rank {n}")
    return [
        DatasetEntry(name, n, tuple(tuple(v) for v in vectors))
        for name, vectors in data.FORMS[n]
    ]


def builtin_form(name: str) -> PerfectForm:
    for n, entries in data.FORMS.items():
        for ename, vectors in entries:
            if ename == name:
                return form_from_minvecs(vectors, name)
    raise ValueError(f"unknown form {name!r}")


def builtin_tile(name: str) -> Tile:
    return tile_of(builtin_form(name))


# ---------------------------------------------------------------------------
# section polytopes


def section_configuration(
    tile: Tile, labels: Optional[Sequence[int]] = None
) -> tuple[PointConfiguration, list[int]]:
    """The section polytope of a tile face as a full-dimensional
    configuration in its own affine span.

    Points appear in ascending ray-label order; the returned list maps the
    configuration labels back to tile labels.  Labels that are not rays of
    the tile, or that repeat, raise ValueError.
    """
    sel = sorted(labels) if labels is not None else list(tile.labels)
    if any(l not in tile.labels for l in sel):
        raise ValueError("labels are not rays of the tile")
    if len(set(sel)) != len(sel):
        raise ValueError("repeated ray labels")
    pts = [tile.section_points[i] for i in sel]
    coords = project_to_affine_span(pts)
    config = PointConfiguration.from_points(coords)
    return config, sel
