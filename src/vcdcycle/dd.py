"""Incremental double description over the integers.

Computes the extreme rays of a polyhedral cone given by homogeneous
inequalities a.y >= 0.  The input constraint matrix must have full column
rank (the cone is then pointed).  The tile census is its only use in this
package: the facets of a tile, the full-dimensional pointed cone of a
perfect form (`voronoi.tile_facets`).  Adjacency of rays is decided by the combinatorial test on
tight sets, with a popcount prefilter.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .exactq import _row_reduce_content, independent_rows, int_det_adjugate


def _initial_basis(rows: Sequence[Sequence[int]], d: int) -> list[int]:
    """Indices of d linearly independent constraint rows (greedy)."""
    chosen = independent_rows(rows, d)
    if len(chosen) < d:
        raise ValueError("constraint matrix does not have full column rank")
    return chosen


def _solve_initial_rays(rows: Sequence[Sequence[int]], idx: list[int]) -> list[tuple[int, ...]]:
    """Rays r_j with a_i . r_j = 0 (i != j) and a_j . r_j > 0.

    These are the columns of the adjugate of the chosen square subsystem,
    up to the sign of its determinant.
    """
    a = [list(rows[i]) for i in idx]
    det, adj = int_det_adjugate(a)
    sign = 1 if det > 0 else -1
    return [
        tuple(_row_reduce_content([sign * row[j] for row in adj])) for j in range(len(a))
    ]


def extreme_rays(constraints: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of {y : a.y >= 0 for every constraint row a}.

    Returns (ray, tight_mask) pairs, tight_mask being the bitmask of
    constraint indices the ray saturates.  Rays are primitive integer
    vectors, deterministically ordered.
    """
    rows = [tuple(int(x) for x in r) for r in constraints]
    if not rows:
        raise ValueError("no constraints")
    d = len(rows[0])
    base = _initial_basis(rows, d)
    rays = _solve_initial_rays(rows, base)
    processed = list(base)
    ray_masks = []
    for r in rays:
        mask = 0
        for pos, ci in enumerate(processed):
            if _dot(rows[ci], r) == 0:
                mask |= 1 << pos
        ray_masks.append((r, mask))

    for ci in range(len(rows)):
        if ci in base:
            continue
        a = rows[ci]
        pos_rays, zero_rays, neg_rays = [], [], []
        for r, mask in ray_masks:
            v = _dot(a, r)
            if v > 0:
                pos_rays.append((r, mask, v))
            elif v == 0:
                zero_rays.append((r, mask))
            else:
                neg_rays.append((r, mask, v))
        npos = len(processed)
        new_rays: list[tuple[tuple[int, ...], int]] = []
        if neg_rays:
            all_masks = [m for _, m in ray_masks]
            for rp, mp, vp in pos_rays:
                for rn, mn, vn in neg_rays:
                    common = mp & mn
                    if common.bit_count() < d - 2:
                        continue
                    if not _adjacent(common, mp, mn, all_masks):
                        continue
                    comb = [vp * x - vn * y for x, y in zip(rn, rp)]
                    r_new = tuple(_row_reduce_content(comb))
                    mask = 0
                    for pos2, cj in enumerate(processed):
                        if _dot(rows[cj], r_new) == 0:
                            mask |= 1 << pos2
                    new_rays.append((r_new, mask | (1 << npos)))
        processed.append(ci)
        kept = [(r, m) for r, m, _ in pos_rays]
        kept += [(r, m | (1 << npos)) for r, m in zero_rays]
        kept += new_rays
        ray_masks = kept

    # re-index tight masks to the original constraint order
    perm = processed
    out = []
    for r, mask in ray_masks:
        m2 = 0
        for pos, ci in enumerate(perm):
            if mask >> pos & 1:
                m2 |= 1 << ci
        out.append((r, m2))
    out.sort(key=lambda rm: rm[0])
    return out


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _adjacent(common: int, m1: int, m2: int, masks: list[int]) -> bool:
    for m3 in masks:
        if m3 == m1 or m3 == m2:
            continue
        if common & ~m3 == 0:
            return False
    return True


def cone_facets(generators: Sequence[Sequence[int]]) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Facets of the cone spanned by integer generators.

    The cone must be full-dimensional and pointed.  Returns, per facet, the
    set of generator indices it contains and the primitive inward normal
    (a functional nonnegative on all generators, zero exactly on the facet).
    The set is the normal's tight mask from `extreme_rays`.
    """
    facets = [
        (frozenset(i for i in range(len(generators)) if mask >> i & 1), normal)
        for normal, mask in extreme_rays(generators)
    ]
    facets.sort(key=lambda f: sorted(f[0]))
    return facets
