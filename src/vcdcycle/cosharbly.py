"""Sign and degeneracy certificates on the cocycle side.

The pairing that detects the fundamental class assigns a top symbol the
signed volume of its section simplex.  The section point of a vector v is
the ray v v^t scaled to trace 1, and that trace, |v|^2, is positive, so
every test here runs on the integer rays themselves: scaling a ray by a
positive factor changes neither a rank nor the sign of a determinant.
Nothing here evaluates a volume: degenerate symbols (flipons) are in the
kernel, and every other term of a correctly oriented cycle must carry a
positive sign, so positivity of the pairing is certified from orientation
signs and exact rank computations alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactq import (
    IntVector,
    Q,
    int_det,
    int_rank,
    rank1_vec,
    vec_trace,
)
from .sharbly import BasicSharbly


def section_rays(basic: BasicSharbly) -> tuple[IntVector, ...]:
    """The rays v v^t of the symbol's vectors, in upper-triangle coordinates;
    section point i is ray i divided by its (positive) trace."""
    return tuple(rank1_vec(v) for v in basic.vectors)


def epsilon(rays: Sequence[Sequence[int]], n: int) -> int:
    """Orientation sign of the section simplex of d = n (n + 1) / 2 ordered
    integer rays, each of positive trace; 0 when degenerate.

    The section points are the rays scaled by their positive traces, so
    their determinant has the sign of det of the rays: the section simplex
    inherits the orientation of the cone frame rooted at the origin, which
    makes the sign of an oriented top cone's section equal +1.
    """
    d = n * (n + 1) // 2
    if len(rays) != d or any(len(r) != d for r in rays):
        raise ValueError("need exactly as many rays as coordinates")
    if any(vec_trace(r, n) <= 0 for r in rays):
        raise ValueError("ray does not meet the trace-1 section")
    dv = int_det(rays)
    return (dv > 0) - (dv < 0)


def section_affine_dim(rays: Sequence[Sequence[int]], n: int) -> int:
    """Dimension of the affine span of the section points of integer rays of
    positive trace: the rank of the rows (ray, trace(ray)), the points
    homogenized by a coordinate 1 and scaled by the trace, less one."""
    return int_rank([(*r, vec_trace(r, n)) for r in rays]) - 1


def is_flipon(basic: BasicSharbly) -> bool:
    """True when the section points span affine dimension at most d - 2.

    Equivalent to linear dependence of the rank-1 forms, hence to the
    vanishing of the orientation sign; exact rank test.
    """
    n = basic.n
    d = n * (n + 1) // 2
    if len(basic.vectors) != d:
        raise ValueError("flipon test applies to top symbols only")
    return int_rank(section_rays(basic)) < d


@dataclass(frozen=True)
class TermVerdict:
    rep: tuple[tuple[int, ...], ...]
    coefficient: Q
    verdict: str  # "flipon" | "proper-positive" | "proper-negative"
    sign: int


@dataclass(frozen=True)
class PositivityCertificate:
    """Positivity of the volume pairing, term by term.

    Valid when every non-degenerate term contributes a positive multiple
    of a positive volume and at least one such term exists.
    """

    verdicts: tuple[TermVerdict, ...]
    valid: bool


def mu_sign_certificate(z) -> PositivityCertificate:
    """Classify each coinvariant term of a cycle chain.

    Terms that are flipons contribute nothing; every other term must have
    coefficient times orientation sign positive.
    """
    verdicts = []
    proper_positive = 0
    ok = True
    items = sorted(z.coin.items(), key=lambda kv: kv[0].class_id)
    for cls, coeff in items:
        rep = cls.rep
        if is_flipon(rep):
            verdicts.append(TermVerdict(rep.vectors, coeff, "flipon", 0))
            continue
        sign = epsilon(section_rays(rep), rep.n)
        if coeff * sign > 0:
            verdicts.append(TermVerdict(rep.vectors, coeff, "proper-positive", sign))
            proper_positive += 1
        else:
            verdicts.append(TermVerdict(rep.vectors, coeff, "proper-negative", sign))
            ok = False
    valid = ok and proper_positive >= 1
    return PositivityCertificate(tuple(verdicts), valid)
