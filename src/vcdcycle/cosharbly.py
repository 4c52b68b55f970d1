"""Sign and degeneracy certificates on the cocycle side.

The pairing that detects the fundamental class assigns a top symbol the
signed volume of its section simplex.  Nothing here evaluates a volume:
degenerate symbols (flipons) are in the kernel, and every other term of a
correctly oriented cycle must carry a positive sign, so positivity of the
pairing is certified from orientation signs and exact rank computations
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exactq import (
    Q,
    _rank_from_veclen,
    int_det,
    int_rank,
    int_rows,
    rank1_vec,
    vec_trace,
)
from .sharbly import BasicSharbly


def epsilon(points: Sequence[Sequence], n: Optional[int] = None) -> int:
    """Orientation sign of d ordered section points; 0 when degenerate.

    The sign is the determinant sign of the point coordinates themselves:
    the section simplex inherits the orientation of the cone frame rooted
    at the origin, which makes the sign of an oriented top cone's section
    equal +1.
    """
    d = len(points[0])
    if n is None:
        n = _rank_from_veclen(d)
    if len(points) != d:
        raise ValueError("need exactly as many points as coordinates")
    for p in points:
        if vec_trace(p, n) != 1:
            raise ValueError("point is not on the trace-1 section")
    dv = int_det(int_rows(points))  # int_rows scales each row by a positive factor
    return (dv > 0) - (dv < 0)


def section_points(basic: BasicSharbly) -> tuple[tuple[Q, ...], ...]:
    """Trace-1 scalings of the rank-1 forms of the symbol's vectors."""
    from .voronoi import normalize_to_section

    return tuple(
        normalize_to_section(rank1_vec(v), basic.n) for v in basic.vectors
    )


def is_flipon(basic: BasicSharbly) -> bool:
    """True when the section points span affine dimension at most d - 2.

    Equivalent to linear dependence of the rank-1 forms, hence to the
    vanishing of the orientation sign; exact rank test.
    """
    n = basic.n
    d = n * (n + 1) // 2
    if len(basic.vectors) != d:
        raise ValueError("flipon test applies to top symbols only")
    rows = [rank1_vec(v) for v in basic.vectors]
    return int_rank(rows) < d


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
        sign = epsilon(section_points(rep), rep.n)
        if coeff * sign > 0:
            verdicts.append(TermVerdict(rep.vectors, coeff, "proper-positive", sign))
            proper_positive += 1
        else:
            verdicts.append(TermVerdict(rep.vectors, coeff, "proper-negative", sign))
            ok = False
    valid = ok and proper_positive >= 1
    return PositivityCertificate(tuple(verdicts), valid)
