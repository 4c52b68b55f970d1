"""The sharbly chain complex over SL_n(Z), with exact coinvariant reduction.

A basic generator is a list of nonzero primitive integer column vectors,
modulo permutation signs, rescaling of the individual vectors, and the
vanishing of lists that do not span Q^n.  Chains carry rational
coefficients.  Reduction modulo SL_n(Z) is realized by an orbit dictionary:
representatives are found by a backtracking search over signed vector
bijections, pruned by the invariant pairing of each vector list against the
adjugate of its own covariance form.  The search is one integer pass:
each candidate bijection of a base A (adjugate and determinant computed
once per search) to images B is kept only when det B = det A, every
B adj(A) a / det(A) is integral and lands on a distinct target, and
g = B adj(A) / det(A) is integral.  The sign of g.a = s.b for canonical a
and b is the parity of that bijection; `act`, which re-canonicalizes g's
image, is left to the certificate checker.  The same search builds the
automorphism group of a vector list as a stabilizer chain, one first-hit
search per transversal element, which gives stabilizer orders, and proves
a class is not self-negating when no generator reverses its sign, without
listing the group.  Rationals (`Fraction`) appear only as chain
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactq import (
    Q,
    independent_rows,
    int_det,
    int_det_adjugate,
    mat_mul_int,
    mat_vec_int,
    primitive_normalize,
    rank1_vec,
)

IntVector = tuple[int, ...]
GroupElement = tuple[IntVector, ...]  # integer matrix rows, det +1


class BasicSharbly(NamedTuple):
    n: int
    vectors: tuple[IntVector, ...]

    @property
    def degree(self) -> int:
        return len(self.vectors) - self.n


ZERO = "zero"


def canonicalize(vectors: Sequence[Sequence], n: Optional[int] = None):
    """Canonical form of a symbol: ZERO, or (sign, BasicSharbly).

    Vectors are primitively normalized, sorted, and the permutation sign
    recorded.  The symbol is zero when two normalized vectors coincide or
    when the vectors do not span Q^n.
    """
    vs = [primitive_normalize(v) for v in vectors]
    if n is None:
        n = len(vs[0])
    if any(len(v) != n for v in vs):
        raise ValueError("vectors of mixed dimension")
    if len(set(vs)) != len(vs):
        return ZERO
    if len(independent_rows(vs, n)) < n:
        return ZERO
    order = sorted(range(len(vs)), key=lambda i: vs[i])
    sign = _perm_sign(order)
    return sign, BasicSharbly(n, tuple(vs[i] for i in order))


def _perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# chains


class _FormalSum:
    """Formal Q-linear combination: canonical key -> nonzero coefficient.

    Subclasses turn their symbols into keys; the arithmetic here only adds
    coefficients and drops zeros.  Sums of different classes never compare
    equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict = dict(terms or {})

    def _add_term(self, key, coeff) -> None:
        c = self.terms.get(key, Q(0)) + coeff
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other):
        out = type(self)(self.terms)
        for k, c in other.terms.items():
            out._add_term(k, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        a = Fraction(a)
        if a == 0:
            return type(self)()
        return type(self)({k: c * a for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.terms)} terms)"


class SharblyChain(_FormalSum):
    """Formal Q-linear combination of canonical basic sharblies."""

    __slots__ = ()

    add = _FormalSum._add_term  # (basic, coeff): basic must be canonical

    def add_symbol(self, vectors: Sequence[Sequence], coeff) -> None:
        res = canonicalize(vectors)
        if res is ZERO:
            return
        sign, basic = res
        self.add(basic, sign * Fraction(coeff))


def boundary_basic(basic: BasicSharbly) -> SharblyChain:
    """Boundary of a canonical basic sharbly (vectors primitive, normalized,
    sorted and distinct, as `canonicalize` leaves them).

    Dropping one vector keeps such a list canonical with sign +1, so each
    face goes in as it is when it spans Q^n, and vanishes otherwise.  A
    face fails to span exactly when the vector it drops is a coloop: one
    elimination picks a base A (as columns), and base vector k is a coloop
    when entry k of adj(A) v, the k-th coordinate of v over the base times
    det(A), is 0 for every vector v outside the base.
    """
    if basic.degree < 1:
        raise ValueError("boundary is defined for degree >= 1")
    out = SharblyChain()
    n, vs = basic.n, basic.vectors
    base = independent_rows(vs, n)
    if len(base) < n:
        return out  # no face spans
    _, adj = int_det_adjugate(list(zip(*(vs[i] for i in base))))
    others = [v for i, v in enumerate(vs) if i not in base]
    coloops = {i for i, row in zip(base, adj)
               if not any(sum(map(mul, row, v)) for v in others)}
    for i in range(len(vs)):
        if i not in coloops:
            out.add(BasicSharbly(n, vs[:i] + vs[i + 1 :]), (-1) ** i)  # (-1)^{i+1}, 1-based
    return out


def boundary(chain: SharblyChain) -> SharblyChain:
    out = SharblyChain()
    for basic, coeff in chain.terms.items():
        for b, c in boundary_basic(basic).terms.items():
            out.add(b, c * coeff)
    return out


# ---------------------------------------------------------------------------
# equivalence under SL_n(Z)
#
# For a vector list A = (a_1, ..., a_m) put S(A) = sum a_i a_i^t.  For
# g in GL_n(Z) and sign flips, S(gA) = g S(A) g^t, so det S is invariant
# and the pairing N(i, j) = a_i^t adj(S(A)) a_j transforms by the sign
# flips alone.  These integers prune the bijection search exactly.


@lru_cache(maxsize=None)
def _pair_data(vectors: tuple[IntVector, ...], n: int):
    cols = list(zip(*vectors))
    dets, adj = int_det_adjugate([[sum(map(mul, ci, cj)) for cj in cols] for ci in cols])
    m = len(vectors)
    av = [mat_vec_int(adj, v) for v in vectors]
    npair = [[0] * m for _ in range(m)]
    for i in range(m):  # adj(S) is symmetric, and so is N
        for j in range(i, m):
            npair[i][j] = npair[j][i] = sum(map(mul, av[i], vectors[j]))
    row_keys = tuple(
        (npair[i][i], tuple(sorted(abs(x) for x in npair[i])))
        for i in range(m)
    )
    global_key = (n, m, dets, tuple(sorted(row_keys)))
    return npair, row_keys, global_key


def invariant_key(vectors: Sequence[IntVector], n: int):
    """Equivalence-invariant fingerprint of a primitive vector list."""
    vs = tuple(sorted(primitive_normalize(v) for v in vectors))
    return _pair_data(vs, n)[2]


class _Search:
    """Backtracking over the signed images s.b_j of a base of the sorted list
    a inside the sorted list b, base vector base[order[p]] at position p.

    A candidate image is pruned by its pairings with the positions before
    it; a full assignment B is kept by `_complete`, which checks det B =
    det A, then that every B adj(A) a_i / det(A) is integral and hits a new
    b_j, then that g = B adj(A) / det(A) is integral.  `used` holds the
    images of the assigned positions.
    """

    __slots__ = ("n", "sb", "na", "nb", "base", "cand", "order", "b_index",
                 "det_a", "adj_a", "adj_sa", "assign_j", "assign_s", "used")

    def __init__(self, sa, sb, n, na, rka, nb, rkb):
        base = independent_rows(sa, n)
        if len(base) < n:
            raise ValueError("vectors do not span Q^n")
        self.n, self.sb, self.na, self.nb, self.base = n, sb, na, nb, base
        self.cand = [[j for j in range(len(sb)) if rkb[j] == rka[i]] for i in base]
        self.order = sorted(range(n), key=lambda k: len(self.cand[k]))
        self.b_index = {v: i for i, v in enumerate(sb)}
        # g takes the base columns A to the chosen signed images B: g = B adj(A) / det(A)
        self.det_a, self.adj_a = int_det_adjugate(list(zip(*(sa[i] for i in base))))
        self.adj_sa = [mat_vec_int(self.adj_a, v) for v in sa]  # g v = B adj(A) v / det(A)
        self.assign_j = [-1] * n
        self.assign_s = [0] * n
        self.used: set[int] = set()

    def fix(self, prefix: Sequence[tuple[int, int]]) -> None:
        """Assign the images (j, s) of the first positions.  `used` is
        rebuilt: a search abandoned at its first hit leaves the images of
        its deeper positions in it."""
        self.used.clear()
        for (j, s), k in zip(prefix, self.order):
            self.assign_j[k], self.assign_s[k] = j, s
            self.used.add(j)

    def choices(self, pos: int) -> Iterator[tuple[int, int]]:
        """The unused images (j, s) of position pos that keep its pairings
        with the positions before it."""
        k = self.order[pos]
        na_i, nb, used = self.na[self.base[k]], self.nb, self.used
        prev = [(na_i[self.base[kp]], self.assign_j[kp], self.assign_s[kp])
                for kp in self.order[:pos]]
        for j in self.cand[k]:
            if j in used:
                continue
            nb_j = nb[j]
            if any(abs(x) != abs(nb_j[jp]) for x, jp, _ in prev):
                continue
            for s in (1, -1):
                if all(x == s * sp * nb_j[jp] for x, jp, sp in prev):
                    yield j, s

    def backtrack(self, pos: int) -> Iterator[tuple[GroupElement, list]]:
        """Every (g, bijection) of `_complete` below the assignment of the
        positions before pos."""
        if pos == self.n:
            sb, assign_j, assign_s = self.sb, self.assign_j, self.assign_s
            images = [[assign_s[k] * y for y in sb[assign_j[k]]] for k in range(pos)]
            hit = _complete(images, self.adj_a, self.adj_sa, self.det_a, self.b_index)
            if hit is not None:
                yield hit
            return
        k = self.order[pos]
        for j, s in self.choices(pos):
            self.assign_j[k] = j
            self.assign_s[k] = s
            self.used.add(j)
            yield from self.backtrack(pos + 1)
            self.used.discard(j)
        self.assign_j[k] = -1


def _search(vs_a: Sequence[IntVector], vs_b: Sequence[IntVector], n: int) -> Optional[_Search]:
    """The search from vs_a to vs_b, or None when their invariants differ."""
    if len(vs_a) != len(vs_b):
        return None
    sa, sb = tuple(sorted(vs_a)), tuple(sorted(vs_b))
    na, rka, gka = _pair_data(sa, n)
    nb, rkb, gkb = _pair_data(sb, n)
    if gka != gkb:
        return None
    return _Search(sa, sb, n, na, rka, nb, rkb)


def vector_set_maps(
    vs_a: Sequence[IntVector],
    vs_b: Sequence[IntVector],
    n: int,
) -> Iterator[tuple[GroupElement, int]]:
    """All (g, s) with g in SL_n(Z) and g {±vs_a} = {±vs_b}; g as matrix rows.

    Both inputs must be lists of distinct primitive vectors of equal length
    spanning Q^n, those of vs_b as `primitive_normalize` leaves them.  The
    sign s is the parity of the bijection i -> j with g a_i = ±b_j between
    the sorted lists a and b; for canonical inputs it is the s of
    g.[a] = s.[b] (see `equivalences`).
    """
    search = _search(vs_a, vs_b, n)
    if search is None:
        return
    for g, bijection in search.backtrack(0):
        yield g, _perm_sign([j for j, _ in bijection])


def _complete(images, adj_a, adj_sa, det_a, b_index):
    """(g, bijection) for a leaf with base images B (rows of `images`), or
    None; the bijection lists (j, t) with g a_i = t b_j for each a_i.  Tests
    det B = det A (det g = det B / det A), then that each g a_i is integral
    and hits a new b_j, then that g is integral."""
    if int_det(images) != det_a:  # images as rows: det B^t = det B
        return None
    brows = list(zip(*images))
    bijection = []
    seen = set()
    for u in adj_sa:
        w = []
        for row in brows:
            x, rem = divmod(sum(map(mul, row, u)), det_a)
            if rem:
                return None
            w.append(x)
        # w != 0: det B = det A != 0 makes g invertible
        t = 1 if next(x for x in w if x) > 0 else -1
        j = b_index.get(tuple(w) if t > 0 else tuple(-x for x in w))
        if j is None or j in seen:
            return None
        seen.add(j)
        bijection.append((j, t))
    g_rows = []
    for row in brows:
        g_row = []
        for col in zip(*adj_a):
            x, rem = divmod(sum(map(mul, row, col)), det_a)
            if rem:
                return None
            g_row.append(x)
        g_rows.append(tuple(g_row))
    return tuple(g_rows), bijection


# ---------------------------------------------------------------------------
# automorphism groups as stabilizer chains
#
# Aut(a) = {g in SL_n(Z) : g {±a} = {±a}} acts on the signed vectors
# (j, t) ~ t a_j.  Let beta_L be base vector L of the search, as (j, +1), and
# G_L the subgroup fixing beta_0, ..., beta_{L-1}.  G_n is trivial, since g
# is fixed by the images of a basis, so |Aut(a)| is the product of the
# orbit lengths |G_L beta_L|, and every element is one product
# u_0 u_1 ... u_{n-1} of transversal elements, u_L beta_L running over that
# orbit (Sims; Plesken and Souvignier, "Computing isometries of lattices",
# J. Symbolic Comput. 24 (1997)).  Levels are filled from the deepest up:
# the generators already found fix beta_0..beta_{L-1}, and each candidate
# image of beta_L outside their orbit costs one first-hit search.


@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(a) as a stabilizer chain: generators, and per level L one u in
    G_L for each point u beta_L of the orbit G_L beta_L."""

    generators: tuple[tuple[GroupElement, int], ...]  # (g, sign of g.a = s.a)
    transversals: tuple[tuple[GroupElement, ...], ...]  # level L: G_L beta_L

    @property
    def order(self) -> int:
        return prod(map(len, self.transversals))

    def elements(self) -> list[GroupElement]:
        """Every element, sorted."""
        out = list(self.transversals[-1])
        for level in reversed(self.transversals[:-1]):
            out = [mat_mul_int(u, h) for u in level for h in out]
        return sorted(out)


def automorphism_group(vectors: Sequence[IntVector], n: int) -> AutomorphismGroup:
    """The g in SL_n(Z) with g {±vectors} = {±vectors}, as a stabilizer
    chain over the base of `vector_set_maps`' search.

    The vectors must be distinct, primitive as `primitive_normalize` leaves
    them, and span Q^n.
    """
    search = _search(vectors, vectors, n)
    beta = [(search.base[k], 1) for k in search.order]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens: list[tuple[GroupElement, list]] = []
    transversals: list = [()] * n
    for level in reversed(range(n)):
        search.fix(beta[:level])
        orbit = {beta[level]: ident}  # point -> u with u beta_level = point
        for point in list(search.choices(level)):
            if point in orbit:
                continue
            search.fix(beta[:level] + [point])
            hit = next(search.backtrack(level + 1), None)
            if hit is not None:
                gens.append(hit)
                _close_orbit(orbit, gens)
        transversals[level] = tuple(orbit.values())
    return AutomorphismGroup(
        tuple((g, _perm_sign([j for j, _ in bijection])) for g, bijection in gens),
        tuple(transversals),
    )


def _close_orbit(orbit: dict, gens) -> None:
    """Close a transversal {point: u with u beta = point} under the
    generators (g, bijection): g takes point (j, t) to (j', t t') when
    g a_j = t' a_j', reached by g u."""
    queue = list(orbit)
    for j, t in queue:
        u = orbit[j, t]
        for g, bijection in gens:
            jg, tg = bijection[j]
            point = (jg, t * tg)
            if point not in orbit:
                orbit[point] = mat_mul_int(g, u)
                queue.append(point)


def act(g: GroupElement, basic: BasicSharbly):
    """g . basic, canonicalized: ZERO or (sign, BasicSharbly).  The
    certificate checker's independent re-derivation of a witness's action."""
    return canonicalize([mat_vec_int(g, v) for v in basic.vectors], basic.n)


def equivalences(
    a: BasicSharbly, b: BasicSharbly, want_sign: Optional[int] = None
) -> Iterator[tuple[GroupElement, int]]:
    """All (g, s) with g.a = s.b in the sharbly module, in search order.

    a and b must be canonical (vectors sorted, as `canonicalize` and the
    orbit dictionary give them): s is then the parity of the bijection
    from a's vectors to b's that `vector_set_maps` reports.
    """
    if a.n != b.n or len(a.vectors) != len(b.vectors):
        return
    for g, sign in vector_set_maps(a.vectors, b.vectors, a.n):
        if want_sign is None or sign == want_sign:
            yield g, sign


def equivalent(a: BasicSharbly, b: BasicSharbly) -> Optional[tuple[GroupElement, int]]:
    """Some g in SL_n(Z) and sign s with g.a = s.b, if one exists."""
    for hit in equivalences(a, b):
        return hit
    return None


def self_negation_witness(a: BasicSharbly) -> Optional[GroupElement]:
    """The first g of the search with g.a = -a, or None.

    The sign s of g.a = s.a is a homomorphism Aut(a) -> ±1, so no such g
    exists when every generator of Aut(a) has s = +1.
    """
    if all(s == 1 for _, s in automorphism_group(a.vectors, a.n).generators):
        return None
    return next(g for g, _ in equivalences(a, a, want_sign=-1))


# ---------------------------------------------------------------------------
# coinvariants


@dataclass(frozen=True)
class OrbitClass:
    class_id: int
    rep: BasicSharbly
    is_zero: bool
    witness: Optional[GroupElement]  # g with g.rep = -rep when is_zero


@dataclass
class OrbitDictionary:
    """Orbit representatives keyed by invariant fingerprints."""

    classes: list[OrbitClass] = field(default_factory=list)
    by_key: dict = field(default_factory=dict)
    # per-basic cache of (class_id, sign, witness g mapping basic -> rep)
    _memo: dict = field(default_factory=dict, repr=False)

    def canonical_with_witness(
        self, a: BasicSharbly
    ) -> tuple[OrbitClass, int, GroupElement]:
        """(class, sign, g) with g.a = sign * class.rep."""
        hit = self._memo.get(a)
        if hit is not None:
            cid, sign, g = hit
            return self.classes[cid], sign, g
        key = invariant_key(a.vectors, a.n)
        for idx in self.by_key.get(key, ()):  # full check on collisions
            rep = self.classes[idx].rep
            found = equivalent(a, rep)
            if found is not None:
                g, sign = found
                self._memo[a] = (idx, sign, g)
                return self.classes[idx], sign, g
        witness = self_negation_witness(a)
        cls = OrbitClass(len(self.classes), a, witness is not None, witness)
        self.classes.append(cls)
        self.by_key.setdefault(key, []).append(cls.class_id)
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(a.n)) for i in range(a.n)
        )
        self._memo[a] = (cls.class_id, 1, ident)
        return cls, 1, ident


def orbit_canonical(a: BasicSharbly, odict: OrbitDictionary) -> tuple[OrbitClass, int]:
    cls, sign, _ = odict.canonical_with_witness(a)
    return cls, sign


def project_coinvariants(
    chain: SharblyChain, odict: OrbitDictionary
) -> dict[OrbitClass, Q]:
    """Image of a chain in the coinvariants: class -> coefficient.

    Self-negating classes and zero sums are dropped.
    """
    sums: dict[int, Q] = {}
    classes: dict[int, OrbitClass] = {}
    for basic, coeff in chain.terms.items():
        cls, sign = orbit_canonical(basic, odict)
        classes[cls.class_id] = cls
        sums[cls.class_id] = sums.get(cls.class_id, Q(0)) + sign * coeff
    out: dict[OrbitClass, Q] = {}
    for cid, total in sums.items():
        cls = classes[cid]
        if cls.is_zero or total == 0:
            continue
        out[cls] = total
    return out


# ---------------------------------------------------------------------------
# oriented top cones


def sharbly_of_cone(
    vectors: Sequence[Sequence], orientation: int = 1
) -> tuple[int, BasicSharbly]:
    """Basic sharbly of a top simplicial cone, signed by orientation.

    The returned pair (sign, basic) satisfies: sign * basic equals the
    symbol whose vector order gives the rank-1 forms positive determinant
    in the upper-triangle coordinates, times the orientation datum.
    """
    res = canonicalize(vectors)
    if res is ZERO:
        raise ValueError("rays are dependent or fail to span")
    _, basic = res
    n = basic.n
    d = n * (n + 1) // 2
    if len(basic.vectors) != d:
        raise ValueError("a top cone needs n(n+1)/2 rays")
    dmat = [rank1_vec(v) for v in basic.vectors]
    dval = int_det(dmat)
    if dval == 0:
        raise ValueError("rays are dependent in the space of forms")
    sign = 1 if dval > 0 else -1
    if orientation not in (1, -1):
        raise ValueError("orientation datum must be +-1")
    return orientation * sign, basic


# ---------------------------------------------------------------------------
# antisymmetrized label tuples (shared with the polytope identities)


def antisym_term(items: Sequence) -> Optional[tuple[int, tuple]]:
    """Canonical (sign, sorted tuple), or None for a repeated item."""
    if len(set(items)) != len(items):
        return None
    order = sorted(range(len(items)), key=items.__getitem__)
    return _perm_sign(order), tuple(items[i] for i in order)


class AntisymSum(_FormalSum):
    """Formal Q-sum of antisymmetrized tuples of point labels.

    The polytope identities are stated on labels (De Loera, Rambau, Santos,
    *Triangulations*, Ch. 4); a configuration's labels name distinct points,
    so an identity between label sums is the same identity between point
    sums.
    """

    __slots__ = ()

    def add(self, items: Sequence, coeff) -> None:
        t = antisym_term(items)
        if t is None:
            return
        sign, key = t
        self._add_term(key, sign * Fraction(coeff))

    def boundary(self) -> "AntisymSum":
        out = AntisymSum()
        for key, coeff in self.terms.items():
            for i in range(len(key)):
                out.add(key[:i] + key[i + 1 :], (-1) ** i * coeff)
        return out
