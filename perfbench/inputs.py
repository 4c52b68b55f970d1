"""Seeded inputs for the benchmark workloads.

Everything here is plain integer arithmetic on the benchmark's side: the
program under test receives only what these functions return.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import random

SL_STEPS = 6  # elementary factors per SL_n(Z) element
MOVED_COPIES = 4  # seeded SL_4(Z) images of the rank-4 cycle per cycles pass


def rng_for(workload: str, seed: int) -> random.Random:
    """One independent stream per (workload, seed)."""
    return random.Random(f"vcdcycle-bench/{workload}/{seed}")


def sl_element(rng: random.Random, n: int, steps: int = SL_STEPS) -> tuple:
    """A product of `steps` elementary matrices E_ij(+-1): integral, det 1."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((-1, 1))
        g[i] = [x + a * y for x, y in zip(g[i], g[j])]
    return tuple(tuple(row) for row in g)


def _apply(g, v) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in g]


def _line_rep(v: list[int]) -> list[int]:
    """Sign-normalize a primitive vector: leading nonzero entry positive."""
    for x in v:
        if x:
            return v if x > 0 else [-y for y in v]
    raise ValueError("zero vector")


def _sorted_with_sign(vectors: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Sort a vector list; the sign is the parity of the sorting permutation."""
    order = sorted(range(len(vectors)), key=lambda i: vectors[i])
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign, [vectors[i] for i in order]


def move_cycle(doc: dict, g) -> dict:
    """The cycle JSON of `cycle build`, moved by g in SL_n(Z).

    A unimodular g maps primitive vectors to primitive vectors, so each
    symbol only needs its vectors sign-normalized and re-sorted; the sort
    parity goes into the provenance sign.  The `classes` block is left out:
    the program recomputes the coinvariant classes from the chain.
    """
    chain = [
        {"vectors": [_apply(g, v) for v in item["vectors"]], "coeff": item["coeff"]}
        for item in doc["chain"]
    ]
    provenance = []
    for p in doc["provenance"]:
        sign, vectors = _sorted_with_sign([_line_rep(_apply(g, v)) for v in p["vectors"]])
        provenance.append(dict(p, sign=p["sign"] * sign, vectors=vectors))
    return {
        "n": doc["n"],
        "chain": chain,
        "stabilizer_orders": doc["stabilizer_orders"],
        "provenance": provenance,
    }


def cycles_inputs(seed: int) -> dict:
    rng = rng_for("cycles", seed)
    return {
        "criterion_7_seed": rng.randrange(2**31),
        "moves": [sl_element(rng, 4) for _ in range(MOVED_COPIES)],
    }
