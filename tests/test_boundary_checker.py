"""The single-pass boundary checker of `certs` against the checker it
replaced, kept here as the oracle.

The oracle parses every term again where it is used and re-derives each
witness's action in full (`act`: canonicalization, span test included) for
every member, self-witness and class witness.  The checker parses each term
once, canonicalizes an account's representative once, and compares the
sorted, primitive-normalized images with it.  Both must give the same
(verdict, message) on every certificate, mutants included.
"""

import copy
import random

import pytest

from vcdcycle import certs
from vcdcycle import cycle as cy
from vcdcycle import serialize as ser
from vcdcycle.exactq import Q, int_det, mat_vec_int, q_parse
from vcdcycle.serialize import _int_vectors, _labels, chain_from_json
from vcdcycle.sharbly import ZERO, BasicSharbly, SharblyChain, boundary, sort_normalized

from test_sharbly import act

# ---------------------------------------------------------------------------
# oracle


def oracle_check_boundary(payload):
    n = certs._int(payload["n"], "n")
    chain = chain_from_json(payload["chain"])
    terms = payload["terms"]
    accumulated = SharblyChain()
    for t in terms:
        accumulated.add(BasicSharbly(n, tuple(_int_vectors(t["vectors"]))), q_parse(t["coeff"]))
    if boundary(chain) != accumulated:
        return False, "terms do not sum to the boundary of the chain"

    by_id = dict(zip(_labels([t["id"] for t in terms], "term ids"), terms))
    if sorted(by_id) != list(range(len(terms))):
        return False, "term ids are not contiguous"
    covered = set()

    for pair in payload["interior_pairs"]:
        a, b = _labels(pair, "an interior pair")
        ta, tb = by_id[a], by_id[b]
        if ta["vectors"] != tb["vectors"]:
            return False, "interior pair on different faces"
        if q_parse(ta["coeff"]) + q_parse(tb["coeff"]) != 0:
            return False, "interior pair does not cancel"
        if a in covered or b in covered:
            return False, "term accounted twice"
        covered.update((a, b))

    for account in payload["accounts"]:
        rep = BasicSharbly(n, tuple(_int_vectors(account["rep"])))
        kind = account["kind"]
        if kind == "self-negating":
            if not _oracle_negates(_int_vectors(account["witness"]), rep):
                return False, "class witness does not negate the representative"
        total = Q(0)
        for member in account["members"]:
            tid = certs._int(member["id"], "a member id")
            if tid in covered:
                return False, "term accounted twice"
            covered.add(tid)
            t = by_id[tid]
            basic = BasicSharbly(n, tuple(_int_vectors(t["vectors"])))
            g = _int_vectors(member["to_rep"])
            sign = certs._int(member["sign"], "a member sign")
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
                if not _oracle_negates(_int_vectors(member["self_witness"]), basic):
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


def _oracle_negates(g, basic):
    if int_det(g) != 1:
        return False
    res = act(g, basic)
    return res is not ZERO and res == (-1, basic)


def oracle_check(cert):
    """`check_certificate` with the oracle in place of `_check_boundary`."""
    try:
        return oracle_check_boundary(cert["payload"])
    except Exception as exc:
        return False, f"malformed certificate: {exc}"


# ---------------------------------------------------------------------------
# certificates


def _sl_element(rng, n, steps=6):
    """A product of elementary matrices E_ij(+-1): integral, det 1."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((-1, 1))
        g[i] = [x + a * y for x, y in zip(g[i], g[j])]
    return g


def _moved(doc, g):
    """The cycle JSON moved by g in SL_n(Z): each provenance symbol is
    re-normalized and re-sorted, the sort parity going into its sign."""
    chain = [
        {"vectors": [list(mat_vec_int(g, v)) for v in item["vectors"]], "coeff": item["coeff"]}
        for item in doc["chain"]
    ]
    provenance = []
    for p in doc["provenance"]:
        sign, vectors = sort_normalized([mat_vec_int(g, v) for v in p["vectors"]], doc["n"])
        provenance.append(dict(p, sign=p["sign"] * sign, vectors=[list(v) for v in vectors]))
    return dict(doc, chain=chain, provenance=provenance)


def _certificate(z):
    return ser.boundary_certificate(cy.verify_boundary_zero(z), z)


@pytest.fixture(scope="module")
def named_certs():
    out = {f"z{n}": _certificate(cy.build_zG(n)) for n in (2, 3, 4)}
    doc = ser.cycle_to_json(cy.build_zG(4))
    rng = random.Random("boundary-checker/moves")
    for k in range(4):
        out[f"z4 moved {k}"] = _certificate(ser.cycle_from_json(_moved(doc, _sl_element(rng, 4))))
    return out


def test_the_moved_cycles_give_new_ledgers(named_certs):
    reps = {name: [a["rep"] for a in c["payload"]["accounts"]] for name, c in named_certs.items()}
    assert len({str(r) for name, r in reps.items() if name.startswith("z4")}) > 1


@pytest.mark.parametrize("name", ["z2", "z3", "z4"] + [f"z4 moved {k}" for k in range(4)])
def test_the_checker_agrees_on_every_ledger(named_certs, name):
    cert = named_certs[name]
    assert certs.check_certificate(cert) == oracle_check(cert) == (True, "boundary certificate valid")


# ---------------------------------------------------------------------------
# mutants, each on the z4 ledger's zero-sum (0) or self-negating (1) account


def _account(p, k):
    return p["accounts"][k]


def _member(p, k, i=0):
    return p["accounts"][k]["members"][i]


def _reverse_rep(k):
    return lambda p: _account(p, k)["rep"].reverse()


def _double_a_rep_vector(k):
    return lambda p: _account(p, k)["rep"].__setitem__(0, [2 * x for x in _account(p, k)["rep"][0]])


def _thin_rep(k):
    """A sorted, normalized rep of distinct vectors spanning only x_4 = 0."""
    return lambda p: _account(p, k).__setitem__(
        "rep", [[0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 1, 0]][
            : len(_account(p, k)["rep"])])


def _square(size):
    return [[int(i == j) for j in range(size)] for i in range(size)]


def _det_minus_one(p):
    g = _member(p, 0)["to_rep"]
    g[0] = [-x for x in g[0]]


def _alter_entry(matrix):
    matrix[1][1] += 7


def _term_of(p, k, i=0):
    tid = _member(p, k, i)["id"]
    return next(t for t in p["terms"] if t["id"] == tid)


def _empty_extra_account(rep_of):
    def mutate(p):
        rep = [list(v) for v in _account(p, rep_of)["rep"]]
        rep.reverse()
        p["accounts"].append({"kind": "zero-sum", "rep": rep, "witness": None, "members": []})
    return mutate


MUTANTS = {
    "rep reversed, zero-sum": _reverse_rep(0),
    "rep reversed, self-negating": _reverse_rep(1),
    "rep vector doubled, zero-sum": _double_a_rep_vector(0),
    "rep vector doubled, self-negating": _double_a_rep_vector(1),
    "rep does not span, zero-sum": _thin_rep(0),
    "rep does not span, self-negating": _thin_rep(1),
    "rep with a zero vector": lambda p: _account(p, 0)["rep"].__setitem__(0, [0, 0, 0, 0]),
    "rep vector of length 5": lambda p: _account(p, 0)["rep"][0].append(0),
    "3 x 3 to_rep": lambda p: _member(p, 0).__setitem__("to_rep", _square(3)),
    "5 x 5 to_rep": lambda p: _member(p, 0).__setitem__("to_rep", _square(5)),
    "3 x 3 class witness": lambda p: _account(p, 1).__setitem__("witness", _square(3)),
    "to_rep with det -1": _det_minus_one,
    "to_rep of another member":
        lambda p: _member(p, 0).__setitem__("to_rep", _member(p, 0, 1)["to_rep"]),
    "to_rep entry altered": lambda p: _alter_entry(_member(p, 0)["to_rep"]),
    "member sign flipped": lambda p: _member(p, 0).__setitem__("sign", -_member(p, 0)["sign"]),
    "self-negating member sign flipped":
        lambda p: _member(p, 1).__setitem__("sign", -_member(p, 1)["sign"]),
    "self witness altered": lambda p: _alter_entry(_member(p, 1)["self_witness"]),
    "self witness is the identity": lambda p: _member(p, 1).__setitem__("self_witness", _square(4)),
    "class witness altered": lambda p: _alter_entry(_account(p, 1)["witness"]),
    "class witness is the identity": lambda p: _account(p, 1).__setitem__("witness", _square(4)),
    "term coefficient changed": lambda p: _term_of(p, 0).__setitem__("coeff", "1/5"),
    "member contribution changed": lambda p: _member(p, 0).__setitem__("contribution", "1/5"),
    "term vectors reversed": lambda p: _term_of(p, 0)["vectors"].reverse(),
    "zero-sum account without members": lambda p: _account(p, 0).__setitem__("members", []),
    "self-negating account without members": lambda p: _account(p, 1).__setitem__("members", []),
    "extra empty account with a reversed rep": _empty_extra_account(0),
    "self-negating account without members, rep reversed":
        lambda p: (_reverse_rep(1)(p), _account(p, 1).__setitem__("members", [])),
    "missing member id": lambda p: _member(p, 0).__setitem__("id", 10**6),
    "member accounted twice": lambda p: _account(p, 0)["members"].append(_member(p, 0)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_checker_agrees_on_the_mutants(named_certs, mutant):
    bad = copy.deepcopy(named_certs["z4"])
    MUTANTS[mutant](bad["payload"])
    expected = oracle_check(bad)
    assert certs.check_certificate(bad) == expected
    if mutant == "extra empty account with a reversed rep":
        assert expected == (True, "boundary certificate valid")  # rep never used
    else:
        assert not expected[0]


def test_the_reversed_rep_is_caught_at_the_first_member(named_certs):
    bad = copy.deepcopy(named_certs["z4"])
    _reverse_rep(0)(bad["payload"])
    assert certs.check_certificate(bad) == (
        False, "witness does not map the term to the representative")


def test_a_witness_that_is_not_n_by_n_is_malformed(named_certs):
    for size in (3, 5):
        bad = copy.deepcopy(named_certs["z4"])
        _member(bad["payload"], 0)["to_rep"] = _square(size)
        assert certs.check_certificate(bad) == (
            False, "malformed certificate: vectors of mixed dimension")


def test_each_account_canonicalizes_its_rep_once(named_certs, monkeypatch):
    calls = []
    canonicalize = certs.canonicalize

    def counting(vectors, n=None):
        calls.append(tuple(map(tuple, vectors)))
        return canonicalize(vectors, n)

    monkeypatch.setattr(certs, "canonicalize", counting)
    cert = named_certs["z4"]
    assert certs.check_certificate(cert)[0]
    assert calls == [tuple(map(tuple, a["rep"])) for a in cert["payload"]["accounts"]]
