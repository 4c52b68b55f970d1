import copy
import json
import random

import pytest

from vcdcycle import certs
from vcdcycle import cli
from vcdcycle import cycle as cy
from vcdcycle import data
from vcdcycle import polytope as pt
from vcdcycle import serialize as ser
from vcdcycle import voronoi as vr
from vcdcycle.cosharbly import mu_sign_certificate
from vcdcycle.exactq import int_rank, pairing_row


@pytest.fixture(scope="module")
def z2_cert():
    z = cy.build_zG(2)
    return ser.boundary_certificate(cy.verify_boundary_zero(z), z)


def test_boundary_certificate_checks(z2_cert):
    ok, msg = certs.check_certificate(z2_cert)
    assert ok, msg


def test_certificate_schema_fields(z2_cert):
    assert z2_cert["schema_version"] == 1
    assert z2_cert["kind"] == "boundary"
    assert len(z2_cert["input_hash"]) == 64


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c["payload"]["terms"][0].__setitem__("coeff", "1/5"),
        lambda c: c["payload"]["accounts"][0]["members"][0]["to_rep"][0].__setitem__(0, 9),
        lambda c: c["payload"]["accounts"][0]["members"][1]["self_witness"][1].__setitem__(1, 7),
        lambda c: c["payload"]["accounts"][0]["members"][0].__setitem__("sign", -1),
        lambda c: c["payload"].__setitem__("residual", [{"rep": [[1, 0]], "total": "1"}]),
        lambda c: c.__setitem__("kind", "unknown"),
        lambda c: c.__setitem__("schema_version", 2),
    ],
)
def test_boundary_certificate_tampering(z2_cert, mutate):
    bad = copy.deepcopy(z2_cert)
    mutate(bad)
    ok, _ = certs.check_certificate(bad)
    assert not ok


def test_positivity_certificate_and_tampering():
    z = cy.build_zG(2)
    doc = ser.positivity_certificate(mu_sign_certificate(z), z)
    ok, _ = certs.check_certificate(doc)
    assert ok
    bad = copy.deepcopy(doc)
    bad["payload"]["verdicts"][0]["coeff"] = "-1/6"
    ok, _ = certs.check_certificate(bad)
    assert not ok


def test_cycle_json_roundtrip():
    z = cy.build_zG(3)
    doc = ser.cycle_to_json(z)
    z2 = ser.cycle_from_json(json.loads(json.dumps(doc)))
    assert z2.raw == z.raw
    assert ser.cycle_to_json(z2)["chain"] == doc["chain"]


def test_chain_json_roundtrip():
    from vcdcycle.sharbly import SharblyChain

    c = SharblyChain()
    c.add_symbol([(2, 0), (0, 1)], 3)
    c.add_symbol([(1, 1), (0, 1)], "-2/3")
    doc = ser.chain_to_json(c)
    c2 = ser.chain_from_json(json.loads(json.dumps(doc)))
    assert c2 == c


def test_cli_end_to_end(tmp_path):
    z = tmp_path / "z.json"
    cert = tmp_path / "cert.json"
    mu = tmp_path / "mu.json"
    assert cli.main(["cycle", "build", "--n", "2", "--out", str(z)]) == 0
    assert cli.main(["cycle", "verify", "--in", str(z), "--cert", str(cert)]) == 0
    assert cli.main(["cert", "check", str(cert)]) == 0
    assert cli.main(["cocycle", "certify", "--in", str(z), "--cert", str(mu)]) == 0
    assert cli.main(["cert", "check", str(mu)]) == 0


def test_cli_tamper_detection(tmp_path):
    z = tmp_path / "z.json"
    cert = tmp_path / "cert.json"
    cli.main(["cycle", "build", "--n", "2", "--out", str(z)])
    cli.main(["cycle", "verify", "--in", str(z), "--cert", str(cert)])
    doc = json.loads(cert.read_text())
    doc["payload"]["accounts"][0]["witness"][0][0] += 1
    cert.write_text(json.dumps(doc))
    assert cli.main(["cert", "check", str(cert)]) == 1


def test_cli_forms_and_stabilizer(capsys):
    assert cli.main(["forms", "list", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "A4" in out and "D4" in out
    assert cli.main(["tile", "stabilizer", "--form", "A2"]) == 0
    out = capsys.readouterr().out
    assert "order 6" in out


def test_cli_forms_list_rank_zero_is_an_input_error(capsys):
    # --n 0 names a rank with no data; it is not the same as no --n
    assert cli.main(["forms", "list", "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no built-in data for rank 0" in captured.err


def test_cli_tile_facets_census(capsys, tmp_path):
    cert = tmp_path / "census.json"
    assert cli.main(["tile", "facets", "--form", "A3", "--cert", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "6 facets" in out
    assert cli.main(["cert", "check", str(cert)]) == 0


def test_cli_remark(capsys):
    assert cli.main(["cycle", "remark-an", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "vanishes" in out


def test_cli_sharbly_roundtrip(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"vectors": [[2, 0], [0, 1]], "coeff": "2"}]))
    assert cli.main(["sharbly", "canon", "--in", str(chain)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"vectors": [[0, 1], [1, 0]], "coeff": "-2"}]
    deg1 = tmp_path / "deg1.json"
    deg1.write_text(
        json.dumps([{"vectors": [[1, 0], [0, 1], [1, -1]], "coeff": "1"}])
    )
    assert cli.main(["sharbly", "boundary", "--in", str(deg1)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 3
    # boundary of a degree-0 chain is an input error
    assert cli.main(["sharbly", "boundary", "--in", str(chain)]) == 2


def test_cli_bad_input(tmp_path):
    missing = tmp_path / "nope.json"
    assert cli.main(["cycle", "verify", "--in", str(missing), "--cert", "/dev/null"]) == 2
    assert cli.main(["cycle", "build", "--n", "9"]) == 2


@pytest.mark.parametrize("argv", [
    lambda d: ["cert", "check", d],
    lambda d: ["cycle", "verify", "--in", d],
    lambda d: ["cycle", "build", "--n", "2", "--out", d],
], ids=["cert check", "cycle verify --in", "cycle build --out"])
def test_cli_directory_path_is_an_input_error(tmp_path, capsys, argv):
    """A directory where a file is read or written is bad input (exit 2),
    reported in one line, not a traceback."""
    assert cli.main(argv(str(tmp_path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("facet", ["0,1,99", "0,1,-1", "0,1,1,2"])
def test_cli_triangulate_rejects_bad_facet_labels(capsys, facet):
    assert cli.main(["triangulate", "--form", "A3", "--facet", facet]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        [{"vectors": 5, "coeff": "1"}],
        [{"vectors": [5, 6], "coeff": "1"}],
        [{"vectors": [[1, 0], "01"], "coeff": "1"}],
        [{"vectors": [[1, 0], [0, 1.5]], "coeff": "1"}],
        [{"vectors": [[True, 0], [0, 1]], "coeff": "1"}],
        [{"vectors": [], "coeff": "1"}],
        [5],
        {"vectors": [[1, 0], [0, 1]], "coeff": "1"},
    ],
)
def test_cli_sharbly_canon_rejects_malformed_chain(tmp_path, capsys, doc):
    chain = tmp_path / "bad.json"
    chain.write_text(json.dumps(doc))
    assert cli.main(["sharbly", "canon", "--in", str(chain)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def z2_doc():
    return ser.cycle_to_json(cy.build_zG(2))


@pytest.mark.parametrize(
    "field, value",
    [
        ("simplex", 5),
        ("simplex", [0, "1", 2]),
        ("simplex", [0, -1, 2]),
        ("vectors", 5),
        ("vectors", [[1, 0], [0, 1.5]]),
        ("sign", 2),
        ("sign", "1"),
        ("weight", [1]),
        ("tile", 5),
    ],
)
def test_cli_cycle_verify_rejects_malformed_provenance(tmp_path, capsys, z2_doc, field, value):
    doc = copy.deepcopy(z2_doc)
    doc["provenance"][0][field] = value
    z = tmp_path / "z.json"
    z.write_text(json.dumps(doc))
    assert cli.main(["cycle", "verify", "--in", str(z)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _swap_first_two_vectors(doc):
    vectors = doc["provenance"][0]["vectors"]
    vectors[0], vectors[1] = vectors[1], vectors[0]
    doc["provenance"][0]["sign"] *= -1  # the same symbol, listed out of order


def _cancelling_unsorted_pair(doc):
    """Two non-canonical provenance terms that cancel: the sum still matches."""
    first = copy.deepcopy(doc["provenance"][0])
    first["vectors"].reverse()
    second = dict(first, sign=-first["sign"])
    doc["provenance"] += [first, second]


def _degree_zero(doc):
    doc["chain"] = [{"vectors": [[0, 1], [1, 0]], "coeff": "1"}]
    doc["provenance"] = []


PROVENANCE_NOT_THE_CHAIN = {
    "empty provenance": lambda d: d.__setitem__("provenance", []),
    "degree 0, no provenance": _degree_zero,
    "n 4, 2-vectors": lambda d: d.__setitem__("n", 4),
    "n 1": lambda d: d.__setitem__("n", 1),
    "provenance vector length": lambda d: d["provenance"][0]["vectors"][0].append(0),
    "chain vector length": lambda d: d["chain"][0]["vectors"][0].append(0),
    "vanishing chain term of length 3": lambda d: d["chain"].append(
        {"vectors": [[1, 0, 0], [0, 1, 0]], "coeff": "1"}),
    "unsorted provenance": _swap_first_two_vectors,
    "cancelling unsorted pair": _cancelling_unsorted_pair,
    "non-primitive provenance": lambda d: d["provenance"][0]["vectors"].__setitem__(0, [2, 0]),
    "repeated provenance vector": lambda d: d["provenance"][0]["vectors"].__setitem__(
        1, list(d["provenance"][0]["vectors"][0])),
    "provenance sign": lambda d: d["provenance"][0].__setitem__("sign", -d["provenance"][0]["sign"]),
    "provenance weight": lambda d: d["provenance"][0].__setitem__("weight", "1/7"),
    "chain coefficient": lambda d: d["chain"][0].__setitem__("coeff", "1/7"),
}


@pytest.mark.parametrize("command", [["cycle", "verify"], ["cocycle", "certify"]])
@pytest.mark.parametrize("mutate", PROVENANCE_NOT_THE_CHAIN.values(), ids=PROVENANCE_NOT_THE_CHAIN)
def test_cli_cycle_rejects_provenance_that_is_not_the_chain(
    tmp_path, capsys, z2_doc, command, mutate
):
    doc = copy.deepcopy(z2_doc)
    mutate(doc)
    z = tmp_path / "z.json"
    z.write_text(json.dumps(doc))
    assert cli.main(command + ["--in", str(z), "--cert", str(tmp_path / "c.json")]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "valid" not in out.out
    assert not (tmp_path / "c.json").exists()


def test_cycle_from_json_accepts_reordered_and_moved_provenance():
    """The rank-4 cycle with its provenance reversed, and moved by some g in
    SL_4(Z) (chain vectors as g maps them, provenance re-canonicalized)."""
    from vcdcycle.exactq import int_det, mat_vec_int
    from vcdcycle.sharbly import canonicalize

    doc = ser.cycle_to_json(cy.build_zG(4))
    z = ser.cycle_from_json(doc)
    doc["provenance"].reverse()
    assert ser.cycle_from_json(doc).raw == z.raw
    g = ((1, 1, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 1))
    assert int_det(g) == 1
    for item in doc["chain"]:
        item["vectors"] = [list(mat_vec_int(g, v)) for v in item["vectors"]]
    for p in doc["provenance"]:
        sign, basic = canonicalize([mat_vec_int(g, v) for v in p["vectors"]], 4)
        p["sign"] *= sign
        p["vectors"] = [list(v) for v in basic.vectors]
    moved = ser.cycle_from_json(doc)
    assert len(moved.raw) == len(z.raw)
    assert sorted(abs(c) for c in moved.coin.values()) == sorted(abs(c) for c in z.coin.values())


BAD_RATIONALS = ["1/0", "-3/0", 1.5, True, "0.5", "1/-2", " 1", [1]]


@pytest.mark.parametrize("action", ["canon", "boundary"])
@pytest.mark.parametrize("coeff", BAD_RATIONALS)
def test_cli_sharbly_rejects_bad_coefficient(tmp_path, capsys, action, coeff):
    chain = tmp_path / "bad.json"
    chain.write_text(json.dumps([{"vectors": [[1, 0], [0, 1], [1, -1]], "coeff": coeff}]))
    assert cli.main(["sharbly", action, "--in", str(chain)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["cycle", "verify"], ["cocycle", "certify"]])
@pytest.mark.parametrize("where", ["coeff", "weight"])
@pytest.mark.parametrize("value", BAD_RATIONALS)
def test_cli_cycle_rejects_bad_rational(tmp_path, capsys, z2_doc, command, where, value):
    doc = copy.deepcopy(z2_doc)
    if where == "coeff":
        doc["chain"][0]["coeff"] = value
    else:
        doc["provenance"][0]["weight"] = value
    z = tmp_path / "z.json"
    z.write_text(json.dumps(doc))
    assert cli.main(command + ["--in", str(z)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


MALFORMED_SIMPLICES = [
    5, [5], [[0, 1, 2, 3, 4.0]], [[0, 1, 2, 3, -1]], [[True, 0, 2, 3, 4]], [["0", 1, 2, 3, 4]]
]


@pytest.mark.parametrize("action", ["path", "verify"])
@pytest.mark.parametrize("first", MALFORMED_SIMPLICES)
def test_cli_flip_rejects_malformed_triangulation(tmp_path, capsys, action, first):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"first": first, "second": [[0, 1, 2, 3, 4]]}))
    argv = ["flip", action, "--form", "A3", "--facet", "0,1,2,3,4", "--in", str(pair)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


D5_FACET = ",".join(map(str, data.D5_FACET_F))
_D5_LOCAL = {label: i for i, label in enumerate(sorted(data.D5_FACET_F))}
D5_T1, D5_T2 = (
    [sorted(_D5_LOCAL[x] for x in s) for s in tri]
    for tri in (data.D5_F_TRIANGULATION_1, data.D5_F_TRIANGULATION_2)
)
A3_SIMPLEX = [[0, 1, 2, 3, 4]]

BAD_FLIP_PAIRS = [
    ("D5", D5_FACET, {"first": D5_T1[1:], "second": D5_T1[1:]}),  # T1 less a simplex
    ("D5", D5_FACET, {"first": D5_T1, "second": D5_T2[1:]}),
    ("A3", "0,1,2,3,4", {"first": [[0, 1, 99]], "second": A3_SIMPLEX}),
    ("A3", "0,1,2,3,4", {"first": A3_SIMPLEX, "second": [[0, 1, 2, 3, 99]]}),
    ("A3", "0,1,2,3,4", [1, 2]),
    ("A3", "0,1,2,3,4", {"first": A3_SIMPLEX}),
]


REPEATED_SIMPLEX_PAIRS = [
    ("A3", "0,1,2,3,4", {"first": A3_SIMPLEX * 2, "second": A3_SIMPLEX}),
    ("A3", "0,1,2,3,4", {"first": A3_SIMPLEX, "second": [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]}),
    ("D5", D5_FACET, {"first": D5_T1 + D5_T1[:1], "second": D5_T2}),
]


@pytest.mark.parametrize("action, written", [("path", "--out"), ("verify", "--cert")])
@pytest.mark.parametrize("form, facet, doc", REPEATED_SIMPLEX_PAIRS)
def test_cli_flip_rejects_a_repeated_simplex(tmp_path, capsys, action, written, form, facet, doc):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = ["flip", action, "--form", form, "--facet", facet, "--in", str(pair), written, str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: a triangulation lists a simplex twice\n"
    assert not out.exists()


@pytest.mark.parametrize("action, written", [("path", "--out"), ("verify", "--cert")])
@pytest.mark.parametrize("form, facet, doc", BAD_FLIP_PAIRS)
def test_cli_flip_rejects_invalid_endpoints(tmp_path, capsys, action, written, form, facet, doc):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = ["flip", action, "--form", form, "--facet", facet, "--in", str(pair), written, str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def d5_flip_cert(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flip")
    pair = tmp / "pair.json"
    pair.write_text(json.dumps({"first": D5_T1, "second": D5_T2}))
    path = tmp / "flips.json"
    argv = ["flip", "verify", "--form", "D5", "--facet", D5_FACET, "--in", str(pair),
            "--cert", str(path)]
    assert cli.main(argv) == 0
    return json.loads(path.read_text())


def _negate_a_link(payload):
    link = payload["flips"][0]["links"][0]
    link["e"] = -link["e"]
    for side in ("removed", "inserted"):
        for s in link[side]:
            s["orientation"] = -s["orientation"]


def _flip_one_orientation(payload):
    s = payload["flips"][0]["links"][0]["inserted"][0]
    s["orientation"] = -s["orientation"]


def _repeat_a_point(payload):
    payload["points"][1] = payload["points"][0]


def _swap_two_labels(payload):
    # an odd reordering of every listed simplex, e negated: the identity
    # still holds formally, but each orientation is of the ascending labels
    link = payload["flips"][0]["links"][0]
    link["e"] = -link["e"]
    for side in ("removed", "inserted"):
        for s in link[side]:
            s["labels"][:2] = s["labels"][1::-1]


@pytest.mark.parametrize("mutate, message", [
    (_negate_a_link, "simplex orientation mismatch"),
    (_flip_one_orientation, "simplex orientation mismatch"),
    (_swap_two_labels, "simplex labels not ascending"),
    (_repeat_a_point, "malformed certificate: repeated point in configuration"),
])
def test_cli_cert_check_recomputes_flip_orientations(tmp_path, capsys, d5_flip_cert, mutate, message):
    doc = copy.deepcopy(d5_flip_cert)
    mutate(doc["payload"])
    cert = tmp_path / "flips.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["cert", "check", str(cert)]) == 1
    assert capsys.readouterr().out == message + "\n"


@pytest.fixture(scope="module")
def a3_triangulation_cert(tmp_path_factory):
    path = tmp_path_factory.mktemp("tri") / "tc.json"
    assert cli.main(["triangulate", "--form", "A3", "--facet", "0,1,2,3,4", "--cert", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("simplices", MALFORMED_SIMPLICES)
def test_cli_cert_check_rejects_malformed_simplices(tmp_path, capsys, a3_triangulation_cert, simplices):
    doc = copy.deepcopy(a3_triangulation_cert)
    doc["payload"]["simplices"] = simplices
    cert = tmp_path / "tc.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["cert", "check", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("malformed certificate: ")


@pytest.fixture(scope="module")
def triangulation_certs(tmp_path_factory):
    """The A3 and D5 F triangulation certificates, by form."""
    out = {}
    for form, facet in (("A3", "0,1,2,3,4"), ("D5", D5_FACET)):
        path = tmp_path_factory.mktemp("tri") / "tc.json"
        assert cli.main(["triangulate", "--form", form, "--facet", facet,
                         "--cert", str(path)]) == 0
        out[form] = json.loads(path.read_text())
    return out


def _lower_a_height(payload):
    payload["heights"]["0"] = "-1"


def _drop_a_simplex(payload):
    del payload["simplices"][0]


def _circuit_in_a_simplex(payload):
    # 14 labels of D5 F around the circuit of its flip: no simplex
    payload["simplices"][0] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]


def _height_for_99(payload):
    payload["heights"]["99"] = "0"


def _height_for_minus_1(payload):
    payload["heights"]["-1"] = "0"


def _height_under_an_alias(payload):
    payload["heights"]["01"] = "-5"


def _no_height_for_0(payload):
    del payload["heights"]["0"]


def _repeat_a_simplex(payload):
    payload["simplices"].append(payload["simplices"][0])


def _repeat_a_simplex_reordered(payload):
    payload["simplices"].append(payload["simplices"][0][::-1])


TRIANGULATION_MUTANTS = [
    (_height_for_99, "height key '99' names no point"),
    (_height_for_minus_1, "height key '-1' names no point"),
    (_height_under_an_alias, "height key '01' names no point"),
    (_no_height_for_0, "no height for point 0"),
    (_repeat_a_simplex, "malformed certificate: a triangulation lists a simplex twice"),
    (_repeat_a_simplex_reordered, "malformed certificate: a triangulation lists a simplex twice"),
]


# A3's facet is one simplex, with no lifting inequality to violate and
# nothing left once it is dropped; the circuit mutant is D5's.
@pytest.mark.parametrize("form, mutate, message", [
    *(("A3", m, msg) for m, msg in TRIANGULATION_MUTANTS),
    *(("D5", m, msg) for m, msg in TRIANGULATION_MUTANTS),
    ("A3", _drop_a_simplex, "triangulation has no simplex"),
    ("D5", _drop_a_simplex, "unshared ridge inside the hull"),
    ("D5", _lower_a_height, "height witness violates a lifting inequality"),
    ("D5", _circuit_in_a_simplex, "degenerate simplex"),
])
def test_cli_cert_check_rejects_a_mutated_triangulation(
    tmp_path, capsys, triangulation_certs, form, mutate, message
):
    original = triangulation_certs[form]
    assert certs.check_certificate(original) == (True, "triangulation certificate valid")
    doc = copy.deepcopy(original)
    mutate(doc["payload"])
    assert certs.check_certificate(doc) == (False, message)
    cert = tmp_path / "tc.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["cert", "check", str(cert)]) == 1
    assert capsys.readouterr().out == message + "\n"


def test_the_circuit_mutant_contains_the_flip_circuit(d5_flip_cert):
    circuit = d5_flip_cert["payload"]["flips"][0]["circuit"]
    assert circuit == [0, 1, 5, 6, 9, 10, 12, 13]
    payload = {"simplices": [[]], "heights": {}}
    _circuit_in_a_simplex(payload)
    assert len(payload["simplices"][0]) == 14 and set(circuit) <= set(payload["simplices"][0])


@pytest.fixture(scope="module", params=["A3", "D5"])
def census_cert(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("census") / "census.json"
    assert cli.main(["tile", "facets", "--form", request.param, "--cert", str(path)]) == 0
    return json.loads(path.read_text())


def _recount(payload):
    """Counts that agree with the facets, so that only the mutated facet
    data can fail the check."""
    sizes = {}
    for f in payload["facets"]:
        k = str(len(f["labels"]))
        sizes[k] = sizes.get(k, 0) + 1
    payload["counts"] = {"total": len(payload["facets"]), "by_rays": sizes}


def _negate_a_functional(payload):
    f = payload["facets"][0]
    f["functional"] = [-x for x in f["functional"]]


def _add_a_label(payload):
    labels = payload["facets"][0]["labels"]
    labels.append(min(set(range(len(payload["rays"]))) - set(labels)))
    labels.sort()
    _recount(payload)


def _add_a_label_out_of_range(payload):
    payload["facets"][0]["labels"].append(len(payload["rays"]))
    _recount(payload)


def _repeat_a_label(payload):
    labels = payload["facets"][0]["labels"]
    labels.insert(0, labels[0])
    _recount(payload)


def _drop_a_label(payload):
    del payload["facets"][0]["labels"][0]
    _recount(payload)


def _alter_the_total(payload):
    payload["counts"]["total"] += 1


def _alter_the_sizes(payload):
    sizes = payload["counts"]["by_rays"]
    k = next(iter(sizes))
    sizes[k] -= 1
    sizes[str(int(k) + 1)] = sizes.get(str(int(k) + 1), 0) + 1


def _lengthen_a_functional(payload):
    payload["facets"][0]["functional"].append(0)


def _shorten_a_functional(payload):
    payload["facets"][0]["functional"].pop()


def _lengthen_a_ray(payload):
    payload["rays"][1].append(0)


def _shorten_a_ray(payload):
    payload["rays"][1].pop()


def _sum_of_two_facets(payload):
    # F1 + F2 is nonnegative on every ray and zero exactly on the rays
    # common to both: a face of codimension two, not a facet
    f1, f2 = payload["facets"][:2]
    payload["facets"][0] = {
        "labels": sorted(set(f1["labels"]) & set(f2["labels"])),
        "functional": [x + y for x, y in zip(f1["functional"], f2["functional"])],
    }
    _recount(payload)


def _repeat_a_facet(payload):
    payload["facets"].append(copy.deepcopy(payload["facets"][0]))
    _recount(payload)


def _repeat_a_facet_reversed(payload):
    f = copy.deepcopy(payload["facets"][0])
    f["labels"].reverse()
    payload["facets"].append(f)
    _recount(payload)


def _keep_too_few_rays(payload):
    # d - 1 rays span a hyperplane at most: no tile is that thin
    n = len(payload["rays"][0])
    del payload["rays"][n * (n + 1) // 2 - 1 :]


@pytest.mark.parametrize("mutate, message", [
    (_negate_a_functional, "functional negative on a ray"),
    (_add_a_label, "tight set mismatch"),
    (_add_a_label_out_of_range, "tight set mismatch"),
    (_repeat_a_label, "tight set mismatch"),
    (_drop_a_label, "tight set mismatch"),
    (_alter_the_total, "census counts mismatch"),
    (_alter_the_sizes, "census counts mismatch"),
    (_lengthen_a_functional, "a functional whose length is not {d}"),
    (_shorten_a_functional, "a functional whose length is not {d}"),
    (_lengthen_a_ray, "a ray whose length is not {n}"),
    (_shorten_a_ray, "a ray whose length is not {n}"),
    (_sum_of_two_facets, "facet is not of codimension one"),
    (_repeat_a_facet, "facet listed twice"),
    (_repeat_a_facet_reversed, "facet listed twice"),
    (_keep_too_few_rays, "rays do not span"),
])
def test_cli_cert_check_rejects_a_mutated_census(tmp_path, capsys, census_cert, mutate, message):
    n = len(census_cert["payload"]["rays"][0])
    message = message.format(n=n, d=n * (n + 1) // 2)
    assert certs.check_certificate(census_cert) == (True, "census certificate valid")
    doc = copy.deepcopy(census_cert)
    mutate(doc["payload"])
    assert certs.check_certificate(doc) == (False, message)
    cert = tmp_path / "census.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["cert", "check", str(cert)]) == 1
    assert capsys.readouterr().out == message + "\n"


@pytest.mark.parametrize("form", ["D5", "A4", "D4"])
def test_tight_rank_matches_int_rank(form):
    rows = [pairing_row(v) for v in vr.builtin_tile(form).ray_vectors]
    frame = certs._base_frame(rows, len(rows[0]))
    rng = random.Random(form)
    for _ in range(500):
        tight = sorted(rng.sample(range(len(rows)), rng.randint(0, len(rows))))
        assert certs._tight_rank(frame, tight) == int_rank([rows[i] for i in tight]), tight


def test_cli_budget_exceeded(tmp_path):
    pair = tmp_path / "unused.json"
    del pair
    rc = cli.main(
        [
            "triangulations",
            "enumerate",
            "--form",
            "D5",
            "--facet",
            "0,1,3,4,5,6,7,8,9,11,12,13,14,15,18,19",
            "--budget-nodes",
            "1",
        ]
    )
    assert rc == 3


def test_cli_flip_path_budget_exceeded(tmp_path, capsys):
    # two placing triangulations of a 13-ray section of the D5 tile, two
    # flips apart: the first regular triangulation the search reaches is
    # not the target, and already exceeds a budget of one
    labels = (0, 2, 5, 7, 8, 10, 11, 12, 13, 14, 16, 18, 19)
    config = cy.facet_geometry(vr.builtin_tile("D5"), labels).config
    order = [9, 7, 3, 4, 11, 2, 10, 5, 12, 8, 0, 1, 6]
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "first": ser.triangulation_to_json(pt.placing_triangulation(config)),
        "second": ser.triangulation_to_json(
            pt.placing_triangulation(config, order=order)
        ),
    }))
    argv = ["flip", "path", "--form", "D5", "--facet", ",".join(map(str, labels)), "--in", str(pair)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("flip path of length 2\n")
    assert cli.main(argv + ["--budget-nodes", "1"]) == 3
    assert capsys.readouterr().err == "budget exceeded: flip path budget exceeded\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["flip", "verify", "--form", "A3", "--facet", "0,1,2,3,4", "--in", "pair.json"],
        ["cycle", "verify", "--in", "z.json"],
        ["cocycle", "certify", "--in", "z.json"],
    ],
)
def test_cli_rejects_out_where_nothing_is_written(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["triangulations", "enumerate", "--form", "A3", "--facet", "0,1,2,3,4"],
        ["flip", "path", "--form", "A3", "--facet", "0,1,2,3,4", "--in", "pair.json"],
        ["flip", "verify", "--form", "A3", "--facet", "0,1,2,3,4", "--in", "pair.json"],
        ["repro", "all", "--skip", "1,2,3,4,5,6,7,8"],
    ],
)
@pytest.mark.parametrize("budget", ["-1", "-10000", "x"])
def test_cli_rejects_a_bad_budget_at_parse_time(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--budget-nodes", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --budget-nodes" in captured.err
    assert captured.out == ""


def test_cli_repro_subset(capsys):
    assert cli.main(["repro", "all", "--skip", "3,5,6,7"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 4 and "all criteria pass" in out


@pytest.mark.parametrize("skip, message", [
    ("9", "error: --skip names no criterion 9\n"),
    ("0,3", "error: --skip names no criterion 0\n"),
    ("1,2,3,4,5,6,7,8", "error: --skip leaves no criterion to run\n"),
    ("8,7,6,5,4,3,2,1,1", "error: --skip leaves no criterion to run\n"),
])
def test_cli_repro_rejects_a_bad_skip_list(capsys, skip, message):
    assert cli.main(["repro", "all", "--skip", skip]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_cli_triangulate_and_enumerate(tmp_path):
    facet = "0,1,2,3,4"
    assert (
        cli.main(
            [
                "triangulate",
                "--form",
                "A3",
                "--facet",
                facet,
                "--out",
                str(tmp_path / "t.json"),
                "--cert",
                str(tmp_path / "tc.json"),
            ]
        )
        == 0
    )
    assert cli.main(["cert", "check", str(tmp_path / "tc.json")]) == 0
    assert (
        cli.main(
            ["triangulations", "enumerate", "--form", "A3", "--facet", facet]
        )
        == 0
    )


# ---------------------------------------------------------------------------
# every integer of a payload is read strictly: each probe was once truncated
# or parsed by int() and passed as valid


def _replace_first(rows, old, new):
    """Replace the first entry old of the integer rows with new."""
    r, i = next((r, i) for r in rows for i, x in enumerate(r) if x == old)
    r[i] = new


def _member(payload):
    return payload["accounts"][0]["members"][0]


def _flip_link(payload):
    return payload["flips"][0]["links"][0]


def _stringify(item, key):
    """item[key] as a string, or as a list of strings if it is a list."""
    value = item[key]
    item[key] = [str(x) for x in value] if isinstance(value, list) else str(value)


STRICT_INTEGER_PROBES = {
    "boundary term vector entry 1.25": (
        "boundary", lambda p: _replace_first(p["terms"][0]["vectors"], 1, 1.25)),
    "boundary member id 0.5": ("boundary", lambda p: _member(p).__setitem__("id", 0.5)),
    "boundary string sign": ("boundary", lambda p: _stringify(_member(p), "sign")),
    "boundary to_rep entry 1.9": (
        "boundary", lambda p: _replace_first(_member(p)["to_rep"], 1, 1.9)),
    "positivity string sign": ("positivity", lambda p: _stringify(p["verdicts"][0], "sign")),
    "positivity rep entry 1.5": (
        "positivity", lambda p: _replace_first(p["verdicts"][0]["rep"], 1, 1.5)),
    "census functional entry 0.5": (
        "census", lambda p: _replace_first([p["facets"][0]["functional"]], 0, 0.5)),
    "census string labels": ("census", lambda p: _stringify(p["facets"][0], "labels")),
    "census ray entry 0.5": ("census", lambda p: _replace_first(p["rays"], 0, 0.5)),
    "flip string circuit label": ("flip-identity", lambda p: _stringify(p["flips"][0], "circuit")),
    "flip float e": (
        "flip-identity", lambda p: _flip_link(p).__setitem__("e", 1.0 * _flip_link(p)["e"])),
    "flip string orientation": (
        "flip-identity", lambda p: _stringify(_flip_link(p)["removed"][0], "orientation")),
}


@pytest.fixture(scope="module")
def certs_by_kind(z2_cert, d5_flip_cert):
    z = cy.build_zG(2)
    a3 = ser.census_certificate(vr.builtin_tile("A3"))
    positivity = ser.positivity_certificate(mu_sign_certificate(z), z)
    return {"boundary": z2_cert, "positivity": positivity, "census": a3,
            "flip-identity": d5_flip_cert}


@pytest.mark.parametrize("kind, mutate", STRICT_INTEGER_PROBES.values(), ids=STRICT_INTEGER_PROBES)
def test_cli_cert_check_reads_integers_strictly(tmp_path, capsys, certs_by_kind, kind, mutate):
    original = certs_by_kind[kind]
    assert certs.check_certificate(original)[0]
    doc = copy.deepcopy(original)
    mutate(doc["payload"])
    ok, msg = certs.check_certificate(doc)
    assert not ok and msg.startswith("malformed certificate: "), msg
    cert = tmp_path / "probe.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["cert", "check", str(cert)]) == 1
    assert capsys.readouterr().out == msg + "\n"
