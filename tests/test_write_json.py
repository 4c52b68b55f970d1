"""`cli._write_json` writes exactly the bytes of
`json.dump(doc, fh, indent=1, sort_keys=True)` plus a newline: on drawn
documents, on the edge cases of its integer-list shortcut, and on every file
a CLI command writes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdcycle import cli


def _stdlib_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


_awkward_text = st.text(
    st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€ 😀ab') | st.characters(),
    max_size=12,
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | _awkward_text
)
_documents = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=6)
        | st.dictionaries(_awkward_text, children, max_size=5)
    ),
    max_leaves=30,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("doc") / "doc.json"


@settings(max_examples=100, deadline=None)
@given(doc=_documents)
def test_write_json_matches_the_stdlib(doc_path, doc):
    cli._write_json(doc_path, doc)
    assert doc_path.read_bytes() == _stdlib_bytes(doc)


@pytest.mark.parametrize("doc", [
    [], {}, (), "", 0, None, True,
    [[], {}, ()],
    {"a": [], "b": {}, "c": [[]]},
    [True, 1],  # a bool among ints is not an integer list
    [1, True],
    [0, -1, 2**80, -(2**80)],
    (3, 1, 2),
    {"z": 1, "a": [1, 2], "M": {"é": "\"\\\u0001"}},
])
def test_write_json_edge_cases(tmp_path, doc):
    path = tmp_path / "doc.json"
    cli._write_json(path, doc)
    assert path.read_bytes() == _stdlib_bytes(doc)


@pytest.mark.parametrize("doc", [
    {1: 2},
    {None: 1},
    {"a": [{"b": 1, 2: 3}]},
    {("k",): 1},
])
def test_write_json_rejects_keys_that_are_not_str(tmp_path, doc):
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "doc.json", doc)


def test_every_file_the_cli_writes_matches_the_stdlib(tmp_path):
    t = tmp_path

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    run("forms", "list", "--n", "4", "--out", t / "forms.json")
    run("tile", "facets", "--form", "D4", "--cert", t / "census.json", "--out", t / "facets.json")
    run("tile", "stabilizer", "--form", "A3", "--out", t / "stabilizer.json")
    run("triangulate", "--form", "D4", "--out", t / "tri.json", "--cert", t / "tri-cert.json")
    run("triangulations", "enumerate", "--form", "D4", "--out", t / "enum.json")
    tris = json.loads((t / "enum.json").read_text())
    (t / "pair.json").write_text(json.dumps({"first": tris[0], "second": tris[-1]}))
    run("flip", "path", "--form", "D4", "--in", t / "pair.json", "--out", t / "path.json")
    run("flip", "verify", "--form", "D4", "--in", t / "pair.json", "--cert", t / "flips.json")
    run("cycle", "build", "--n", "3", "--out", t / "z3.json")
    run("cycle", "verify", "--in", t / "z3.json", "--cert", t / "b3.json")
    run("cocycle", "certify", "--in", t / "z3.json", "--cert", t / "p3.json")
    run("cycle", "remark-an", "--n", "4", "--out", t / "an4.json")
    (t / "chain.json").write_text(json.dumps(json.loads((t / "z3.json").read_text())["chain"]))
    run("sharbly", "canon", "--in", t / "chain.json", "--out", t / "canon.json")
    run("sharbly", "boundary", "--in", t / "chain.json", "--out", t / "dchain.json")

    written = sorted(p for p in t.iterdir() if p.name not in {"pair.json", "chain.json"})
    assert len(written) == 15
    for path in written:
        assert path.read_bytes() == _stdlib_bytes(json.loads(path.read_text())), path.name
    assert json.loads((t / "path.json").read_text())  # the pair is at least one flip apart
