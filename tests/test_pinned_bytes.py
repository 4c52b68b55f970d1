"""Byte-for-byte pins of the rank-4 cycle, its two certificates and the D4
stabilizer.  The digests are those of the outputs before the equivalence
search became one integer pass.  A change to the search, the elimination or
the serialization that alters any output byte fails here, so a new output
needs a deliberate new pin."""

import hashlib

from vcdcycle import cli

PINNED = {
    "z4.json": "9bbc2b3aa55251d731cdc19cb92318796a1636c74726f067fa34177e698e74c0",
    "z4-boundary.json": "7349a60f46de2900a7ed600913479ea97e236207d81eaf6b4228c89619417fcc",
    "z4-positivity.json": "6eae8ccbd1bfb1bf47d8e0b7f6965e2d4b6c0795fd54809651e3903ee421c5e9",
    "stabilizer-D4.json": "75643010660b1c028ee354948bd5c5a08a881b1f5f570304127e7dd281135a06",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_rank4_cycle_certificates_and_d4_stabilizer_are_pinned(tmp_path):
    z = str(tmp_path / "z4.json")
    runs = [
        ["cycle", "build", "--n", "4", "--out", z],
        ["cycle", "verify", "--in", z, "--cert", str(tmp_path / "z4-boundary.json")],
        ["cocycle", "certify", "--in", z, "--cert", str(tmp_path / "z4-positivity.json")],
        ["tile", "stabilizer", "--form", "D4", "--out", str(tmp_path / "stabilizer-D4.json")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    assert {name: _sha256(tmp_path / name) for name in PINNED} == PINNED
