"""Byte-for-byte pins of the rank-4 cycle, its two certificates and the D4
stabilizer, of the D5 facet F triangulation and flip-identity outputs, of
the D4 tile triangulation with its heights, and of the D5 facet census.
The rank-4 digests are those of the outputs before the equivalence search
became one integer pass; the D5 facet F ones those before the flip
identities were keyed on point labels; the D4 tile ones those before the
simplex lost its objective and phase 2; the census ones those before the
certificate builders moved into `serialize`.  A change to the search, the
elimination or the serialization that alters any output byte fails here,
so a new output needs a deliberate new pin."""

import hashlib
import json

from vcdcycle import cli, data

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


D5_PINNED = {
    "triangulation-cert.json": "d2cd970494c4a0c08232661ef26eda2a67b20d90042868c2117fd2dc490ff794",
    "triangulation.json": "2b7c737b0ac3dc665cbc6ba3ee4e7ad0f1971c1279099b79c59a1b1ad37d18e0",
    "flips.json": "0248d3941e0300dbd79736895a72d49097f05d3376ba3dd33d2c5dd332bd65c3",
}


def test_d5_facet_triangulation_and_flip_certificates_are_pinned(tmp_path):
    facet = ",".join(map(str, data.D5_FACET_F))
    local = {label: i for i, label in enumerate(sorted(data.D5_FACET_F))}
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        key: [sorted(local[x] for x in s) for s in tri]
        for key, tri in (("first", data.D5_F_TRIANGULATION_1),
                         ("second", data.D5_F_TRIANGULATION_2))
    }))
    runs = [
        ["triangulate", "--form", "D5", "--facet", facet,
         "--out", str(tmp_path / "triangulation.json"),
         "--cert", str(tmp_path / "triangulation-cert.json")],
        ["flip", "verify", "--form", "D5", "--facet", facet, "--in", str(pair),
         "--cert", str(tmp_path / "flips.json")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    assert {name: _sha256(tmp_path / name) for name in D5_PINNED} == D5_PINNED


D4_PINNED = {
    "triangulation-cert.json": "c9f31fabd35041e728a7814e46b76c00fcab978be6c907bc65a9e2799f4de82b",
    "triangulation.json": "6d7814fd80c9746e5d5638eadfb38afab640478e720a93bea4c120fbafe12696",
}


def test_d4_tile_triangulation_and_heights_are_pinned(tmp_path):
    """The whole D4 tile: 16 simplices whose heights solve a primal lifting
    LP of 32 rows, the one heights LP besides D5 F's."""
    argv = ["triangulate", "--form", "D4",
            "--out", str(tmp_path / "triangulation.json"),
            "--cert", str(tmp_path / "triangulation-cert.json")]
    assert cli.main(argv) == 0
    doc = json.loads((tmp_path / "triangulation.json").read_text())
    assert len(doc["simplices"]) == 16
    assert {name: _sha256(tmp_path / name) for name in D4_PINNED} == D4_PINNED


CENSUS_PINNED = {
    "census-cert.json": "4ed992cb65007a7bb6883af2bae5ea28a5bba50f6a7cd5b99b9238de2bb01a2d",
    "census.json": "c749a2523e9d1c27dad2c87d1a8bd27188e7c100d3cf7f5d679e215b03018e84",
}


def test_d5_census_certificate_and_output_are_pinned(tmp_path):
    argv = ["tile", "facets", "--form", "D5", "--out", str(tmp_path / "census.json"),
            "--cert", str(tmp_path / "census-cert.json")]
    assert cli.main(argv) == 0
    assert {name: _sha256(tmp_path / name) for name in CENSUS_PINNED} == CENSUS_PINNED
