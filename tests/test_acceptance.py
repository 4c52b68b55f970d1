"""Acceptance checklist: every criterion at its stated budget.

Each test runs one criterion end to end through the shared drivers and
prints a one-line pass/fail verdict (visible with `pytest -s`).
"""

import pytest

from vcdcycle import repro

_BUDGETS = {1: 1.0, 2: 30.0, 3: 1800.0, 4: 300.0, 5: 3600.0, 6: 300.0, 7: 300.0,
            8: 600.0}
_reports: dict[int, dict] = {}


def _run(num: int) -> dict:
    if num not in _reports:
        name = repro.CRITERIA[num][0]
        report = repro._timed(lambda: repro.run_criterion(num))
        _reports[num] = report
        status = "pass" if report.get("ok") else "FAIL"
        print(f"criterion {num} ({name}): {status} in {report['seconds']}s")
    return _reports[num]


def _assert_criterion(num: int, report: dict):
    assert report.get("ok"), report
    assert report["seconds"] < _BUDGETS[num], (num, report["seconds"])


def test_criterion_1_rank2_closed_form():
    r = _run(1)
    assert r["closed_form"] and r["certificate_valid"]
    assert r["witness_conjugators_found"]
    assert r["stabilizer_order"] == 6
    _assert_criterion(1, r)


def test_criterion_2_rank3_closed_form():
    r = _run(2)
    assert r["stabilizer_order"] == 24
    assert r["closed_form"] and r["certificate_valid"]
    assert r["boundary_terms_witnessed"] == 6
    _assert_criterion(2, r)


def test_criterion_3_rank4_pipeline():
    r = _run(3)
    assert r["tile_orbits"] == 2
    assert r["d4_rays"] == 12
    assert r["triangulation_valid"]
    assert r["terms"] == 17
    assert r["certificate_valid"]
    _assert_criterion(3, r)


def test_criterion_4_bare_tile_contrast():
    r = _run(4)
    assert r["rank4_classes"] == 1
    assert abs(r["rank4_coefficient"]) == 10
    assert r["rank2_zero"] and r["rank3_zero"]
    _assert_criterion(4, r)


def test_criterion_5_rank5_data():
    r = _run(5)
    assert r["minimal_vectors_reproduced"]
    assert r["census"] == {"total": 400, "by_rays": {14: 320, 16: 80}}
    assert r["facet_listed"]
    assert r["triangulations_valid"] and r["triangulations_regular"]
    assert r["regular_triangulations"] == 3
    assert r["flip_path_length"] == 1
    assert r["circuit"] == [0, 1, 5, 6, 9, 10, 12, 13]
    assert r["published_sides_match"]
    assert r["identity_valid"]
    _assert_criterion(5, r)


def test_criterion_6_gluing_properties():
    r = _run(6)
    assert r["sign_lemma"] and r["circuits_checked"] >= 12
    assert r["pyramid_identity"]
    assert r["boundary_squared_zero"]
    assert r["telescoping"] and r["paths_telescoped"] >= 4
    _assert_criterion(6, r)


def test_criterion_7_degeneracy_and_positivity():
    r = _run(7)
    assert r["symbols_tested"] >= 2000
    assert r["oracles_agree"]
    assert r["constructed_flipon"]
    assert r["positivity"] == {2: True, 3: True, 4: True}
    _assert_criterion(7, r)


@pytest.mark.parametrize("seed, flipons", [(0, 34), (1, 49), (2, 38)])
def test_criterion_7_finds_the_pinned_flipons(seed, flipons):
    # the flipon test and both oracles agreeing is not enough: all three
    # could be wrong the same way, so pin how many flipons each seed holds
    r = repro.criterion_7(seed)
    assert r["symbols_tested"] == 2000
    assert r["flipons_seen"] == flipons
    assert r["oracles_agree"] and r["ok"]


def test_criterion_8_dataset_integrity():
    r = _run(8)
    assert set(r["forms"]) == {"A2", "A3", "A4", "D4", "A5", "A5+3", "D5"}
    assert all(r["forms"].values())
    _assert_criterion(8, r)
