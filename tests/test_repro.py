"""Criterion dispatch of `repro.run_all`, on stub criteria."""

from vcdcycle import repro


def test_run_all_forwards_seed_budget_and_skip(monkeypatch):
    calls = []

    def stub(num):
        return lambda *args: calls.append((num, args)) or {"ok": True}

    monkeypatch.setattr(
        repro, "CRITERIA", {num: (f"stub {num}", stub(num)) for num in range(1, 9)}
    )
    reports = repro.run_all(seed=17, budget=123, skip=(2, 8))
    assert calls == [(1, ()), (3, ()), (4, ()), (5, (123,)), (6, (17,)), (7, (17,))]
    assert [r["criterion"] for r in reports] == [1, 3, 4, 5, 6, 7]
    assert all(r["ok"] and r["name"] == f"stub {r['criterion']}" for r in reports)
