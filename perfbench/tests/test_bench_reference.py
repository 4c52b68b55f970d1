"""The reference loop that normalizes the timings."""

import time

import reference


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_gauge_samples_while_on_and_stops_after():
    with reference.Gauge() as gauge:
        _busy(10 * reference.INTERVAL_S)
    taken = len(gauge.samples)
    assert taken >= 5 and min(gauge.samples) > 0
    _busy(3 * reference.INTERVAL_S)
    assert len(gauge.samples) == taken
