"""A fixed pure-Python loop that gauges the machine's speed during a pass.

Other tenants of a shared host slow every process on it by up to 2x, for
under a second to minutes at a time.  While a `Gauge` is on, a timer signal
runs the loop every INTERVAL_S, in between the program's own bytecodes, so
the loop samples the machine's speed over exactly the time the steps run.
A step's time divided by the mean time of the loops run inside it cancels
most of that slowdown.  Each loop's time is kept in `samples`, for the steps
to subtract.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05  # one loop of about 2 ms per interval: about 4% of a pass


def loop() -> float:
    """Seconds for one fixed run of arithmetic like the program's: fractions,
    integers, tuples and dictionaries."""
    t0 = time.perf_counter()
    total = Fraction(0)
    seen: dict[tuple, int] = {}
    for i in range(1, 400):
        total += Fraction(i % 97 - 48, i % 89 + 1)
        key = (i % 53, i % 7)
        seen[key] = seen.get(key, 0) + i * i
    return time.perf_counter() - t0


class Gauge:
    """`with Gauge() as g:` runs `loop()` from SIGALRM every INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(loop())

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
