"""Machine-speed gauge.

On a small shared machine the speed of the same pure-Python computation can
drift by a factor of two within a few minutes, as other tenants come and go
on the cores (measured on a 2-core VM, Python 3.11: the median of
`is_untwisted` on a fixed instance went from 5.7 ms to 11.4 ms over two
minutes, while its ratio to the loop below stayed within a few percent).
So the benchmark times a fixed reference loop between its ops and scales
every time it reports to a machine that runs the loop in `REFERENCE_MS`.
The loop is not library code, so a change to the library moves the scaled
figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import signal
import statistics
from time import perf_counter

REFERENCE_MS = 2.0
INTERVAL_S = 0.2
REPEATS = 3


def reference_loop() -> int:
    """Fixed interpreter work of the kind the library does most: a descending
    recursion over sign vectors that scans a dict of pair constants."""
    pairs = {(j, k): (j * k) % 5 - 2 for j in range(1, 13) for k in range(j + 1, 13)}
    acc = 0
    for signs in itertools.product((1, -1), repeat=6):
        m = [0] * 12
        for k in range(12, 0, -1):
            if signs[k % 6] < 0:
                m[k - 1] = k - sum(v * m[s - 1] for (j, s), v in pairs.items() if j == k)
        acc += min(m)
    return acc


class Gauge:
    """Reference-loop timings over a run, as (time, ms) samples.

    Between calls the runner samples every `INTERVAL_S`; inside a call,
    `during` samples on a timer signal, so that a long call is scaled by the
    speed of the machine while it ran.  The time spent sampling inside a
    call is counted in `stolen`, for the runner to subtract.
    """

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []
        self.stolen = 0.0

    def sample(self) -> None:
        runs = []
        for _ in range(REPEATS):
            start = perf_counter()
            reference_loop()
            runs.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.ms.append(statistics.median(runs) * 1000.0)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def during(self):
        def on_timer(signum, frame):
            start = perf_counter()
            self.sample()
            self.stolen += perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a time measured over [start, end] into
        reference-speed time, from the samples taken in that span and the
        ones just before and just after it."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.ms) - 1)
        return REFERENCE_MS / statistics.fmean(self.ms[first : last + 1])
