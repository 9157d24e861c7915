"""Host speed probe: report times at a nominal host speed.

The cores this benchmark runs on are shared with other tenants.  Their load
moved the same workload's speed by +-15% in phases of 10-20 s, so a 25 s
run's throughput spread by 17-23% between seeds: more than a change worth
detecting.  A fixed computation that does not touch ``hkl`` (``probe``) is
therefore timed every ``PROBE_EVERY_S`` seconds through each run.  Over
6 s windows its speed and the census workload's speed correlated at 0.94
on a 2-core x86 host, while single 0.3 s samples correlated at only 0.4, so
each time is scaled by the probe times around it, not by one sample:

    reported = measured * NOMINAL_PROBE_S / median(probe times within
                                                   PROBE_WINDOW_S of it)

Set-up is too short to carry probes of its own; each set-up process times
the probe right after it and scales by that median.

A change to ``hkl`` moves the measured times and not the probe, so it shows
in full; the raw wall-clock figures are printed in the run notes.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from numpy.polynomial import polynomial as npp

NOMINAL_PROBE_S = 0.004     # the probe's duration at nominal host speed
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.5

_COEFFS = np.exp(0.7j * np.arange(16)) * (1.0 + np.arange(16) / 7.0)


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python work."""
    start = time.perf_counter()
    for _ in range(20):
        z = np.roots(_COEFFS)
        npp.polyval(z, _COEFFS[::-1])
        [complex(c) * 2.0 for c in _COEFFS]
    return time.perf_counter() - start


def probe_median(repeats: int) -> float:
    return statistics.median(probe() for _ in range(repeats))


def scales(times: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """Factor NOMINAL / local probe median for each time; probes are (t, s)."""
    at = [t for t, _ in probes]
    out = []
    for t in times:
        lo = bisect.bisect_left(at, t - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, t + PROBE_WINDOW_S)
        # a probe precedes every instance by at most PROBE_EVERY_S
        near = [s for _, s in probes[lo:hi]]
        out.append(NOMINAL_PROBE_S / statistics.median(near))
    return out
