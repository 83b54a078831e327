"""Reference-host seconds: wall time corrected for the host's current speed.

On a shared machine the same unit of work can take twice as long from one
minute to the next, because other tenants compete for the cores, caches and
memory bus; process CPU time drifts the same way, so it does not help. The
benchmark therefore runs a fixed calibration kernel between units and
reports every time in reference-host seconds:

    reference seconds = wall seconds * CALIBRATION_REF_S / calibration seconds

where the calibration time is the mean of the kernel runs just before and
just after the interval. A reference host is one on which the kernel takes
exactly CALIBRATION_REF_S. The kernel is a small replay loop of the same
kind as the simulator's (a Python loop over tiny numpy operations and
generator draws), so host slowdowns hit both alike. It lives here, not in
the package, so no change to the package can change it.
"""

from __future__ import annotations

import time

import numpy as np

CALIBRATION_STEPS = 20_000
CALIBRATION_REF_S = 0.11


def calibrate() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    rng = np.random.default_rng(0)
    mat = np.eye(4) * 0.5
    rhs = np.ones(4)
    x = np.zeros(4)
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        g = mat @ x - rhs + rng.standard_normal(4)
        x = x - 0.01 * g
    return time.perf_counter() - start


class RefClock:
    """Scale factors from wall to reference seconds for consecutive intervals.

    Calibrates once on creation; each `factor()` call calibrates again and
    returns the factor for the interval since the previous call.
    """

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        now = calibrate()
        mean = 0.5 * (self.last + now)
        self.last = now
        return CALIBRATION_REF_S / mean
