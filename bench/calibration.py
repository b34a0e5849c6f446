"""Normalise timings by a fixed calibration loop run next to them.

The machines this bench runs on are shared: over a few seconds the
same code can run 30% faster or slower as neighbours come and go.  A
calibration unit is a fixed Metropolis loop on tiny numpy arrays, the
same kind of work as the kernels, written here so that no change to
the package can alter it.  The clock times the unit before and after
every measured section and rescales the section's seconds to a machine
on which one unit takes ``REFERENCE_UNIT_S``.
"""

import math
from statistics import median
from time import perf_counter

import numpy as np

# median unit time on the 2-core x86-64 VM the bench was sized on
REFERENCE_UNIT_S = 3.4e-3
UNITS_PER_CALIBRATION = 5


def calibration_unit(n=300, d=100):
    """Random-walk Metropolis on a d-dimensional Cauchy kernel, n steps."""
    rng = np.random.default_rng(0)
    y = np.ones(d)
    lp = -0.5 * (d + 1) * math.log1p(float(y @ y))
    out = np.empty((n, d))
    for i in range(n):
        prop = y + 0.1 * rng.standard_normal(d)
        lp_prop = -0.5 * (d + 1) * math.log1p(float(prop @ prop))
        if math.log(rng.uniform()) < lp_prop - lp:
            y, lp = prop, lp_prop
        out[i] = y
    return out


def unit_seconds(units=UNITS_PER_CALIBRATION):
    times = []
    for _ in range(units):
        start = perf_counter()
        calibration_unit()
        times.append(perf_counter() - start)
    return median(times)


class RawClock:
    """Seconds as measured."""

    def lap(self, seconds):
        return seconds


class CalibratedClock:
    """Seconds rescaled by the calibration units timed around each section.

    Call ``lap`` right after each section with its measured seconds;
    the section is scaled by the mean of the unit time before it and
    the unit time taken now.
    """

    def __init__(self):
        self.units = [unit_seconds()]

    def lap(self, seconds):
        self.units.append(unit_seconds())
        local = 0.5 * (self.units[-2] + self.units[-1])
        return seconds * REFERENCE_UNIT_S / local
