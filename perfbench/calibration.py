"""Host-speed probe, and the conversion of wall time to reference time.

On a shared host the vCPU itself changes speed: in phases of a few
seconds the same item takes 1.3-1.7x as long, with process CPU time
tracking wall time and no steal, so neither CPU time nor a longer run
cancels it.  A short fixed `Fraction` loop run right before and right
after each batch of items slows down by the same factor, so

    reference ms = wall ms * PROBE_REFERENCE_S / (mean of the two probes)

reports every timing as if the probe took PROBE_REFERENCE_S.  The probe
uses only the standard library, so a change to fanocount cannot move it.
Raw wall times are printed beside the reference ones in each run record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Probe time in the unloaded phase of a 2.0 GHz Xeon vCPU under Python 3.11.
PROBE_REFERENCE_S = 0.005

# Items between two probes run for at least this long.
BATCH_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed amount of exact rational arithmetic."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Reference seconds per wall second for work done between two probes."""
    return 2 * PROBE_REFERENCE_S / (before + after)
