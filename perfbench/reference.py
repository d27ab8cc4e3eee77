"""Machine-speed yardstick for the end-to-end times.

On a shared host the same unit's wall time drifts by 20% and more within a
minute, and all CPU-bound code drifts together.  The benchmark therefore
times a fixed slice of reference work right before and right after every
unit, and reports the unit's times rescaled to a nominal machine speed:

    time * NOMINAL_S / (median slice time around the unit)

The slice is shaped like the program's inner loops (numpy kernels on a few
hundred points, called from Python) but runs none of the program's code, so
two commits are rescaled by the same yardstick.  Raw times are kept next to
the rescaled ones in every result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.020   # slice time that defines the nominal speed
SLICES = 6          # slices timed on each side of a unit

_X = np.linspace(-4.0, 4.0, 192)


def _term(k: int) -> float:
    return 0.5 * k


def slice_time() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        d = _X - 1e-3 * i
        w = np.exp(-(d * d) / 4.0)
        acc += float(np.einsum("i,i->", w, d))
        acc += sum([_term(k) for k in range(20)])
    return time.perf_counter() - t0


def group() -> list[float]:
    return [slice_time() for _ in range(SLICES)]


def scale(before: list[float], after: list[float]) -> float:
    """Factor that rescales a time measured between two slice groups."""
    return NOMINAL_S / statistics.median(before + after)
