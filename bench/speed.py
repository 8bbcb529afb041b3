"""Machine-speed calibration for the timed sections.

On a shared machine the speed of one core drifts by up to a factor of
two over a few seconds, so raw wall-clock times of the same work differ
by 20% or more between runs.  A fixed slice of work of the same kind
as the program's (exact rational elimination, integer gcd reduction,
small tuples and sets) is timed next to every operation; a time t
measured while one slice took c seconds is reported as
t * REFERENCE_S / c, the time it would take on a machine where the
slice takes REFERENCE_S.  The slice does not touch the program, so a
faster program shows as a smaller scaled time, and a faster machine
does not.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
_REPS = 3

_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(6))
    for i in range(6)
)
_INTS = tuple(tuple((i * 13 + j * 29) % 37 - 18 for j in range(6)) for i in range(6))


def _kernel() -> int:
    a = [list(row) for row in _MATRIX]
    n = len(a)
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            for k in range(col, n):
                a[i][k] -= f * a[col][k]
    rows = [list(row) for row in _INTS]
    for col in range(len(rows[0])):
        for i in range(col + 1, len(rows)):
            while rows[i][col]:
                q = rows[col][col] // rows[i][col]
                rows[col] = [x - q * y for x, y in zip(rows[col], rows[i])]
                rows[col], rows[i] = rows[i], rows[col]
    seen = {tuple(sorted((i * j) % 97 for j in range(12))) for i in range(40)}
    return len(seen) + math.gcd(*(r[0] for r in rows)) + int(a[-1][-1] != 0)


def slice_seconds() -> float:
    """Seconds one calibration slice takes now, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(_REPS):
            _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
