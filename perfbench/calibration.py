"""The pure-Python calibration kernel (standard library only).

Its CPU time tracks how fast this machine runs interpreter-bound code
at the moment of the reading; the worker reads it between timed calls
and keeps the readings with every run's raw timings.  The kernel
inserts and looks up tuples in a dict that grows to a few MB, so,
like the schedulers' DP tables, it feels cache and memory contention
and not only the core's clock.
"""

from __future__ import annotations

import time


def calibration_kernel() -> float:
    """CPU seconds of a fixed loop of dict, tuple and integer work."""
    t0 = time.process_time()
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    x = 1
    for i in range(25_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 0x3FFFF] = (i, x)
        hit = table.get((x >> 7) & 0x3FFFF)
        if hit is not None:
            acc += hit[0] & 7
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return time.process_time() - t0
