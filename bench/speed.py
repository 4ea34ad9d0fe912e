"""How fast the processor runs right now, for scaling measured times.

On a shared machine, load from elsewhere slows this processor by up to
1.7x for tens of seconds at a time, far more than the differences the
benchmark must resolve.  A fixed pure-Python loop, which calls nothing
of the package, is timed next to each measurement, and the measurement
is scaled by REF_SECONDS over the loop's time.  REF_SECONDS is about the
loop's time on an unloaded Intel Xeon with 2 vCPUs under Python 3.11,
so scaled figures read as times on that machine.

The loop does what the package's inner loops do: it builds small
tuples, counts them in a dict, packs them into ints and keeps a short
sorted list.  Under load it slows by nearly the same factor as the
workloads; a bare arithmetic loop slows less, and scaling by it left
twice the spread between runs.
"""

from __future__ import annotations

import time

REF_LOOPS = 6000
REF_SECONDS = 0.015


def reference_loop() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, ...], int] = {}
    rows: list[int] = []
    for i in range(REF_LOOPS):
        v = tuple((i * j) % 3 for j in range(12))
        counts[v] = counts.get(v, 0) + 1
        m = 0
        for j, c in enumerate(v):
            if c:
                m |= 1 << j
        rows.append(m ^ (m >> 1))
        if len(rows) > 64:
            rows.sort()
            del rows[:32]
    return time.perf_counter() - t0


def scale(seconds: float, *refs: float) -> float:
    """A measured time as it would read at the reference speed, given the
    reference times taken before, during and after it: the work done is
    the time spent at each speed, so the speeds (1 / reference time) are
    averaged."""
    return seconds * REF_SECONDS * sum(1 / r for r in refs) / len(refs)
