"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

On a shared host the speed one process gets drifts by 20-40% over seconds to
minutes, with no steal time reported (a plain Python loop's one-second
timings range over 22-36 ms on a 2-vCPU Intel Xeon VM).  Medians over a
45-s run do not average that away, so runs taken a few minutes apart
disagree by more than a regression the benchmark should catch.

The benchmark therefore times this kernel between every two CLI calls (and
around every set-up), and reports a call's wall time scaled by
``REF_S / k``, where ``k`` is the mean of the kernel times just before and
just after it.  The result reads as seconds at the speed at which the kernel
takes ``REF_S``.  The kernel never touches tricliq, so a change to the
library moves the call times and leaves the kernel's alone.  Its three parts
follow the library's mix of work: big-int bit masks with dict stores, a
counting pass over a list of small tuples (the pruning recount), and building
a dict keyed by tuples.
"""

from __future__ import annotations

import time

# About the median time of ``kernel()`` on a 2-vCPU Intel Xeon VM, Python 3.11.7.
REF_S = 0.0075

_TRIANGLES = [(i % 997, (i * 7) % 997, (i * 13) % 997) for i in range(12000)]


def kernel() -> int:
    total = 0
    store = {}
    mask = 0
    for i in range(8000):
        mask |= 1 << (i % 200)
        store[i & 1023] = total
        total += (mask >> (i % 150)) & 7
    counts = [0] * 1000
    for tri in _TRIANGLES:
        for e in tri:
            counts[e] += 1
    pairs = {}
    for i in range(6000):
        pairs[(i, i + 1)] = [i]
    return total + sum(counts) + len(pairs)


def measure() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time as seconds at reference speed."""
    return seconds * REF_S / ((before + after) / 2)
