"""How fast the interpreter runs right now, for contention-normalised times.

On a shared machine the same work takes anywhere from 1x to 1.7x its
uncontended time, drifting over seconds and minutes, so raw times of runs
made minutes apart are not comparable.  A pass therefore times a fixed
probe computation every ``INTERVAL_S`` while it runs (a SIGALRM handler in
the pass's own thread), and scales each duration it reports by the mean of
``REFERENCE_S / probe duration`` over the probes taken during it: its time at
the speed where the probe takes ``REFERENCE_S``.  The probe is the
benchmark's own code, so a change to the package does not change it.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
# About the probe's mean duration while the 2-vCPU sandbox the benchmark was
# sized on (2.1 GHz) runs a pass; normalised times are seconds at that speed.
REFERENCE_S = 1.5e-4
BURST = 50
MIN_PROBES = 5  # fewest probes a normalised interval rests on ...
MARGIN_S = 0.5  # ... taking them from up to this far around a short one

# Two steps of the kinds of work the package does, timed together.  A colour
# refinement round over a 12-vertex graph, as in canonical labelling, builds
# and sorts small tuples and dicts: it slows when a neighbour contends for the
# core and the allocator's caches.  A subset-DP step, as in the stable-set and
# matching tables, over masks scattered across a 2^16-entry table misses the
# caches as the table builds at n = 16 do: it slows when a neighbour contends
# for the memory system.
_NEIGHBOURS = tuple(
    tuple(u for u in range(12) if u != v and (7 * u + 5 * v) % 4 == 0) for v in range(12)
)
_GRAPH = (0b110, 0b101, 0b011, 0b110000, 0b10100000, 0b1001000, 0b10010, 0b1100000, 0b1000)
_TABLE = [0] * (1 << 16)
_SCATTERED = tuple((m * 40503 + 12345) & 0xFFFF or 1 for m in range(1, 193))


def probe() -> float:
    """Time one fixed computation; return seconds."""
    t0 = time.perf_counter()
    colors = [v % 3 for v in range(12)]
    for _ in range(4):
        keys = [(colors[v], tuple(sorted(colors[u] for u in _NEIGHBOURS[v]))) for v in range(12)]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [palette[k] for k in keys]
    table, adj = _TABLE, _GRAPH
    for mask in _SCATTERED:
        low = mask & -mask
        best = table[mask ^ low]
        rest = adj[(low.bit_length() - 1) % 9] & mask
        while rest:
            bit = rest & -rest
            if table[mask ^ low ^ bit] >= best:
                best = table[mask ^ low ^ bit] + 1
            rest ^= bit
        table[mask] = best & 7
    return time.perf_counter() - t0


def ratio(seconds: float) -> float:
    """Speed relative to the reference, from one probe's duration."""
    return REFERENCE_S / seconds


def burst_factor() -> float:
    """Mean speed ratio of ``BURST`` probes timed back to back, for an
    interval too short to sample while it runs."""
    return statistics.fmean(ratio(probe()) for _ in range(BURST))


class Sampler:
    """Runs :func:`probe` every ``INTERVAL_S`` while the ``with`` block runs,
    and turns raw durations inside that block into seconds at the reference
    speed."""

    def __init__(self):
        self.times = array.array("d")
        self.ratios = array.array("d")
        self._sample(None, None)  # so that even a very short block has one

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.ratios.append(ratio(probe()))
        self.times.append(t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Mean speed ratio of the probes taken in [start, end], widened by
        ``MARGIN_S`` on each side when that holds fewer than ``MIN_PROBES``.

        Work done is the integral of speed over time, so a raw duration times
        this mean is the duration at the reference speed.
        """
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if hi - lo < MIN_PROBES:
            lo = bisect.bisect_left(self.times, start - MARGIN_S)
            hi = bisect.bisect_right(self.times, end + MARGIN_S)
        return statistics.fmean(self.ratios[lo:hi] or self.ratios[-1:])

    def normalise(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the raw interval [start, end]."""
        return (end - start) * self.factor(start, end)
