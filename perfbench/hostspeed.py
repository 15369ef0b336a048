"""Host-speed probe: a fixed piece of work timed beside every request.

On a shared host the same code runs up to 1.9x slower in some stretches of
seconds, and in some runs, than in others (a pure-Python loop took 17 ms in
some stretches and 27 ms in others, with CPU time equal to wall time, so it
is not time spent descheduled).  The benchmark times :func:`probe` between
requests (on the fleet, between units, with the fleet idle), and scales
each request's time by ``NOMINAL_S`` over the mean of the probes nearest
to it (set-up times likewise): a time figure then reads as it would at the host
speed where the probe takes ``NOMINAL_S``.  The probe is the benchmark's
own code and touches nothing of the program under test, so at a steady
host speed a change to the program moves the scaled figures as much as the
raw ones.

The work mixes what a request spends its time on: interpreting Python,
building and formatting strings, parsing them back, a heap, hashing,
allocating many small objects and a few large arrays.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Probe time, in seconds, at the reference host speed (one probe on the
#: 2-CPU Xeon host the benchmark was defined on, in its faster stretches).
NOMINAL_S = 0.012

#: Probes on each side of a request that set its scale: enough to average
#: out the probe's own noise (one probe pair added 6% to the spread of
#: single request times on a steady host), few enough to follow host speed
#: changes that last seconds.
WINDOW = 3

_ROWS = 1200
_OBJECTS = 20_000
_VALUES = np.random.default_rng(12345).random(4096)


def _work() -> int:
    # Text: format rows, parse them back, a heap, a hash.
    lines = []
    heap: List[tuple] = []
    for i in range(_ROWS):
        t = (i * 7919) % 1000 / 7.0
        heapq.heappush(heap, (t, i))
        lines.append(f"{i} {i % 48} dpotrf {t:.9f} {t + 0.5:.9f}")
    text = "\n".join(lines)
    rows = {}
    for line in text.split("\n"):
        tid, worker, kernel, start, end = line.split()
        rows[int(tid)] = (int(worker), kernel, float(start), float(end))
    order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    key = hashlib.sha256(json.dumps(sorted(rows.items())[:200]).encode()).hexdigest()
    # Memory: many small objects, a dict over them, a sort, large arrays.
    objs = [(i, str(i), i * 0.5) for i in range(_OBJECTS)]
    index = {o[1]: o for o in objs}
    objs.sort(key=lambda o: -o[2])
    big = np.arange(8 * _OBJECTS, dtype=float)
    total = float((big * big[::-1]).sum()) + float(np.sort(_VALUES * len(order))[-1])
    return len(key) + len(index) + int(total) % 7 + objs[0][0]


def probe() -> float:
    """Seconds of one probe: the faster of two timings of the fixed work,
    so one interruption does not read as a slow host.  The collector is off
    meanwhile: a collection would time the process's heap, not the host."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def factor(probes: Sequence[float], before: int) -> float:
    """Scale factor for the time between ``probes[before]`` and the next
    probe: ``NOMINAL_S`` over the mean of the ``WINDOW`` probes on each side
    of it."""
    near = probes[max(0, before - WINDOW + 1):before + 1 + WINDOW]
    return NOMINAL_S / statistics.fmean(near)
