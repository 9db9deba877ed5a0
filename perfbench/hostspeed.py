"""Host-speed probe for normalizing times measured in this process.

The benchmark's hosts change speed by 10-30% over seconds to minutes, and
CPU time tracks wall time, so neither longer runs nor CPU time remove the
drift.  A fixed piece of Python work run in the same process right after
each item slows down with it: on a 2-CPU host, dividing each item's time
by the time of the probes run next to it cut the pass-to-pass coefficient
of variation from 0.13 to 0.03-0.05.  The probe never touches quiverrep, so
a change to the library moves normalized times exactly as it moves wall
times on a host of steady speed.  Set-up times follow the probe less
closely; they are divided by the square root of the slowness measured by
probes run in the set-up process before its imports and after set-up
(perfbench/run.py, SETUP_ELASTICITY).  Probing does not follow the speed
of a child process from outside (before, after or alongside it), nor a
`quiverrep` process from its first and last milliseconds, so items that
run as subprocesses are not normalized.
"""

from __future__ import annotations

import gc
import time

# Nominal duration of one probe() call; normalized seconds are seconds on a
# host where the probe takes exactly this long.
REFERENCE_S = 0.0007


_TABLE = {(i, i % 7): i for i in range(256)}


def _step(i: int) -> int:
    return _TABLE[(i & 255, (i & 255) % 7)] ^ i


def probe() -> float:
    """Run the fixed work once; its wall time in seconds.

    The work is what the library spends its time on (calls, small tuples,
    dict lookups, int arithmetic) but allocates nothing that outlives an
    iteration, and the garbage collector is off meanwhile, so the probe's
    time depends on the host and not on the measured program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += _step(i)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def slowness(probe_times) -> float:
    """Host slowness relative to the reference: divide a wall time by it."""
    return sum(probe_times) / len(probe_times) / REFERENCE_S
