"""End-to-end times scaled to a fixed host speed by a reference loop.

The hosts this benchmark runs on change speed under it.  On a 2-vCPU cloud
VM, with no steal time, a fixed pure-Python loop flipped between a fast and
a slow state about 1.9x apart many times a second, on either vCPU, and the
share of slow time drifted over minutes.  Raw wall times of identical runs
then spread by 20-30%, and longer runs do not average the drift out.

So the benchmark times `reference()`, a fixed pure-Python loop of about
4 ms that does not touch `infgon`, between every two jobs, and reports each
job's wall time scaled to the speed at which the loop takes `NOMINAL_S`:

    scaled = wall * NOMINAL_S / mean(loop time just before, loop time just after)

A change to the program moves the scaled time as it moves the wall time at a
fixed host speed; a change in host speed moves the loop and the job alike and
cancels.  Raw wall times are kept in the run record next to the scaled ones.

The fast and slow states of the two vCPUs were uncorrelated, so the loop only
speaks for the vCPU it ran on.  `pin()` therefore keeps the benchmark process
and every process it starts on one CPU; the benchmark waits while a child
runs, so they never run at once.
"""

from __future__ import annotations

import os
import statistics
import time

NOMINAL_S = 0.0035  # what reference() takes at the nominal speed

_BIG_X, _BIG_Y = 3**4000, 7**3500


def _reference_work() -> None:
    # four kinds of work the library's layers run on, in about equal parts:
    # a small-int loop, big-int arithmetic, tuple/dict/list allocation and
    # row operations on a list-of-lists matrix.  A mix follows the host's
    # slow phases more closely for every workload than any one kind does.
    rows = [list(range(i, i + 8)) for i in range(16)]
    acc = 0
    for i in range(3000):
        row = rows[i & 15]
        j = i & 7
        row[j] = (row[j] * 3 + i) % 1_000_003
        acc += abs(row[j] - row[7 - j])
    for i in range(5):
        acc ^= (_BIG_X * _BIG_Y + i) % (_BIG_Y + i)
    seen = {}
    for i in range(1300):
        seen[(i, i + 1, str(i))] = [i] * 3
    n = 20
    a = [[(i * j) % 7 - 3 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        for i in range(k + 1, n):
            f = a[i][k]
            if f:
                ri, rk = a[i], a[k]
                for j in range(n):
                    ri[j] = (ri[j] * 5 - f * rk[j]) % 1_000_003


def pin() -> int | None:
    """Keep this process and its future children on one CPU; returns it, or None if not allowed."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def reference() -> float:
    """Wall time of one run of the fixed reference loop, in seconds."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def reference_median(repeats: int = 3) -> float:
    return statistics.median(reference() for _ in range(repeats))


def scaled(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time at nominal speed.

    `refs` holds one more entry than `walls`: refs[i] and refs[i + 1] are the
    loop times taken just before and just after walls[i].
    """
    assert len(refs) == len(walls) + 1
    return [wall * NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, wall in enumerate(walls)]
