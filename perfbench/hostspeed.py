"""Host speed probe: how fast this host runs plain Python right now.

On a shared 2-vCPU Xeon host this loop has been seen to take anywhere
between about 2 and 5 ms within minutes, with CPU time tracking wall
time (slower cores, not stolen time), and to switch between a fast and a
slow mode within seconds.  Each run times this loop when it starts and
when it ends and records both next to its metrics, so that a reader can
tell a slow run from a slow host.  The metrics are not scaled by it: a
probe taken between passes samples the host at other moments than the
passes themselves, and in the switching mode that added more spread than
it removed.  The loop uses nothing from ``src/``.
"""

from __future__ import annotations

import time

from perfbench.stats import median


def _loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(12_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def loop_ms(seconds: float = 0.3) -> float:
    """Median time of the reference loop over ``seconds`` of repetitions, in ms."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - start)
    return 1e3 * median(samples)
