"""Host-speed correction for timings taken on a shared machine.

On a VM that shares its host, the same CPU work runs at anywhere from the
host's full speed to about half of it, in phases that last from seconds to
minutes.  A 30 s run that falls in a slow phase reads 20-40 % slower, while
the code has not changed.

The correction measures the host, not the program.  A fixed reference loop
(the *probe*) runs just before and just after every timed operation, with
the garbage collector off, and its CPU time is recorded.  The fastest probe
of the whole run is the host at full speed; the mean of the two probes
around an operation is the host's speed while that operation ran.  The CPU
part of the operation is scaled by their ratio, and the rest of its wall
time (sleeping on the injected gateway latency, or waiting to be scheduled)
is kept as measured:

    corrected = wall - min(cpu, wall) * (1 - fastest_probe / local_probe)

So a corrected time is the operation's wall time at the host's full speed.
A change to the program moves it as it moves the raw wall time; a change in
host speed cancels out.  Only ratios of probe times enter, so the probe's
own cost cancels too.
"""

from __future__ import annotations

import dataclasses
import gc
import time


def _reference() -> int:
    """Interpreter work of the kind the search does: string building, dict
    updates, a sort.  It never changes with the program under test."""
    table: dict[str, int] = {}
    parts = []
    for i in range(1500):
        key = f"k{i % 211}:{i}"
        table[key] = table.get(key[:4], 0) + i
        parts.append(key.upper())
    return len(" ".join(sorted(parts)[::7])) + len(table)


@dataclasses.dataclass(frozen=True)
class Timing:
    wall_s: float
    cpu_s: float          # process CPU time, every thread
    probes: tuple         # probe CPU seconds just before and just after


class HostSpeed:
    """Every probe of one run; the fastest is the host at full speed."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            _reference()
            _reference()
            seconds = time.thread_time() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def time(self, fn, *args):
        """Run ``fn(*args)`` between two probes; return (result, Timing)."""
        before = self.probe()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return result, Timing(wall, cpu, (before, self.probe()))

    def fastest(self) -> float:
        return min(self.samples)

    def slowdown(self) -> float:
        """Median probe over the fastest: how slow the host ran, typically."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / ordered[0]


def corrected(timing: Timing, fastest: float) -> float:
    """``timing``'s wall time at the host speed of the ``fastest`` probe."""
    local = sum(timing.probes) / len(timing.probes)
    factor = min(1.0, fastest / local)
    return timing.wall_s - min(timing.cpu_s, timing.wall_s) * (1.0 - factor)
