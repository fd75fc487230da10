"""How fast the host runs right now, from a fixed probe.

The 2-core VMs this benchmark runs on are slices of a shared host, and
the same code runs at two or more speeds there (1.5-1.9x apart) in
spells of one to tens of seconds, as neighbours come and go.  The spells
move every time the benchmark measures, CPU time included.  The probe
measures them: a fixed loop of integer and dict work, timed in the
calling thread's CPU time so that waiting for the interpreter lock or
for a core does not count, only how fast the core executes while the
thread runs.  It allocates nothing the garbage collector tracks.  The
host also takes the cores away from the VM for whole stretches (steal
time), which no thread's CPU time shows: ``/proc/stat`` counts it, and
its share of the cores' busy time is taken out of a duration too.

A measured duration is scaled by ``REFERENCE_S / probe * (1 - steal)``,
with the median of the probes taken within ``WINDOW_S`` of it and the
steal share over the same stretch: a query timed
during a slow spell is reported at the speed of the reference host, on
which the probe takes ``REFERENCE_S``.  The median over a window, rather
than the two probes next to a duration, keeps the probe's own noise out
of short durations while still following spells of a second or more.
The probe is this file's code, so a change to the program cannot speed
it up or slow it down except by running work of its own between
queries.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: Probe thread-CPU seconds on the reference host (the faster speed of
#: the 2-core VM the benchmark was written on, Python 3.11).
REFERENCE_S = 0.0009
#: Probes within this many seconds of a duration scale it.
WINDOW_S = 1.0
_LOOPS = 8000


def _kernel() -> int:
    table = {}
    total = 0
    for i in range(_LOOPS):
        table[i & 1023] = i + total
        total += i % 7
    return total


def probe_s() -> float:
    """Thread CPU seconds of the kernel, the lower of two runs."""
    best = float("inf")
    for _ in range(2):
        began = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - began)
    return best


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, busy) clock ticks of all the VM's cores so far, busy
    including stolen; (0, 0) where ``/proc/stat`` is missing."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


class SpeedTrack:
    """Probes taken between measured intervals by the thread that times
    them, and the factor of each interval once they are all taken."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.probes: List[float] = []
        self.ticks: List[Tuple[int, int]] = []
        self.probe()

    def probe(self) -> None:
        self.times.append(time.perf_counter())
        self.probes.append(probe_s())
        self.ticks.append(cpu_ticks())

    def scales(self, intervals: List[Tuple[float, float]]) -> List[float]:
        """The factor of each (began, ended) wall-clock interval."""
        factors = []
        for began, ended in intervals:
            low = bisect.bisect_left(self.times, began - WINDOW_S)
            high = bisect.bisect_right(self.times, ended + WINDOW_S)
            stolen = self.ticks[high - 1][0] - self.ticks[low][0]
            busy = self.ticks[high - 1][1] - self.ticks[low][1]
            steal = stolen / busy if busy > 0 else 0.0
            speed = REFERENCE_S / statistics.median(self.probes[low:high])
            factors.append(speed * (1 - steal))
        return factors

    def cpu_scale(self) -> float:
        """The factor of CPU time, which steal does not inflate."""
        return REFERENCE_S / statistics.median(self.probes)
