"""Machine-speed sampling, so that times taken at different moments on a
shared host can be compared.

On a host whose cores are shared with other tenants, a core runs the same
code up to about twice as slowly from one second to the next, and CPU time
grows with wall time.  While a timed call runs, an interval timer
interrupts it every ``INTERVAL_S`` and runs a fixed probe in the main
thread.  The probe's CPU time tracks the speed a core gives the program at
that moment.  The probe is too short to see the other kind of slowdown,
waiting for a core while another process runs on it; the kernel counts
that wait as the thread's run delay (``/proc/self/schedstat``).  A timed
duration has both the probes' CPU time and the run delay removed, and is
scaled to the reference speed:

    reference_s = (wall_s - probe_handler_s - run_delay_s)
                  * REFERENCE_PROBE_S / mean(probe_s)

``REFERENCE_PROBE_S`` is the probe's duration on the reference machine
(see README.md) when no neighbour competes for its cores.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 180e-6

_rng = random.Random(7)
_GRAPH = {u: [(_rng.randrange(60), _rng.random()) for _ in range(6)]
          for u in range(60)}
#: The numpy part reads 150 scattered rows of a 4 MiB table.
_TABLE = np.random.default_rng(7).random((1 << 16, 8))
_ROWS = [_rng.randrange(1 << 16) for _ in range(150)]
_ZERO = np.zeros(8)


def _probe() -> None:
    """Dijkstra over a fixed 60-node graph, then small numpy calls on
    scattered rows of a table: the dict, heap and tuple work and the
    per-row numpy calls the program itself is made of."""
    best: dict[int, float] = {}
    heap = [(0.0, 0)]
    while heap:
        w, node = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = w
        for dst, cost in _GRAPH[node]:
            if dst not in best:
                heapq.heappush(heap, (w + cost, dst))
    for row in _ROWS:
        np.minimum(_TABLE[row], _ZERO)


def run_delay_s() -> float:
    """Seconds the main thread has waited, runnable, for a core; 0 where
    the kernel does not report it."""
    try:
        with open("/proc/self/schedstat") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Window:
    """Probe results and run delay between two marks of a
    :class:`Sampler`."""

    probes: list[float]
    handler_s: float
    run_delay_s: float

    def reference_s(self, wall_s: float, fallback_probe_s: float) -> float:
        probe_s = statistics.fmean(self.probes) if self.probes \
            else fallback_probe_s
        return ((wall_s - self.handler_s - self.run_delay_s)
                * REFERENCE_PROBE_S / probe_s)


class Sampler:
    """Runs the probe every ``INTERVAL_S`` while ``running()`` is active.
    Each probe runs twice and only the second, warm run is kept.  Probes
    are timed in the thread's CPU time, so a preemption inside one does
    not count twice: the run delay already holds it."""

    def __init__(self):
        self.probes: list[float] = []
        self.handler_s = 0.0

    def _handler(self, signum, frame) -> None:
        # A collection triggered by the probe's allocations would time the
        # program's garbage, not the machine.
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        _probe()
        mid = time.thread_time()
        _probe()
        end = time.thread_time()
        if collecting:
            gc.enable()
        self.probes.append(end - mid)
        self.handler_s += end - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float, float]:
        return len(self.probes), self.handler_s, run_delay_s()

    def since(self, mark: tuple[int, float, float]) -> Window:
        n, handler_s, delay_s = mark
        return Window(self.probes[n:], self.handler_s - handler_s,
                      run_delay_s() - delay_s)
