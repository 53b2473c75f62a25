"""A fixed unit of work that gauges how fast the shared host runs right now.

The benchmark runs on a few cores of a shared machine whose speed drifts
by 10-25 % over minutes, and sometimes halves, as neighbours come and
go.  Every timed step is followed by one gauge unit: Dijkstra passes over
a seeded dict-of-dicts graph plus a few small numpy outer products, the
same mix of interpreter and numpy work as the replay.  A time is then
reported at the reference host speed: multiplied by ``REFERENCE_UNIT_S``
over the unit's time measured the same way and at the same moments.  A
change to the program moves the replay but not the unit, so the scaling
keeps what the program does and drops most of what the host does.
"""

from __future__ import annotations

import heapq
import random
import time

try:
    import numpy
except ImportError:  # the pure kernel backend runs without numpy
    numpy = None

#: The unit's best time on the machine of the committed baselines, over a
#: quiet run; reported times are scaled to a host that runs it this fast.
REFERENCE_UNIT_S = 0.0035

#: Units run right after a set-up, to gauge the host for that set-up.
SETUP_UNITS = 25

_NODES, _SOURCES = 300, 6


class Gauge:
    """The gauge unit, on data built once."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.graph: dict[int, dict[int, float]] = {node: {} for node in range(_NODES)}
        for node in range(_NODES):
            for _ in range(3):
                other = rng.randrange(_NODES)
                if other != node:
                    weight = rng.uniform(1.0, 50.0)
                    self.graph[node][other] = self.graph[other][node] = weight
        self.matrix = (
            None if numpy is None else numpy.random.default_rng(1).random((64, 64))
        )

    def _shortest_paths(self) -> None:
        for source in range(0, _NODES, _NODES // _SOURCES):
            dist, done, heap = {source: 0.0}, set(), [(0.0, source)]
            while heap:
                d, node = heapq.heappop(heap)
                if node in done:
                    continue
                done.add(node)
                for other, weight in self.graph[node].items():
                    if d + weight < dist.get(other, float("inf")):
                        dist[other] = d + weight
                        heapq.heappush(heap, (d + weight, other))

    def _outer_products(self) -> None:
        if self.matrix is None:
            return
        for row in range(40):
            (numpy.outer(self.matrix[row], self.matrix[:, row]) * 0.5 + self.matrix).sum(axis=1)

    def unit(self) -> float:
        """Run one unit; return its wall time in seconds."""
        started = time.perf_counter()
        self._shortest_paths()
        self._outer_products()
        return time.perf_counter() - started


def at_reference(seconds: float, unit_s: float) -> float:
    """``seconds``, measured while the unit took ``unit_s``, at reference speed."""
    return seconds * REFERENCE_UNIT_S / unit_s
