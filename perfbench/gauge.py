"""A host-speed gauge: a fixed pure-Python workload, timed.

The shared host the benchmark runs on changes speed by up to a factor
of two within minutes, as other tenants load it, and every timing in a
run moves with it.  The gauge does the kind of work the simulator's
interpreter does (a heap of timed events, objects with slots, dict
updates) but shares no code with the program, so a change to the
program never moves it.  A timed run takes a gauge sample before every
run of a pass and scales the pass's times by ``GAUGE_REF_S`` over the
pass's mean sample: the times read as seconds on a host whose gauge
takes ``GAUGE_REF_S``.  The mean, not the median: a pass's time adds
up the host's slow and fast moments alike, and so does the mean.
"""

import heapq
from time import perf_counter

#: the gauge's fastest time on a 2.0 GHz Intel Xeon vCPU, so scaled
#: times read as that host's seconds when nothing else loads it
GAUGE_REF_S = 0.031

NODES = 256
EVENTS = 30_000


class _Node:
    __slots__ = ("count", "links")

    def __init__(self):
        self.count = 0
        self.links = {}


def _work() -> int:
    nodes = [_Node() for _ in range(NODES)]
    heap = [(i, i % NODES) for i in range(2 * NODES)]
    heapq.heapify(heap)
    table = {}
    for _ in range(EVENTS):
        t, k = heapq.heappop(heap)
        node = nodes[k]
        node.count += 1
        nxt = (k * 7 + node.count) % NODES
        node.links[nxt] = node.links.get(nxt, 0) + 1
        table[(k, node.count & 63)] = t
        heapq.heappush(heap, (t + 1 + (k & 7), nxt))
    return len(table)


def sample() -> float:
    """Seconds the gauge's workload takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start
