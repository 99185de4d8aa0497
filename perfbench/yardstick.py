"""A fixed miniature simulation that measures how fast the host runs now.

The benchmark shares its host with other machines' work, which slows
identical Python code by up to 2x in phases that last from seconds to
minutes.  ``perfbench/run.py`` therefore calls :func:`call` after every
few simulated seconds of every run and divides the workload's host time
by the yardstick's: both see the same phases, so the ratio keeps the
program's cost and drops most of the host's.

The yardstick mimics the simulator's work (slotted objects moving on a
plane, a range query, a heap of deliveries, dict writes) but shares no
code with it, so a change to the program cannot change the yardstick.
Every call does exactly the same work.  Changing this file changes what
one reference second is, so it makes every earlier measurement
incomparable.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

__all__ = ["NOMINAL_CALL_S", "call"]

#: One reference second is the host time of 1 / NOMINAL_CALL_S calls.
NOMINAL_CALL_S = 100e-6

NODES = 60
STEPS = 4
RANGE_SQUARED = 900.0


class _Node:
    __slots__ = ("x", "y", "inbox", "seen")

    def __init__(self) -> None:
        self.x = self.y = 0.0
        self.inbox = 0
        self.seen = {}


_rng = random.Random(7)
_START = tuple((_rng.random() * 100.0, _rng.random() * 100.0) for _ in range(NODES))
_MOVES = tuple((_rng.random() - 0.5, _rng.random() - 0.5) for _ in range(NODES))
_nodes = [_Node() for _ in range(NODES)]


def _work() -> int:
    for node, (x, y) in zip(_nodes, _START):
        node.x, node.y, node.inbox = x, y, 0
        node.seen.clear()
    heap = []
    for step in range(STEPS):
        for node, (dx, dy) in zip(_nodes, _MOVES):
            node.x = (node.x + dx) % 100.0
            node.y = (node.y + dy) % 100.0
        source = _nodes[step * 7 % NODES]
        for index, node in enumerate(_nodes):
            if (node.x - source.x) ** 2 + (node.y - source.y) ** 2 < RANGE_SQUARED:
                heapq.heappush(heap, (step + index * 0.01, index))
        while heap:
            at, index = heapq.heappop(heap)
            node = _nodes[index]
            node.inbox += 1
            node.seen[step] = at
    return sum(node.inbox for node in _nodes)


def call() -> float:
    """Run the yardstick once and return its host seconds.

    The garbage collector is off for the call, so a collection of the
    program's objects that the call's allocations would trigger runs in
    the program's time instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
