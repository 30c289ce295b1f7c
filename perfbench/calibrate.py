"""Host-speed calibration for the wall-time metrics.

On a shared virtual machine, other tenants slow a process down in
phases: on the 2-vCPU host this benchmark was built on, pure-Python
code ran 1.4x slower for stretches of 10-60 s, longer than a run's
sampling windows. A fixed reference kernel timed next to each request
measures the host's speed at that moment, so each request's wall time
can be scaled to the speed at which :data:`REFERENCE_S` was measured.

In a 160 s warm-solve loop on that host, the spread (interquartile
range over median) of 10 window medians fell from 0.23 to 0.08 on
replay-48x48x2 and from 0.13 to 0.08 on live-12x12x32.

The kernel belongs to the benchmark, not the program, so a change to
the program never changes it.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

#: Median :func:`calibrate` time on the reference host (2-vCPU Intel
#: Xeon VM, Python 3.11.7, NumPy 2.4.6).  Only a scale: normalized times
#: read as seconds on that host.
REFERENCE_S = 0.13

_ARRAY = np.random.default_rng(0).standard_normal(200_000)


class _Node:
    __slots__ = ("queue", "count")

    def __init__(self):
        self.queue = deque()
        self.count = 0


def calibrate() -> float:
    """Time one pass of the reference kernel; returns wall seconds.

    It mixes the simulator's three kinds of host work: interpreter
    arithmetic, attribute/deque/dict traffic, and NumPy array passes.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(750_000):
        total += i * i
    nodes = [_Node() for _ in range(256)]
    table = {}
    for i in range(150_000):
        node = nodes[i & 255]
        node.queue.append(i)
        node.count += 1
        if i & 1:
            table[(i & 1023, i & 7)] = node.queue.popleft()
    x = _ARRAY
    for _ in range(25):
        x = (x * 0.5 + _ARRAY)[::-1].copy()
    return time.perf_counter() - t0
