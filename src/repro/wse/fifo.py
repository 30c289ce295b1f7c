"""Hardware-managed in-memory FIFOs.

Paper section IV.1: "The instruction set supports hardware-managed,
in-memory FIFOs that use memory regions as circular buffers. The core has
special hardware registers to manage the state (head and tail location,
for example) of each FIFO. ... [FIFOs] are able to activate tasks ...
whenever they aren't empty."

The SpMV kernel uses five of these (``term[0]``..``term[4]``, depth 20)
to decouple the multiply threads from the accumulation task.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .counters import replayed_counter

__all__ = ["HardwareFifo"]


class HardwareFifo:
    """A bounded FIFO whose pushes can activate a scheduler task.

    Parameters
    ----------
    capacity:
        Circular-buffer depth in words (the paper used 20).
    on_push:
        Callback invoked after every push (the program builder wires this
        to ``scheduler.activate(sum_task)``).
    """

    #: Push statistics, live and replayed (see :mod:`repro.wse.counters`):
    #: :meth:`push` writes the live slots ``_pushed`` / ``_high_water``.
    total_pushed = replayed_counter("_pushed", 0, doc="Words ever pushed.")
    high_water = replayed_counter(
        "_high_water", 1, combine=max, doc="Deepest occupancy ever reached.")

    def __init__(self, name: str, capacity: int = 20, on_push: Callable[[], None] | None = None):
        if capacity <= 0:
            raise ValueError("FIFO capacity must be positive")
        self.name = name
        self.capacity = int(capacity)
        self.on_push = on_push
        #: Name of the task ``on_push`` activates, when wired through
        #: :meth:`repro.wse.core.Core.make_fifo` — static metadata the
        #: analyzer reads (the callback itself is opaque).
        self.activates: str | None = None
        self._buf: deque = deque()
        self._pushed = 0
        self._high_water = 0
        self._shares = None
        self._row = -1

    def spec(self):
        """Freeze this FIFO's credit description for the analyzer.

        Returns a :class:`repro.wse.analyze.spec.FifoSpec` — name,
        capacity (the credit budget producers block on), and the task
        the push callback activates.  Analysis passes read this instead
        of poking at live simulator attributes.
        """
        from .analyze.spec import FifoSpec

        activates = (self.activates,) if self.activates else ()
        return FifoSpec(self.name, self.capacity, activates)

    @property
    def empty(self) -> bool:
        return not self._buf

    @property
    def full(self) -> bool:
        return len(self._buf) >= self.capacity

    @property
    def space(self) -> int:
        """Free slots (the batched-readiness bound for pushes)."""
        return self.capacity - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def push(self, value) -> None:
        """Push one word; fires ``on_push``; raises when full.

        Producers must gate on :attr:`full` (the multiply threads stall
        when their FIFO is full — that back-pressure is what bounds the
        memory footprint of the intermediate products).
        """
        buf = self._buf
        n = len(buf)
        if n >= self.capacity:
            raise OverflowError(f"push to full FIFO {self.name!r}")
        buf.append(value)
        self._pushed += 1
        if n + 1 > self._high_water:
            self._high_water = n + 1
        if self.on_push is not None:
            self.on_push()

    def pop(self):
        """Pop the oldest word; raises when empty."""
        if not self._buf:
            raise IndexError(f"pop from empty FIFO {self.name!r}")
        return self._buf.popleft()
