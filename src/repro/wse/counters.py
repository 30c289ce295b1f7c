"""Replayed shares of per-object counters.

A replayed kernel must leave every router, core and FIFO counter where a
live run would, but looping over thousands of objects per replay would
cost more than the replayed arithmetic.  So each counter is split in
two:

* a plain *live slot* (``Router._words``, ``Core._elements``, ...) that
  the live hot paths write exactly as they always did;
* the object's row in a fabric-wide :class:`ReplayedShares` table, which
  a compiled schedule advances with one NumPy op per counter kind.

The public attribute (``Router.words_moved``, ``Core.cycles_active``,
``HardwareFifo.high_water``, ...) is a read-through property made by
:func:`replayed_counter` that combines the two.  An object gets a row
the first time a compiled schedule touches it; until then it reads its
live slot alone.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

__all__ = ["ReplayedShares", "replayed_counter"]


class ReplayedShares:
    """The replayed counter shares of one object kind on one fabric.

    ``table`` is int64 with one column per counter and one row per bound
    object.  A compiled schedule keeps the rows it touches and updates
    ``table[rows, col]`` in place (re-reading ``table``, which grows when
    a later schedule binds new objects).
    """

    def __init__(self, n_counters: int):
        self.table = np.zeros((0, n_counters), dtype=np.int64)

    def rows(self, objs) -> np.ndarray:
        """Each object's row, binding the objects that have none yet.

        An object keeps its row for life; one already bound to another
        fabric's table raises ``ValueError`` (its counters cannot be
        replayed in two places).
        """
        n = start = len(self.table)
        out = np.empty(len(objs), dtype=np.intp)
        for k, obj in enumerate(objs):
            shares = obj._shares
            if shares is None:
                obj._shares = self
                obj._row = n
                n += 1
            elif shares is not self:
                raise ValueError(
                    f"{type(obj).__name__} counters are bound to another "
                    "fabric's replayed shares"
                )
            out[k] = obj._row
        if n > start:
            self.table = np.concatenate(
                [self.table,
                 np.zeros((n - start, self.table.shape[1]), dtype=np.int64)])
        return out


def replayed_counter(live: str, col: int, combine=None, doc: str = "") -> property:
    """A read-only counter: the live slot ``live`` plus the object's
    ``col`` share in its :class:`ReplayedShares` row (or, with
    ``combine=max``, the larger of the two — for high-water marks)."""
    get_live = attrgetter(live)

    def get(self) -> int:
        shares = self._shares
        if shares is None:
            return get_live(self)
        share = int(shares.table[self._row, col])
        if combine is None:
            return get_live(self) + share
        return combine(get_live(self), share)

    return property(get, doc=doc)
