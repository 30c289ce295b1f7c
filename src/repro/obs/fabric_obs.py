"""Per-fabric metric collection behind the ``fabric.obs`` hook.

:class:`FabricObserver` is the object a :class:`~repro.wse.fabric.Fabric`
calls back into when observation is attached.  The contract with the
simulator is deliberately tiny — the *entire* hot-path cost of the
observability layer when disabled is the ``if self.obs is not None``
check in ``Fabric.step`` (verified by ``benchmarks/bench_obs_overhead``
and the <5 % gate against ``BENCH_des.json``):

* ``on_cycle(fabric, words, elements)`` after every stepped cycle;
* ``on_skip(n)`` when the engine fast-forwards ``n`` provably-inert
  cycles in O(1).

When enabled, per-cycle work is bounded by the *active set*, never the
full grid: queue occupancy is sampled over ``fabric.active_routers()``
(a router holding words is always in that set — the PR 2 engine
invariant), and stall samples read the stalled-core set's size.
Whole-grid quantities (per-router cumulative words, per-core busy
cycles, FIFO high-water marks) live on the components themselves and
are harvested once, at report time, by :meth:`harvest` /
:meth:`utilization_grids`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FabricObserver"]


class FabricObserver:
    """Metrics recorder for one fabric, feeding a shared registry.

    Construct via :meth:`repro.obs.ObsSession.observe_fabric`, which
    also sets ``fabric.obs``.  All instrument names are prefixed with
    the observer's ``name`` (``"spmv.words_moved"``, ...).
    """

    def __init__(self, name: str, fabric, metrics, keep_series: bool = True):
        self.name = name
        self.fabric = fabric
        self.metrics = metrics
        #: Optional words-per-cycle series for counter export, stored as
        #: (cycle, words) *change points* — a steady stream is two
        #: entries, and an O(1) skipped span is at most one — so keeping
        #: the series never makes a run superlinear in skipped cycles.
        self.keep_series = keep_series
        self.series: list[tuple[int, int]] = []
        self._last_words = 0
        self.peak_occupancy = 0
        self._c_words = metrics.counter(f"{name}.words_moved")
        self._c_stepped = metrics.counter(f"{name}.stepped_cycles")
        self._c_skipped = metrics.counter(f"{name}.skipped_cycles")
        self._c_stall = metrics.counter(f"{name}.core_stall_cycles")
        self._g_occ = metrics.gauge(f"{name}.router_queue_occupancy")
        self._h_active = metrics.histogram(f"{name}.active_routers")
        #: Per-core ``cycles_active`` at attach: utilization normalizes
        #: to the *observed* window.  A core can carry busy cycles from
        #: runs before observation started (warm-ups, a prior session);
        #: dividing the raw counter by this observer's stepped cycles
        #: would over-count those tiles.
        self._busy0: dict[int, int] = {}
        for row in fabric.cores:
            for core in row:
                if core is not None:
                    self._busy0[id(core)] = getattr(core, "cycles_active", 0)

    # ------------------------------------------------------------------
    # Simulator callbacks (the only per-cycle surface)
    # ------------------------------------------------------------------
    def on_cycle(self, fabric, words: int, elements: int) -> None:
        self._c_stepped.inc()
        if words:
            self._c_words.inc(words)
        if self.keep_series and words != self._last_words:
            self.series.append((fabric.cycle, words))
            self._last_words = words
        active = fabric.active_routers()
        self._h_active.observe(len(active))
        occ = 0
        for router in active:
            o = router.occupancy()
            if o > occ:
                occ = o
        self._g_occ.set(occ)
        if occ > self.peak_occupancy:
            self.peak_occupancy = occ
        stalled = fabric.stalled_core_count()
        if stalled:
            self._c_stall.inc(stalled)

    def on_skip(self, n: int) -> None:
        self._c_skipped.inc(n)
        if self.keep_series and self._last_words != 0:
            self.series.append((self.fabric.cycle, 0))
            self._last_words = 0

    def on_replay(self, fabric, stepped: int, skipped: int, words: int,
                  stall: int, series) -> None:
        """Replay-engine synthesis: fold a whole replayed kernel run's
        recorded accounting in at once.  Counters land exactly where a
        live run would leave them (stepped/skipped cycles, words moved,
        stall cycles) and the recorded words-per-cycle change points are
        appended, already rebased to the replay's start cycle.  Sampled
        instruments (queue-occupancy gauge, active-router histogram) are
        not re-sampled — replay executes no per-cycle sweep to sample.
        """
        self._c_stepped.inc(stepped)
        if skipped:
            self._c_skipped.inc(skipped)
        if words:
            self._c_words.inc(words)
        if stall:
            self._c_stall.inc(stall)
        if self.keep_series:
            for cycle, w in series:
                if w != self._last_words:
                    self.series.append((cycle, w))
                    self._last_words = w
            if self._last_words != 0:
                self.series.append((fabric.cycle, 0))
                self._last_words = 0

    # ------------------------------------------------------------------
    # Report-time harvesting (whole-grid scans allowed here)
    # ------------------------------------------------------------------
    def harvest(self) -> None:
        """Fold component-resident counters into the registry: per-link
        word totals and FIFO high-water marks.  Call once, after the
        run — this is the only full-grid scan the observer performs."""
        metrics = self.metrics
        h_link = metrics.histogram(f"{self.name}.router_words_moved")
        h_fifo = metrics.histogram(f"{self.name}.fifo_high_water")
        for row in self.fabric.routers:
            for router in row:
                if router.words_moved:
                    h_link.observe(router.words_moved)
        for row in self.fabric.cores:
            for core in row:
                fifos = getattr(core, "fifos", None)
                if fifos:
                    for fifo in fifos.values():
                        h_fifo.observe(fifo.high_water)

    def utilization_grids(self) -> dict[str, np.ndarray]:
        """Per-tile utilization heatmaps (the .npy/CSV export payload).

        ``router_words``: cumulative words each router delivered.
        ``core_busy``: fraction of *observed* stepped cycles each core
        processed at least one element (0 for tiles without a core).
        Busy cycles accumulated before this observer attached are
        excluded, so mixing live and replayed runs — or observing a
        fabric after a warm-up — cannot push the fraction past the
        window's share.
        """
        fabric = self.fabric
        h, w = fabric.height, fabric.width
        words = np.zeros((h, w), dtype=np.int64)
        busy = np.zeros((h, w), dtype=np.float64)
        stepped = max(self._c_stepped.value, 1)
        busy0 = self._busy0
        for y in range(h):
            for x in range(w):
                words[y, x] = fabric.routers[y][x].words_moved
                core = fabric.cores[y][x]
                if core is not None:
                    active = (getattr(core, "cycles_active", 0)
                              - busy0.get(id(core), 0))
                    busy[y, x] = active / stepped
        return {"router_words": words, "core_busy": busy}

    # ------------------------------------------------------------------
    @property
    def stepped_cycles(self) -> int:
        return self._c_stepped.value

    @property
    def skipped_cycles(self) -> int:
        return self._c_skipped.value

    @property
    def total_words(self) -> int:
        return self._c_words.value
