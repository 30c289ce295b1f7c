"""The on-wafer interconnect: routers, links, virtual channels.

Paper section II.A: each tile's router has five bidirectional links (to
the four neighbours and to its own core) and "can move data into and out
of these five links, in parallel, on every cycle".  Routing is configured
offline; data travel along virtual channels; "the fanout of data to
multiple destinations is done through the routing; the router can
forward an input word to any subset of its five output ports".

The model: each router holds, per (channel, input-port), a bounded FIFO
of in-flight words, and a static routing table mapping (channel,
input-port) to a set of output ports.  Every cycle each router forwards
at most one word per (channel, input-port) — subject to one word per
(channel, output-port) per cycle and to space in the downstream queue —
giving exactly one hop per cycle of latency and one word per channel per
link per cycle of bandwidth (the constants the paper's AllReduce
analysis relies on).

Simulation engines
------------------
Two step engines share the same cycle semantics (see
``docs/simulator_performance.md``):

* the **active-set engine** (:meth:`Fabric.step`, the default) sweeps
  only routers with queued words and cores that can make progress,
  using per-(channel, in_port) route bindings cached on each router.
  When nothing at all can move, a step is an O(1) *skipped cycle*.
* the **reference engine** (:meth:`Fabric.step_reference`) is the
  original full-fabric O(width x height) sweep, kept as the equivalence
  oracle: both engines produce identical cycle counts, word movements,
  and numerical results (asserted by ``tests/test_engine_equivalence``).

Word accounting counts one word per *delivered destination*: a move
whose route fans out to three output ports adds three to
``Router.words_moved`` and ``Fabric.total_words_moved``.

Observability
-------------
Two public hooks expose the engine without perturbing it (see
``docs/observability.md``):

* ``fabric.obs`` — when not ``None``, an observer (usually a
  :class:`repro.obs.FabricObserver`) receiving ``on_cycle(fabric,
  words, elements)`` after every stepped cycle and ``on_skip(n)`` for
  O(1) fast-forwarded spans.  The entire disabled-mode cost is the
  ``is None`` check.
* ``Fabric.run(..., on_cycle=...)`` — a per-cycle callback on the run
  loop itself, called after each step and before the deadlock
  diagnosis, so tracers see the final (stuck) cycle of a failing run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Port",
    "Router",
    "Fabric",
    "FabricStats",
    "FabricDeadlockError",
    "OPPOSITE",
]


class Port:
    """Router port names: four mesh directions plus the core ramp."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    CORE = "C"
    ALL = ("N", "S", "E", "W", "C")


#: The port on the neighbouring router that faces back at us.
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

#: Unit steps in (x, y) for each mesh direction.  +x is EAST, +y is NORTH.
DIRECTION = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


class FabricDeadlockError(RuntimeError):
    """The fabric can make no further progress but the run is unfinished.

    Raised by :meth:`Fabric.run` the moment the active sets drain while
    an ``until`` predicate is still false (or, without ``until``, when
    cores are wedged mid-program) — instead of silently spinning through
    ``max_cycles`` no-op sweeps.  The message carries a diagnosis of the
    stuck state (stalled cores, or full quiescence).
    """


@dataclass
class FabricStats:
    """Engine observability counters (reset with :meth:`reset`).

    ``active_router_cycles`` / ``active_core_cycles`` accumulate the
    number of router/core *sweep visits* per cycle — for the active-set
    engine that is the size of the dirty sets, for the reference engine
    the full grid — so ``mean_active_routers`` measures how sparse the
    simulated program actually is.  ``skipped_cycles`` counts cycles
    fast-forwarded in O(1) because nothing could move.
    """

    cycles: int = 0
    skipped_cycles: int = 0
    active_router_cycles: int = 0
    active_core_cycles: int = 0
    peak_active_routers: int = 0
    peak_active_cores: int = 0
    #: Optional per-cycle (active_routers, active_cores) trace; only
    #: recorded while :attr:`record_trace` is True (it grows unbounded).
    record_trace: bool = False
    trace: list = field(default_factory=list)

    @property
    def mean_active_routers(self) -> float:
        return self.active_router_cycles / self.cycles if self.cycles else 0.0

    @property
    def mean_active_cores(self) -> float:
        return self.active_core_cycles / self.cycles if self.cycles else 0.0

    def reset(self) -> None:
        self.cycles = 0
        self.skipped_cycles = 0
        self.active_router_cycles = 0
        self.active_core_cycles = 0
        self.peak_active_routers = 0
        self.peak_active_cores = 0
        self.trace.clear()


class _Binding:
    """A cached, resolved route for one (channel, in_port) queue.

    Rebuilt whenever the owning router's topology version or the
    fabric's core version changes; holds direct references to the
    source queue and every destination queue/core so the hot loop does
    no dict lookups, sorting, or bounds checks.
    """

    __slots__ = ("key", "queue", "coord", "route", "out_keys", "out_mask",
                 "qdests", "cdests", "n_dests", "error", "hot")

    def __init__(self, key, queue, coord, hot):
        self.key = key
        self.queue = queue
        #: (y, x) of the owning router — core deliveries land here.
        self.coord = coord
        self.route = None
        self.out_keys = ()
        #: bitmask over the router's distinct (channel, out_port) keys —
        #: conflict detection is one AND instead of set algebra.
        self.out_mask = 0
        #: list of (dest deque, dest capacity, dest (y, x), dest hot set,
        #: dest key) in route order
        self.qdests = ()
        #: list of (core, channel) deliveries at this tile
        self.cdests = ()
        self.n_dests = 0
        #: deferred resolution error (raised only when a word is present)
        self.error = None
        #: the owning router's ``_hot`` set (stable across rebinds)
        self.hot = hot


class Router:
    """One tile's router: static routes + per-(channel, port) queues."""

    __slots__ = ("x", "y", "queue_capacity", "routes", "queues",
                 "words_moved", "_version", "_bindings", "_bindings_key",
                 "_conflicts", "_core_in", "_touch", "_hot", "_hot_stale",
                 "_binding_map")

    def __init__(self, x: int, y: int, queue_capacity: int = 8):
        self.x = x
        self.y = y
        self.queue_capacity = queue_capacity
        #: (channel, in_port) -> tuple of out_ports
        self.routes: dict[tuple[int, str], tuple[str, ...]] = {}
        #: (channel, in_port) -> deque of words awaiting forwarding
        self.queues: dict[tuple[int, str], deque] = {}
        #: Cumulative words delivered out of this router (one per
        #: destination — a 1->3 fanout move counts 3).
        self.words_moved = 0
        #: Bumped on any topology change (new route or new queue); the
        #: fabric's cached bindings key off it.
        self._version = 0
        self._bindings: list[_Binding] | None = None
        self._bindings_key = None
        self._conflicts = False
        #: channel -> CORE-port ingress queue (phase-0 fast path).
        self._core_in: dict[int, deque] = {}
        #: Keys of queues known to hold words (the active engine's
        #: per-router work list; sorted iteration reproduces the
        #: reference sweep's binding order exactly).
        self._hot: set[tuple[int, str]] = set()
        #: True when a queue handle escaped through :meth:`queue_for`
        #: (so ``_hot`` may under-report); the next active network phase
        #: rescans every binding and rebuilds ``_hot`` from the queues.
        self._hot_stale = True
        #: (channel, in_port) -> binding, rebuilt with ``_bindings``.
        self._binding_map: dict[tuple[int, str], _Binding] = {}
        #: Set by the owning fabric: called when a queue is created or
        #: handed out, marking this router active (so words appended to
        #: a queue obtained via :meth:`queue_for` are never invisible
        #: to the active-set engine).
        self._touch = None

    def set_route(self, channel: int, in_port: str, out_ports) -> None:
        """Configure: words on ``channel`` arriving at ``in_port`` fan out
        to ``out_ports`` (offline routing, as the compiler would)."""
        key = (int(channel), in_port)
        outs = tuple(out_ports)
        for p in (in_port, *outs):
            if p not in Port.ALL:
                raise ValueError(f"unknown port {p!r}")
        if key in self.routes and self.routes[key] != outs:
            raise ValueError(
                f"router ({self.x},{self.y}) channel {channel} port {in_port} "
                f"already routed to {self.routes[key]}, cannot re-route to {outs}"
            )
        self.routes[key] = outs
        self._version += 1

    def queue_for(self, channel: int, in_port: str) -> deque:
        key = (int(channel), in_port)
        q = self.queues.get(key)
        if q is None:
            q = self.queues[key] = deque()
            self._version += 1
        if self._touch is not None:
            self._touch()
        return q

    def occupancy(self) -> int:
        """Words currently buffered in this router."""
        return sum(len(q) for q in self.queues.values())


class Fabric:
    """A rectangular mesh of routers with attached cores.

    Cores are any objects exposing ``deliver(channel, value)``,
    ``poll_tx(channel)`` and ``tx_channels()`` (see
    :class:`repro.wse.core.Core`); tiles may also be left core-less for
    pure routing experiments.

    The simulator maintains *active sets* — routers with queued words,
    cores that may make progress, cores with pending egress words — and
    each :meth:`step` touches only those tiles.  Cores advertising a
    ``can_sleep()`` method (:class:`repro.wse.core.Core`,
    :class:`repro.wse.allreduce.ReduceCore`) are removed from the sweep
    after a cycle in which nothing happened and re-woken by the events
    that can unstall them (word delivery, egress drain, task
    activation); cores without it are stepped every cycle, exactly as
    the reference engine would.
    """

    def __init__(self, width: int, height: int, queue_capacity: int = 8):
        if width <= 0 or height <= 0:
            raise ValueError("fabric dimensions must be positive")
        self.width = width
        self.height = height
        self.routers = [
            [Router(x, y, queue_capacity) for x in range(width)] for y in range(height)
        ]
        self.cores: list[list[object | None]] = [
            [None] * width for _ in range(height)
        ]
        self.cycle = 0
        #: Cumulative words delivered to destinations (fanout counted
        #: per destination; see module docstring).
        self.total_words_moved = 0
        #: Engine selector: "active" (default) or "reference".
        self.engine = "active"
        self.stats = FabricStats()
        #: Optional :class:`repro.wse.analyze.contracts.StaticContract`
        #: attached by the analyzer's contract pass.  The runtime only
        #: reads it to *name* the statically-predicted channel-dependency
        #: cycle when diagnosing a :class:`FabricDeadlockError`.
        self.static_contract = None
        #: True when the most recent network phase 0 pulled at least one
        #: egress word out of a core (i.e. injection made progress).
        #: Together with words/elements/awake-set emptiness this lets
        #: :meth:`run` prove a cycle was a *permanent* fixpoint.
        self._pulled = False
        #: Observability hook (``repro.obs.FabricObserver`` protocol):
        #: ``on_cycle(fabric, words, elements)`` per stepped cycle,
        #: ``on_skip(n)`` per fast-forwarded span.  The hot path pays a
        #: single ``is None`` test while detached.
        self.obs = None
        #: Attached :class:`repro.obs.profile.CycleProfiler`, or None.
        #: A report-time handle only — the stepping hot path never reads
        #: it (the profiler chains into :attr:`obs` and hooks each
        #: core); the replay recorder/compiled schedules use it to carry
        #: recorded wait-state ledgers across replays.
        self.profiler = None
        #: Attached :class:`repro.wse.sanitizer.RaceSanitizer`, or None.
        #: Managed by :meth:`attach_sanitizer` / :meth:`detach_sanitizer`
        #: (or per-call via ``run(sanitize=True)``).
        self.sanitizer = None
        #: Count of sanitizer attachments over the fabric's lifetime;
        #: part of the replay engine's cache-validity token (attaching a
        #: sanitizer — including ``run(sanitize=True)`` — invalidates
        #: any compiled schedule).
        self._sanitize_epoch = 0
        # ---- active sets (coords are (y, x) to match sweep order) ----
        self._active_routers: set[tuple[int, int]] = set()
        self._awake_cores: set[tuple[int, int]] = set()
        self._stalled_cores: set[tuple[int, int]] = set()
        self._tx_cores: set[tuple[int, int]] = set()
        self._core_version = 0
        self._prebound = False
        #: coord -> cached capability flags:
        #: (has_step, has_tx, can_sleep, fast_tx) where ``fast_tx``
        #: marks cores with the dict-of-deques egress layout and a
        #: ``_tx_pending`` counter (:class:`repro.wse.core.Core`),
        #: enabling the counter-based injection pull.
        self._core_caps: dict[
            tuple[int, int], tuple[bool, bool, bool, bool]
        ] = {}
        for y in range(height):
            for x in range(width):
                self.routers[y][x]._touch = self._router_toucher(x, y)

    def _router_toucher(self, x: int, y: int):
        coord = (y, x)
        add = self._active_routers.add
        router = self.routers[y][x]

        def touch() -> None:
            add(coord)
            router._hot_stale = True

        return touch

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def router(self, x: int, y: int) -> Router:
        return self.routers[y][x]

    def attach_core(self, x: int, y: int, core) -> None:
        self.cores[y][x] = core
        self._core_version += 1
        coord = (y, x)
        self._core_caps[coord] = (
            hasattr(core, "step"),
            hasattr(core, "tx_channels"),
            hasattr(core, "can_sleep"),
            isinstance(getattr(core, "_tx", None), dict)
            and hasattr(core, "_tx_pending"),
        )
        self._awake_cores.add(coord)
        self._stalled_cores.discard(coord)
        # Let the core wake itself on external events (task activation,
        # instruction launch, injection) while the engine has it asleep.
        try:
            core.on_wake = self._core_waker(x, y)
        except AttributeError:  # pragma: no cover - exotic core objects
            pass

    def _core_waker(self, x: int, y: int):
        coord = (y, x)
        awake = self._awake_cores
        stalled = self._stalled_cores

        def wake() -> None:
            awake.add(coord)
            stalled.discard(coord)

        return wake

    def core(self, x: int, y: int):
        return self.cores[y][x]

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def neighbor(self, x: int, y: int, port: str) -> tuple[int, int] | None:
        dx, dy = DIRECTION[port]
        nx, ny = x + dx, y + dy
        return (nx, ny) if self.in_bounds(nx, ny) else None

    # ------------------------------------------------------------------
    # Observability accessors (the public face of the active sets)
    # ------------------------------------------------------------------
    def credit_map(self) -> dict[tuple[int, int, int, str], int]:
        """Static credit capacities: ``(x, y, channel, in_port) -> words``.

        One entry per configured route key.  Each key names a bounded
        router FIFO whose free slots are the credits an upstream hop
        must hold before forwarding into it — exactly the resources the
        Dally–Seitz channel-dependency-graph pass
        (:func:`repro.wse.analyze.cdg.cdg_pass`) builds its nodes from.
        """
        out: dict[tuple[int, int, int, str], int] = {}
        for y in range(self.height):
            for x in range(self.width):
                router = self.routers[y][x]
                cap = router.queue_capacity
                for channel, in_port in router.routes:
                    out[(x, y, channel, in_port)] = cap
        return out

    def active_routers(self) -> list[Router]:
        """Routers that may hold queued words this cycle.

        The engine invariant (both engines maintain it): any router
        with a non-empty queue is in the active set, so scanning this
        list — O(active), not O(width x height) — is sufficient for
        occupancy sampling.  The set is pruned lazily, so some listed
        routers may already be empty.
        """
        routers = self.routers
        return [routers[y][x] for (y, x) in self._active_routers]

    def stalled_core_count(self) -> int:
        """How many cores hold stalled instructions right now."""
        return len(self._stalled_cores)

    def stalled_core_coords(self) -> list[tuple[int, int]]:
        """(x, y) of every core holding a stalled instruction."""
        return sorted((x, y) for (y, x) in self._stalled_cores)

    # ------------------------------------------------------------------
    # Route bindings (cached, resolved routing decisions)
    # ------------------------------------------------------------------
    def _bindings_for(self, router: Router) -> list[_Binding]:
        key = (router._version, self._core_version)
        if router._bindings_key == key:
            return router._bindings
        entries: list[_Binding] = []
        x, y = router.x, router.y
        out_bits: dict[tuple[int, str], int] = {}
        conflicts = False
        for qkey in sorted(router.queues):
            channel, in_port = qkey
            b = _Binding(qkey, router.queues[qkey], (y, x), router._hot)
            route = router.routes.get(qkey)
            b.route = route
            if route is not None:
                b.out_keys = tuple((channel, p) for p in route)
                mask = 0
                for ok_key in b.out_keys:
                    bit = out_bits.get(ok_key)
                    if bit is None:
                        out_bits[ok_key] = bit = 1 << len(out_bits)
                    else:
                        conflicts = True
                    mask |= bit
                b.out_mask = mask
                qdests = []
                cdests = []
                for out_port in route:
                    if out_port == Port.CORE:
                        core = self.cores[y][x]
                        if core is None:
                            b.error = (
                                f"route delivers to missing core at ({x},{y})"
                            )
                            break
                        # Capture the subscriber dict (stable object,
                        # contents live) so delivery can skip the method
                        # call; duck-typed cores (no subscriber map) and
                        # unsubscribed channels go through deliver().
                        cdests.append((
                            core, channel,
                            getattr(core, "_subscribers", None),
                        ))
                    else:
                        nb = self.neighbor(x, y, out_port)
                        if nb is None:
                            b.error = (
                                f"route at ({x},{y}) sends channel {channel} "
                                f"off the fabric via port {out_port}"
                            )
                            break
                        nxr = self.routers[nb[1]][nb[0]]
                        dkey = (channel, OPPOSITE[out_port])
                        dq = nxr.queue_for(channel, OPPOSITE[out_port])
                        qdests.append((dq, nxr.queue_capacity,
                                       (nb[1], nb[0]), nxr._hot, dkey))
                if b.error is None:
                    b.qdests = tuple(qdests)
                    b.cdests = tuple(cdests)
                    b.n_dests = len(qdests) + len(cdests)
            entries.append(b)
        router._bindings = entries
        router._binding_map = {b.key: b for b in entries}
        router._conflicts = conflicts
        router._bindings_key = key
        return entries

    def prebind(self) -> None:
        """Resolve every router's route bindings ahead of stepping.

        Binding construction creates destination queues on neighbouring
        routers, which bumps their topology versions and would cascade
        lazy rebinds through the first simulated cycles.  This method
        creates the queue for every routed (channel, in_port) key and
        builds all binding caches to a fixed point, so the measured run
        does no binding work at all.  Kernel builders call it after
        routing compilation and core attachment; the active-set engine
        also invokes it lazily on the first step.
        """
        routers = self.routers
        for row in routers:
            for r in row:
                queues = r.queues
                created = False
                for key in r.routes:
                    if key not in queues:
                        queues[key] = deque()
                        created = True
                if created:
                    r._version += 1
        # Queue creation during binding only happens on the first pass;
        # the second pass rebinds routers it touched, and the third
        # verifies the fixed point.
        core_version = self._core_version
        for _ in range(3):
            stable = True
            for row in routers:
                for r in row:
                    bk = r._bindings_key
                    if bk is None or bk != (r._version, core_version):
                        self._bindings_for(r)
                        stable = False
            if stable:
                break
        self._prebound = True

    # ------------------------------------------------------------------
    # Simulation — active-set engine
    # ------------------------------------------------------------------
    def step_network(self) -> int:
        """One network cycle: ingest injections, then move words one hop.

        Two-phase (decide from cycle-start state, then apply) so a word
        moves exactly one hop per cycle regardless of iteration order.
        Returns the number of words delivered to destinations.
        """
        routers = self.routers
        cores = self.cores
        active_routers = self._active_routers
        awake = self._awake_cores
        tx_cores = self._tx_cores
        self._pulled = False

        # Phase 0: pull core injections into the router CORE-port queues.
        if tx_cores or awake:
            caps = self._core_caps
            stalled = self._stalled_cores
            if tx_cores:
                candidates = sorted(tx_cores | awake) if awake else sorted(tx_cores)
            else:
                candidates = sorted(awake)
            for coord in candidates:
                y, x = coord
                core = cores[y][x]
                cap_entry = caps[coord] if core is not None else None
                if cap_entry is None or not cap_entry[1]:
                    tx_cores.discard(coord)
                    continue
                if cap_entry[3]:
                    # Counter-based pull: one word per non-empty egress
                    # queue, exactly like the tx_channels() sweep below.
                    pending = core._tx_pending
                    if not pending:
                        tx_cores.discard(coord)
                        continue
                    router = routers[y][x]
                    core_in = router._core_in
                    cap = router.queue_capacity
                    hot_add = router._hot.add
                    pulled = False
                    for channel, cq in core._tx.items():
                        if not cq:
                            continue
                        q = core_in.get(channel)
                        if q is None:
                            q = core_in[channel] = router.queue_for(
                                channel, Port.CORE
                            )
                        if len(q) < cap:
                            q.append(cq.popleft())
                            hot_add((channel, Port.CORE))
                            pending -= 1
                            pulled = True
                    core._tx_pending = pending
                    active_routers.add(coord)
                    if pulled:
                        # Egress space freed: a core stalled on TX
                        # back-pressure may now proceed.
                        self._pulled = True
                        awake.add(coord)
                        stalled.discard(coord)
                    if not pending:
                        tx_cores.discard(coord)
                    continue
                chans = core.tx_channels()
                if not chans:
                    tx_cores.discard(coord)
                    continue
                router = routers[y][x]
                core_in = router._core_in
                cap = router.queue_capacity
                hot_add = router._hot.add
                pulled = False
                for channel in list(chans):
                    q = core_in.get(channel)
                    if q is None:
                        q = core_in[channel] = router.queue_for(channel, Port.CORE)
                    if len(q) < cap:
                        v = core.poll_tx(channel)
                        if v is not None:
                            q.append(v)
                            hot_add((channel, Port.CORE))
                            pulled = True
                active_routers.add(coord)
                if pulled:
                    self._pulled = True
                    awake.add(coord)
                    stalled.discard(coord)
                if not core.tx_channels():
                    tx_cores.discard(coord)

        if not active_routers:
            return 0

        # Phase 1: stage moves based on cycle-start queue contents.
        moves: list = []
        moves_append = moves.append
        planned: dict[int, int] = {}
        planned_get = planned.get
        core_version = self._core_version
        for coord in sorted(active_routers):
            y, x = coord
            router = routers[y][x]
            bk = router._bindings_key
            if bk is None or bk[0] != router._version or bk[1] != core_version:
                self._bindings_for(router)
                router._hot_stale = True
            hot = router._hot
            if router._hot_stale:
                # A queue handle escaped (test seeding, rebind, reference
                # interleave): rebuild the work list from a full scan.
                cand = router._bindings
                hot.clear()
                rescan = True
                router._hot_stale = False
            elif hot:
                cand = router._bindings
                if 2 * len(hot) >= len(cand):
                    # Dense router: most bindings have queued words, so a
                    # plain scan (bindings are already in deterministic
                    # sorted-key order) beats sorting the hot set and
                    # chasing map lookups.
                    hot.clear()
                    rescan = True
                else:
                    bmap = router._binding_map
                    cand = [bmap[k] for k in sorted(hot)] if len(hot) > 1 \
                        else (bmap[next(iter(hot))],)
                    rescan = False
            else:
                active_routers.discard(coord)
                continue
            out_used = 0
            conflicts = router._conflicts
            hot_add = hot.add
            moved = 0
            for b in cand:
                q = b.queue
                if not q:
                    if not rescan:
                        hot.discard(b.key)
                    continue
                if rescan:
                    hot_add(b.key)
                if b.route is None:
                    channel, in_port = b.key
                    raise RuntimeError(
                        f"word on channel {channel} at router ({x},{y}) "
                        f"port {in_port} has no configured route"
                    )
                if b.error is not None:
                    raise RuntimeError(b.error)
                if conflicts and out_used & b.out_mask:
                    continue
                ok = True
                for dq, cap, _, _, _ in b.qdests:
                    if len(dq) + planned_get(id(dq), 0) >= cap:
                        ok = False
                        break
                if not ok:
                    continue
                if conflicts:
                    out_used |= b.out_mask
                for dq, _, _, _, _ in b.qdests:
                    planned[id(dq)] = planned_get(id(dq), 0) + 1
                moves_append((q, q[0], b))
                moved += b.n_dests
            if moved:
                router.words_moved += moved
            if not hot:
                active_routers.discard(coord)

        # Phase 2: apply.
        delivered = 0
        stalled = self._stalled_cores
        active_add = active_routers.add
        awake_add = awake.add
        stalled_discard = stalled.discard
        for q, value, b in moves:
            q.popleft()
            if not q:
                b.hot.discard(b.key)
            for dq, _, dcoord, dhot, dkey in b.qdests:
                dq.append(value)
                dhot.add(dkey)
                active_add(dcoord)
            if b.cdests:
                for core, channel, subs_map in b.cdests:
                    # Inline of Core.deliver (hot path): append to every
                    # live subscriber queue; duck-typed cores and the
                    # no-subscriber diagnostic go through deliver().
                    subs = subs_map.get(channel) if subs_map is not None \
                        else None
                    if subs:
                        for sq in subs:
                            sq.append(value)
                    else:
                        core.deliver(channel, value)
                awake_add(b.coord)
                stalled_discard(b.coord)
            delivered += b.n_dests
        self.total_words_moved += delivered
        return delivered

    def _step_cores_active(self) -> int:
        elements = 0
        awake = self._awake_cores
        if not awake:
            return 0
        cores = self.cores
        caps = self._core_caps
        tx_cores = self._tx_cores
        stalled = self._stalled_cores
        for coord in sorted(awake):
            core = cores[coord[0]][coord[1]]
            if core is None:
                awake.discard(coord)
                continue
            has_step, has_tx, sleepable, fast_tx = caps[coord]
            if has_step:
                elements += core.step()
            if has_tx:
                if core._tx_pending if fast_tx else core.tx_channels():
                    tx_cores.add(coord)
            if sleepable and core.can_sleep():
                awake.discard(coord)
                if not getattr(core, "idle", True):
                    stalled.add(coord)
        return elements

    def step(self) -> dict:
        """One full cycle: network then all active cores.  Returns stats."""
        if self.engine == "reference":
            return self.step_reference()
        if not self._prebound:
            self.prebind()
        stats = self.stats
        if not self._active_routers and not self._tx_cores \
                and not self._awake_cores:
            # Nothing can move: fast-forward this cycle in O(1).
            self.cycle += 1
            stats.cycles += 1
            stats.skipped_cycles += 1
            if stats.record_trace:
                stats.trace.append((0, 0))
            if self.obs is not None:
                self.obs.on_skip(1)
            return {"words_moved": 0, "elements": 0}
        n_routers = len(self._active_routers)
        n_cores = len(self._awake_cores)
        stats.active_router_cycles += n_routers
        stats.active_core_cycles += n_cores
        if n_routers > stats.peak_active_routers:
            stats.peak_active_routers = n_routers
        if n_cores > stats.peak_active_cores:
            stats.peak_active_cores = n_cores
        if stats.record_trace:
            stats.trace.append((n_routers, n_cores))
        words = self.step_network()
        elements = self._step_cores_active()
        self.cycle += 1
        stats.cycles += 1
        if self.obs is not None:
            self.obs.on_cycle(self, words, elements)
        return {"words_moved": words, "elements": elements}

    def skip_cycles(self, n: int) -> None:
        """Fast-forward ``n`` cycles of an inert fabric in O(1).

        Valid only when nothing can move (no queued words, no pending
        egress, no runnable core); raises ``ValueError`` otherwise.
        """
        if n < 0:
            raise ValueError("cannot skip a negative number of cycles")
        if self._active_routers or self._tx_cores or self._awake_cores:
            # Awake-but-idle cores would only burn no-op sweep cycles;
            # quiescent() proves that (and lazily prunes the sets).
            if not self.quiescent():
                raise ValueError(
                    "skip_cycles on a fabric with pending work; "
                    "step() it instead"
                )
        self.cycle += n
        self.stats.cycles += n
        self.stats.skipped_cycles += n
        if self.obs is not None and n:
            self.obs.on_skip(n)

    # ------------------------------------------------------------------
    # Simulation — reference engine (the original full sweep)
    # ------------------------------------------------------------------
    def step_reference(self) -> dict:
        """One full cycle via the naive O(width x height) sweep.

        The pre-active-set implementation, kept verbatim as the
        equivalence oracle.  Maintains the same active-set bookkeeping
        so the two engines may be interleaved on one fabric.
        """
        words = self._step_network_reference()
        elements = 0
        stats = self.stats
        stats.active_router_cycles += self.width * self.height
        stats.active_core_cycles += self.width * self.height
        caps = self._core_caps
        tx_cores = self._tx_cores
        awake = self._awake_cores
        stalled = self._stalled_cores
        for y in range(self.height):
            for x in range(self.width):
                core = self.cores[y][x]
                if core is None:
                    continue
                coord = (y, x)
                has_step, has_tx, sleepable, _fast_tx = caps[coord]
                if has_step:
                    elements += core.step()
                if has_tx and core.tx_channels():
                    tx_cores.add(coord)
                if sleepable and core.can_sleep():
                    awake.discard(coord)
                    if not getattr(core, "idle", True):
                        stalled.add(coord)
                else:
                    awake.add(coord)
                    stalled.discard(coord)
        self.cycle += 1
        stats.cycles += 1
        if self.obs is not None:
            self.obs.on_cycle(self, words, elements)
        return {"words_moved": words, "elements": elements}

    def _step_network_reference(self) -> int:
        """Reference network cycle (full sweep, no binding cache)."""
        # Phase 0: pull core injections into the router CORE-port queues.
        self._pulled = False
        for y in range(self.height):
            for x in range(self.width):
                core = self.cores[y][x]
                if core is None:
                    continue
                router = self.routers[y][x]
                for channel in list(core.tx_channels()):
                    q = router.queue_for(channel, Port.CORE)
                    if len(q) < router.queue_capacity:
                        v = core.poll_tx(channel)
                        if v is not None:
                            q.append(v)
                            self._pulled = True
                            self._active_routers.add((y, x))

        # Phase 1: stage moves based on cycle-start queue contents.
        moves: list = []
        out_used: set[tuple[int, int, int, str]] = set()
        planned: dict[int, int] = {}

        for y in range(self.height):
            for x in range(self.width):
                router = self.routers[y][x]
                # Reference stepping bypasses hot-key maintenance; force
                # the active engine to rescan if the two are interleaved.
                router._hot_stale = True
                for (channel, in_port), q in sorted(
                    router.queues.items(), key=lambda kv: (kv[0][0], kv[0][1])
                ):
                    if not q:
                        continue
                    route = router.routes.get((channel, in_port))
                    if route is None:
                        raise RuntimeError(
                            f"word on channel {channel} at router ({x},{y}) "
                            f"port {in_port} has no configured route"
                        )
                    # Check every fanout destination is available.
                    dests = []
                    ok = True
                    for out_port in route:
                        if (x, y, channel, out_port) in out_used:
                            ok = False
                            break
                        if out_port == Port.CORE:
                            core = self.cores[y][x]
                            if core is None:
                                raise RuntimeError(
                                    f"route delivers to missing core at ({x},{y})"
                                )
                            dests.append(("core", (core, channel, (y, x))))
                        else:
                            nb = self.neighbor(x, y, out_port)
                            if nb is None:
                                raise RuntimeError(
                                    f"route at ({x},{y}) sends channel {channel} "
                                    f"off the fabric via port {out_port}"
                                )
                            nxr = self.routers[nb[1]][nb[0]]
                            dq = nxr.queue_for(channel, OPPOSITE[out_port])
                            if len(dq) + planned.get(id(dq), 0) >= nxr.queue_capacity:
                                ok = False
                                break
                            dests.append(("queue", (dq, (nb[1], nb[0]))))
                    if not ok:
                        continue
                    for out_port in route:
                        out_used.add((x, y, channel, out_port))
                    for kind, payload in dests:
                        if kind == "queue":
                            dq = payload[0]
                            planned[id(dq)] = planned.get(id(dq), 0) + 1
                    moves.append((q, q[0], dests))
                    router.words_moved += len(dests)

        # Phase 2: apply.
        delivered = 0
        for q, value, dests in moves:
            q.popleft()
            for kind, payload in dests:
                if kind == "queue":
                    dq, dcoord = payload
                    dq.append(value)
                    self._active_routers.add(dcoord)
                else:
                    core, channel, dcoord = payload
                    core.deliver(channel, value)
                    self._awake_cores.add(dcoord)
                    self._stalled_cores.discard(dcoord)
            delivered += len(dests)
        self.total_words_moved += delivered
        return delivered

    # ------------------------------------------------------------------
    # Quiescence and the run loop
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No words in flight and every attached core idle.

        Read-only: stale ``_active_routers`` / ``_tx_cores`` entries are
        left for the next ``step()`` to discard (each phase prunes its
        own set by per-coordinate state), which keeps every engine's
        activity statistics bit-identical.
        """
        for coord in self._active_routers:
            router = self.routers[coord[0]][coord[1]]
            for q in router.queues.values():
                if q:
                    return False
        for coord in self._tx_cores:
            core = self.cores[coord[0]][coord[1]]
            if core is not None and core.tx_channels():
                return False
        if self._stalled_cores:
            return False
        for coord in self._awake_cores:
            core = self.cores[coord[0]][coord[1]]
            if core is None:
                continue
            if hasattr(core, "idle") and not core.idle:
                return False
            if self._core_caps[coord][1] and core.tx_channels():
                return False
        return True

    def _cdg_note(self) -> str:
        """Name the statically-predicted CDG cycle(s), when the program's
        attached :class:`StaticContract` carried any."""
        cycles = getattr(self.static_contract, "cdg_cycles", None)
        if not cycles:
            return ""
        from .analyze.cdg import format_cdg_cycle

        shown = "; ".join(format_cdg_cycle(c) for c in cycles[:2])
        more = "" if len(cycles) <= 2 else f" (+{len(cycles) - 2} more)"
        return (
            " — static analysis predicted this: channel dependency "
            f"cycle {shown}{more}"
        )

    def _diagnose_deadlock(self, until_given: bool) -> str:
        queued = 0
        for coord in self._active_routers:
            queued += self.routers[coord[0]][coord[1]].occupancy()
        stalled_part = ""
        if self._stalled_cores:
            coords = sorted(self._stalled_cores)
            shown = ", ".join(f"({x},{y})" for y, x in coords[:8])
            more = "" if len(coords) <= 8 else f" (+{len(coords) - 8} more)"
            stalled_part = (
                f"cores {shown}{more} hold stalled instructions that no "
                "event can unstall (missing sender, or a completion/"
                "activation that never fires?)"
            )
        if queued:
            return (
                f"fabric deadlocked at cycle {self.cycle}: {queued} word(s) "
                "wedged in router queues with every forward hop blocked on "
                "a full destination FIFO (a credit cycle: each hop waits "
                "for space the next hop can never free)"
                + (f"; {stalled_part}" if stalled_part else "")
                + self._cdg_note()
            )
        if stalled_part:
            return (
                f"fabric deadlocked at cycle {self.cycle}: no words in "
                f"flight, but {stalled_part}" + self._cdg_note()
            )
        tail = (
            "the until(...) predicate is still false"
            if until_given
            else "the run cannot finish"
        )
        return (
            f"fabric is fully quiescent at cycle {self.cycle} but {tail} "
            "(did the program terminate without raising its completion "
            "flags, or is the predicate watching the wrong state?)"
        )

    def attach_sanitizer(self, sanitizer=None, metrics=None):
        """Attach a runtime race sanitizer to every attached core.

        Creates a :class:`repro.wse.sanitizer.RaceSanitizer` (optionally
        accounting into ``metrics``) unless one is passed in.  The
        sanitizer persists across :meth:`run` calls — each run's normal
        return acts as a host barrier — until :meth:`detach_sanitizer`.
        For a single sanitized run, prefer ``run(sanitize=True)``.
        """
        if self.sanitizer is not None:
            raise RuntimeError("a sanitizer is already attached")
        # Sanitized stepping pre-empts any schedule recording, so a
        # replay cache built earlier can no longer claim to model what
        # runs next; bumping the epoch invalidates it (replay sessions
        # fold this into their mutation token).
        self._sanitize_epoch += 1
        if sanitizer is None:
            from .sanitizer import RaceSanitizer

            sanitizer = RaceSanitizer(metrics=metrics)
        try:
            sanitizer.attach(
                ((y, x), core)
                for y in range(self.height)
                for x in range(self.width)
                if (core := self.cores[y][x]) is not None
            )
        except BaseException:
            # Already-launched instructions can race at attach time;
            # unhook the partially-attached cores before propagating.
            sanitizer.detach()
            raise
        self.sanitizer = sanitizer
        return sanitizer

    def detach_sanitizer(self):
        """Detach and return the attached sanitizer (None when absent)."""
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.detach()
            self.sanitizer = None
        return sanitizer

    def run(self, max_cycles: int = 100_000, until=None, on_cycle=None,
            sanitize: bool = False) -> int:
        """Step until ``until(fabric)`` is true or the fabric quiesces.

        Returns the cycle count.  Raises
        :class:`FabricDeadlockError` the moment the fabric can make no
        further progress while the run is unfinished (wedged programs
        fail in one cycle, not after ``max_cycles`` no-op sweeps), and
        ``RuntimeError`` on timeout.

        ``on_cycle(fabric)``, when given, is invoked after every stepped
        cycle — *before* the completion and deadlock checks, so an
        observer sees the final (possibly stuck) cycle and a partial
        trace survives a :class:`FabricDeadlockError`.

        ``sanitize=True`` attaches a race sanitizer for the duration of
        this call (see :mod:`repro.wse.sanitizer`), raising
        :class:`~repro.wse.sanitizer.FabricRaceError` on the first
        unordered conflicting pair of tile-memory accesses.  Sanitized
        runs are bit-identical to unsanitized ones.
        """
        if sanitize and self.sanitizer is None:
            self.attach_sanitizer()
            try:
                return self.run(max_cycles, until, on_cycle)
            finally:
                self.detach_sanitizer()
        step = self.step
        for _ in range(max_cycles):
            r = step()
            if on_cycle is not None:
                on_cycle(self)
            # A cycle in which no word moved, no element was processed,
            # no egress word was pulled, and every core is asleep is a
            # *permanent* fixpoint: staging decisions depend only on
            # queue state (unchanged), and nothing can wake a sleeping
            # core but a delivery or a drained egress (none happened).
            # This is how a full credit ring — whose queues keep the
            # active sets non-empty forever — is caught in one cycle.
            wedged = (
                not r["words_moved"]
                and not r["elements"]
                and not self._pulled
                and not self._awake_cores
            )
            if until is not None:
                if until(self):
                    if self.sanitizer is not None:
                        self.sanitizer.barrier()
                    return self.cycle
                if not self._active_routers and not self._tx_cores:
                    if not self._awake_cores or self.quiescent():
                        raise FabricDeadlockError(self._diagnose_deadlock(True))
                elif wedged and not self.quiescent():
                    raise FabricDeadlockError(self._diagnose_deadlock(True))
            elif self.quiescent():
                if self.sanitizer is not None:
                    self.sanitizer.barrier()
                return self.cycle
            elif not self._active_routers and not self._tx_cores \
                    and not self._awake_cores:
                raise FabricDeadlockError(self._diagnose_deadlock(False))
            elif wedged:
                raise FabricDeadlockError(self._diagnose_deadlock(False))
        raise RuntimeError(
            f"fabric did not quiesce within {max_cycles} cycles "
            "(deadlock or livelock in the routing program?)"
        )
