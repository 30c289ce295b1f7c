"""Whole-program happens-before race detection over the declaration IR.

The paper's tiles overlap communication and compute by running DSR
microthreads concurrently with scheduled tasks (section II.A), which is
exactly where async wafer codes hide — or corrupt — their latency.  The
``dsr`` pass checks slot conflicts *within one task* (and this pass
leaves those pairs to it); this pass closes the rest of the loop: it
builds a **happens-before graph** over every declared instruction on
the fabric and reports any *cross-task* pair of same-core instructions
that (a) may happen in parallel and (b) touch overlapping exact strided
``MemRef`` footprints with at least one writer.

Happens-before edges
--------------------
* **Program order** — an instruction's start precedes its end; two
  launches on the *same* thread slot within one task run in launch
  order (the main queue is a FIFO; a background slot must free before
  it can be reused).
* **Task activation** — a task's run node precedes each of its
  launches.  When a not-initially-activated task has exactly **one**
  activator (a completion trigger, another task's body action, or a
  FIFO push wired to it), that activator precedes the task's run; same
  for the sole unblocker of an initially-blocked task.  Multiple
  activators are *not* ordered (any one alone suffices to schedule the
  task), so no edge is added — the analysis stays sound for reporting.
* **Stream delivery** — a receive descriptor finishes only after
  consuming its full extent, so under flow-conserving routing (the
  ``flow`` pass checks exactly this) every transmit instruction whose
  stream reaches the receiver's tile finishes before the receive's end
  node.  AllReduce-style phase ordering needs nothing special: its
  phases are consecutive main-queue launches, ordered by program order.
* **FIFO data** — a pop's end follows every pusher's end, for the same
  full-extent reason.

May-happen-in-parallel pairs are then intersected exactly
(:func:`~repro.wse.analyze.passes.strided_overlap_witness` — GCD/CRT,
never envelopes) and each surviving conflict becomes a ``race``
diagnostic whose ``data`` field carries a machine-readable witness: the
two accesses, a concrete shared element index, and the missing
happens-before edge.  :func:`confirm_race` cuts a minimal program from
that witness and validates it against the runtime sanitizer
(:mod:`repro.wse.sanitizer`) under the DES engine, mirroring
:func:`repro.wse.analyze.cdg.synthesize_counterexample`.

Known model limits (documented, deliberate): tasks are analyzed as
single-shot (re-activation loops reuse the same static ordering), and
two main-queue instructions from *different* tasks are never reported —
the main queue serializes them, so an overlap there is a determinacy
question (which order?) rather than concurrent memory corruption, and
the runtime sanitizer (correctly) never trips on them.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Severity
from .passes import (
    _decl_cores,
    _decl_of,
    _delivery_multiplicity,
    strided_overlap_witness,
)
from .routing import forwarding_graph, routes_by_channel
from .spec import BUILD_LAUNCH, FabricRef, FifoRef, MemRef
from ...api import RunOptions
from ..dsr import Action
from ..execute import run_live
from ..fabric import Fabric, Port

__all__ = [
    "HBGraph",
    "build_hb_graph",
    "races_pass",
    "synthesize_race_program",
    "confirm_race",
]


class HBGraph:
    """A happens-before DAG with memoized reachability.

    Nodes are tuples: ``(pos, "t", task)`` for a task's run point and
    ``(pos, "i", task, idx, "s"|"e")`` for the start/end of the
    ``idx``-th launch of ``task`` on the core at ``pos``.  Reachability
    is answered by BFS with full descendant memoization per queried
    source — race queries ask about few sources but many targets.
    """

    def __init__(self) -> None:
        self.succ: dict[tuple, set] = {}
        self._desc: dict[tuple, frozenset] = {}

    def edge(self, a: tuple, b: tuple) -> None:
        self.succ.setdefault(a, set()).add(b)
        self._desc.clear()  # edges invalidate memoized reachability

    def reaches(self, a: tuple, b: tuple) -> bool:
        """True when a happens-before path leads from ``a`` to ``b``."""
        desc = self._desc.get(a)
        if desc is None:
            seen: set = set()
            frontier = [a]
            succ = self.succ
            while frontier:
                node = frontier.pop()
                for nxt in succ.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            desc = frozenset(seen)
            self._desc[a] = desc
        return b in desc


def _initial_state(scheduler, name: str) -> tuple[bool, bool]:
    """A task's build-time ``(activated, blocked)`` scheduler state.

    Unknown tasks (declaration drift — the ``tasks`` pass reports it)
    default to not-activated/not-blocked, which only ever *removes*
    ordering edges: conservative for race reporting.
    """
    try:
        if scheduler is None or name not in scheduler:
            return (False, False)
        return (scheduler.is_activated(name), scheduler.is_blocked(name))
    except (KeyError, TypeError):
        return (False, False)


def build_hb_graph(fabric: Fabric, cores) -> HBGraph:
    """Construct the whole-fabric happens-before graph (see module doc)."""
    g = HBGraph()
    decl_cores = _decl_cores(cores)
    # Stream endpoints for the cross-core delivery edges.
    tx_by_channel: dict[int, list] = {}     # ch -> [(pos, end node)]
    rx_by_chan_pos: dict[tuple, list] = {}  # (ch, pos) -> [end node]

    for pos, core in decl_cores:
        decl = _decl_of(core)
        scheduler = getattr(core, "scheduler", None)
        fifos = dict(getattr(core, "fifos", {}) or {})
        activators: dict[str, list] = {}  # task -> [source nodes]
        unblockers: dict[str, list] = {}
        fifo_push_ends: dict[str, list] = {}
        fifo_pop_ends: dict[str, list] = {}

        for tname, task in decl.tasks.items():
            run = (pos, "t", tname)
            for target, action in task.actions:
                if action is Action.ACTIVATE:
                    activators.setdefault(target, []).append(run)
                elif action is Action.UNBLOCK:
                    unblockers.setdefault(target, []).append(run)
            last_on_slot: dict = {}
            for idx, instr in enumerate(task.launches):
                start = (pos, "i", tname, idx, "s")
                end = (pos, "i", tname, idx, "e")
                g.edge(start, end)
                g.edge(run, start)
                slot = "main" if instr.thread is None else instr.thread
                prev = last_on_slot.get(slot)
                if prev is not None:
                    g.edge(prev, start)
                last_on_slot[slot] = end
                for target, action in instr.completions:
                    if action is Action.ACTIVATE:
                        activators.setdefault(target, []).append(end)
                    elif action is Action.UNBLOCK:
                        unblockers.setdefault(target, []).append(end)
                if isinstance(instr.dst, FabricRef):
                    tx_by_channel.setdefault(instr.dst.channel, []).append(
                        (pos, end)
                    )
                elif isinstance(instr.dst, FifoRef):
                    fifo_push_ends.setdefault(instr.dst.fifo, []).append(end)
                    fifo = fifos.get(instr.dst.fifo)
                    act = getattr(fifo, "activates", None)
                    if act:
                        # A push can schedule the drain after its first
                        # word, before the push finishes: only the
                        # push's *start* precedes the drain's run.
                        activators.setdefault(act, []).append(start)
                for src in instr.srcs:
                    if isinstance(src, FabricRef):
                        rx_by_chan_pos.setdefault(
                            (src.channel, pos), []
                        ).append(end)
                    elif isinstance(src, FifoRef):
                        fifo_pop_ends.setdefault(src.fifo, []).append(end)

        for tname in decl.tasks:
            if tname == BUILD_LAUNCH:
                continue  # build-time launches are always runnable
            run = (pos, "t", tname)
            activated, blocked = _initial_state(scheduler, tname)
            if not activated:
                acts = activators.get(tname, ())
                if len(acts) == 1:
                    g.edge(acts[0], run)
            if blocked:
                unbs = unblockers.get(tname, ())
                if len(unbs) == 1:
                    g.edge(unbs[0], run)

        for fname, pops in fifo_pop_ends.items():
            for push_end in fifo_push_ends.get(fname, ()):
                for pop_end in pops:
                    g.edge(push_end, pop_end)

    # Stream delivery: a receive consumes its full extent, so it ends
    # after every transmit whose stream the routing delivers to its
    # tile ends (exact under flow conservation, which `flow` checks).
    chan_routes = routes_by_channel(fabric)
    for channel, txs in tx_by_channel.items():
        route_map = chan_routes.get(channel, {})
        graph = forwarding_graph(fabric, route_map)
        for pos, tx_end in txs:
            start = (pos, Port.CORE)
            if start not in route_map:
                continue  # the flow pass reports the missing route
            for dpos in _delivery_multiplicity(route_map, graph, start):
                for rx_end in rx_by_chan_pos.get((channel, dpos), ()):
                    g.edge(tx_end, rx_end)
    return g


def _collect_accesses(decl) -> list[tuple]:
    """Every ``MemRef`` access in a declaration, with instruction
    identity: ``(task, idx, slot, mode, ref, name)`` where mode is
    ``"w"``/``"rw"``/``"r"`` (addin/mac destinations read *and* write)."""
    accesses = []
    for tname, task in decl.tasks.items():
        for idx, instr in enumerate(task.launches):
            slot = "main" if instr.thread is None else instr.thread
            name = instr.name or instr.op
            if isinstance(instr.dst, MemRef):
                mode = "rw" if instr.op in ("addin", "mac") else "w"
                accesses.append((tname, idx, slot, mode, instr.dst, name))
            for src in instr.srcs:
                if isinstance(src, MemRef):
                    accesses.append((tname, idx, slot, "r", src, name))
    return accesses


def races_pass(fabric: Fabric, cores) -> list[Diagnostic]:
    """Report may-happen-in-parallel conflicting accesses, per core.

    Each finding's ``data`` is a machine-readable witness::

        ((task_a, name_a, slot_a, mode_a, array, offset, length, stride),
         (task_b, name_b, slot_b, mode_b, array, offset, length, stride),
         shared_index,
         ((task_a, name_a, "end"), (task_b, name_b, "start")))

    — the two accesses, one concrete element index both touch, and the
    happens-before edge whose absence makes them parallel.  Feed it to
    :func:`confirm_race` to validate against the runtime sanitizer.
    """
    decl_cores = _decl_cores(cores)
    if not decl_cores:
        return []
    g = build_hb_graph(fabric, cores)
    diags: list[Diagnostic] = []
    for pos, core in decl_cores:
        accesses = _collect_accesses(_decl_of(core))
        seen: set[tuple] = set()
        for i in range(len(accesses)):
            ta, ia, sa, ma, ra, na = accesses[i]
            for j in range(i + 1, len(accesses)):
                tb, ib, sb, mb, rb, nb = accesses[j]
                if ta == tb:
                    continue  # intra-task slot conflicts are dsr's domain
                if sa == sb:
                    continue  # same slot (or both main): serialized
                if ma == "r" and mb == "r":
                    continue
                if ra.array != rb.array:
                    continue
                witness = strided_overlap_witness(ra, rb)
                if witness is None:
                    continue
                end_a = (pos, "i", ta, ia, "e")
                start_b = (pos, "i", tb, ib, "s")
                end_b = (pos, "i", tb, ib, "e")
                start_a = (pos, "i", ta, ia, "s")
                if g.reaches(end_a, start_b) or g.reaches(end_b, start_a):
                    continue  # ordered: no race
                key = (ta, na, tb, nb, ra.array)
                if key in seen:
                    continue
                seen.add(key)
                both_write = "w" in ma and "w" in mb
                acc_a = (ta, na, sa, ma,
                         ra.array, ra.offset, ra.length, ra.stride)
                acc_b = (tb, nb, sb, mb,
                         rb.array, rb.offset, rb.length, rb.stride)
                missing = ((ta, na, "end"), (tb, nb, "start"))
                diags.append(Diagnostic(
                    Severity.ERROR, "races", "race",
                    f"instructions {na!r} (task {ta!r}, thread {sa}) and "
                    f"{nb!r} (task {tb!r}, thread {sb}) may happen in "
                    "parallel with "
                    + ("overlapping writes" if both_write
                       else "a write overlapping a read")
                    + f" on {ra.array!r} (e.g. element {witness}); no "
                    "happens-before path orders them in either direction",
                    where=pos,
                    hint="order them with a completion trigger or task "
                         "activation, or make the index sets disjoint",
                    data=(acc_a, acc_b, witness, missing),
                ))
    return diags


# ----------------------------------------------------------------------
# Witness -> minimal program -> runtime confirmation
# ----------------------------------------------------------------------
def synthesize_race_program(witness) -> Fabric:
    """Build a minimal 1-tile program reproducing a race witness.

    Takes a ``races`` diagnostic's ``data`` payload and constructs a
    single-core fabric with one allocation shaped to cover both access
    footprints, then launches the two conflicting accesses on their
    declared thread slots (reads copy out to scratch, writes copy
    scratch in), exactly the concurrency the static finding claims.
    Running it with ``sanitize=True`` must trip the vector-clock
    sanitizer at the shared element.
    """
    import numpy as np

    from ..config import CS1
    from ..core import Core
    from ..dsr import Instruction, MemCursor

    acc_a, acc_b, _index, _missing = witness
    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    array_name = acc_a[4]
    size = 1
    for _task, _name, _slot, _mode, _arr, off, length, stride in (acc_a, acc_b):
        if length > 0:
            size = max(size, off + 1, off + (length - 1) * stride + 1)
    arr = core.memory.alloc(array_name, size, dtype=np.float32)
    for k, (task, name, slot, mode, _array, off, length, stride) in enumerate(
        (acc_a, acc_b)
    ):
        scratch = core.memory.alloc(
            f"__scratch_{k}", max(length, 1), dtype=np.float32, fill=float(k + 1)
        )
        mem = MemCursor(arr, off, length, stride, name=name)
        probe = MemCursor(scratch, 0, length, 1)
        if mode == "r":
            instr = Instruction("copy", probe, [mem], length=length,
                                name=f"{task}.{name}")
        else:
            instr = Instruction("copy", mem, [probe], length=length,
                                name=f"{task}.{name}")
        core.launch(instr, None if slot == "main" else int(slot))
    return fabric


def confirm_race(diagnostic, engine: str = "active",
                 max_cycles: int = 10_000):
    """Validate a static ``race`` finding against the runtime sanitizer.

    Accepts the :class:`Diagnostic` (or its ``data`` payload), builds
    the minimal program with :func:`synthesize_race_program`, and runs
    it under ``engine`` with the sanitizer on.  Returns the raised
    :class:`~repro.wse.sanitizer.FabricRaceError`; raises
    ``RuntimeError`` if the program completes without tripping — i.e.
    if the static finding failed validation against the DES semantics.
    """
    from ..sanitizer import FabricRaceError

    data = getattr(diagnostic, "data", diagnostic)
    ce = synthesize_race_program(data)
    try:
        run_live(ce, RunOptions(engine=engine, sanitize=True), None,
                 max_cycles)
    except FabricRaceError as err:
        return err
    raise RuntimeError(
        "synthesized race program did not trip the sanitizer: the race "
        "finding failed validation against the DES engine"
    )
