"""Scalar AllReduce on the fabric (paper section IV.3, Fig. 6).

BiCGStab needs four global inner products per iteration; each requires
summing one partial scalar per core across the whole fabric and
broadcasting the result back.  The paper's routing (Fig. 6a):

1. *Row reduce* — every core sends its value toward the centre of its
   row; the two centre-column cores of each row accumulate (one datum
   per cycle each, one from each direction).
2. *Column reduce* — the per-row partials flow along the two centre
   columns toward the central four cores.
3. *4:1* — the four central partials reduce to a single root core.
4. *Broadcast* — the reverse: along the two centre columns, then across
   all rows, delivered to every core.

Why pairs of cores: "a core can add two 32-bit quantities per cycle but
can receive only one from the fabric", so splitting each row (and
column) between two sinks doubles the effective reduction bandwidth.

The route construction mirrors Fig. 6b: leaf single-tile configs are
combined with repeat / flip / stack combinators from
:mod:`repro.wse.patterns` and compiled into fabric routing tables.

Accumulation is at fp32 — the paper does "the AllReduce at 32-bit
precision" to control roundoff growth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..api import RunOptions
from .config import CS1, MachineConfig
from .execute import open_replay, run_persistent
from .fabric import Fabric
from .sanitizer import _ShadowWord
from .patterns import (
    Pattern,
    compile_to_fabric,
    hflip,
    hrep,
    hstack,
    merge,
    single,
    vflip,
    vrep,
    vstack,
)

__all__ = [
    "CH_ROW",
    "CH_COL",
    "CH_GATHER",
    "CH_BCAST",
    "allreduce_pattern",
    "ReduceCore",
    "AllReduceEngine",
    "simulate_allreduce",
    "allreduce_latency_cycles",
    "allreduce_latency_seconds",
]

# Virtual channels for the collective (distinct from SpMV channels 0-4).
CH_ROW = 10
CH_COL = 11
CH_GATHER = 12
CH_BCAST = 13


def _centers(width: int, height: int) -> tuple[int, int]:
    """Centre column pair is (cx-1, cx); centre row pair is (cy-1, cy)."""
    return width // 2, height // 2


def allreduce_pattern(width: int, height: int) -> Pattern:
    """Build the full AllReduce routing pattern for a fabric.

    Returns a merged pattern containing the row-reduce, column-reduce,
    4:1 gather, and broadcast channels.  Requires at least a 2x2 fabric.
    """
    if width < 2 or height < 2:
        raise ValueError("AllReduce pattern needs a fabric of at least 2x2")
    cx, cy = _centers(width, height)

    # ---- Row reduce (combinator construction, Fig. 6b style) ----------
    # Leaf: forward-east tile (both the core's own value and transiting
    # words continue east); sink leaf: deliver to the core.
    fwd_e = single({(CH_ROW, "C"): ("E",), (CH_ROW, "W"): ("E",)})
    sink_w = single({(CH_ROW, "W"): ("C",)})
    row = hstack(hrep(fwd_e, cx - 1), sink_w, hflip(sink_w), hrep(hflip(fwd_e), width - cx - 1))
    rows_pattern = vrep(row, height)

    # ---- Column reduce along the two centre columns -------------------
    fwd_n = single({(CH_COL, "C"): ("N",), (CH_COL, "S"): ("N",)})
    sink_s = single({(CH_COL, "S"): ("C",)})
    col = vstack(vrep(fwd_n, cy - 1), sink_s, vflip(sink_s), vrep(vflip(fwd_n), height - cy - 1))
    blank_col = vrep(single({}), height)
    cols_pattern = hstack(
        hrep(blank_col, cx - 1), col, col, hrep(blank_col, width - cx - 1)
    )

    # ---- 4:1 gather to the root (cx-1, cy-1) --------------------------
    gather = [[{} for _ in range(width)] for _ in range(height)]
    gather[cy - 1][cx] = {(CH_GATHER, "C"): ("W",), (CH_GATHER, "N"): ("W",)}
    gather[cy][cx - 1] = {(CH_GATHER, "C"): ("S",)}
    gather[cy][cx] = {(CH_GATHER, "C"): ("S",)}
    gather[cy - 1][cx - 1] = {(CH_GATHER, "E"): ("C",), (CH_GATHER, "N"): ("C",)}
    gather_pattern = Pattern(tuple(tuple(row) for row in gather))

    # ---- Broadcast (reverse: centre columns, then across rows) --------
    bc = [[{} for _ in range(width)] for _ in range(height)]

    def clip(x: int, y: int, ports: tuple) -> tuple:
        out = []
        for p in ports:
            if p == "N" and y + 1 >= height:
                continue
            if p == "S" and y - 1 < 0:
                continue
            if p == "E" and x + 1 >= width:
                continue
            if p == "W" and x - 1 < 0:
                continue
            out.append(p)
        return tuple(out)

    rx, ry = cx - 1, cy - 1  # root
    bc[ry][rx][(CH_BCAST, "C")] = clip(rx, ry, ("N", "S", "E", "W"))
    # Left centre column: fan west into each row, keep moving vertically.
    for y in range(height):
        if y == ry:
            continue
        in_port = "S" if y > ry else "N"
        cont = "N" if y > ry else "S"
        bc[y][rx][(CH_BCAST, in_port)] = clip(rx, y, (cont, "W", "C"))
    # Hand-off tile (cx, cy-1): receives from the root, feeds the right
    # centre column and its own row's east half.
    bc[ry][cx][(CH_BCAST, "W")] = clip(cx, ry, ("N", "S", "E", "C"))
    for y in range(height):
        if y == ry:
            continue
        in_port = "S" if y > ry else "N"
        cont = "N" if y > ry else "S"
        bc[y][cx][(CH_BCAST, in_port)] = clip(cx, y, (cont, "E", "C"))
    # Row arms.
    for y in range(height):
        for x in range(rx):
            bc[y][x][(CH_BCAST, "E")] = clip(x, y, ("W", "C"))
        for x in range(cx + 1, width):
            bc[y][x][(CH_BCAST, "W")] = clip(x, y, ("E", "C"))
    bcast_pattern = Pattern(tuple(tuple(row) for row in bc))

    out = merge(rows_pattern, cols_pattern)
    out = merge(out, gather_pattern)
    return merge(out, bcast_pattern)


@dataclass
class _Role:
    """What part a tile plays in the collective."""

    row_sink: bool
    col_sink: bool
    root: bool
    n_row: int
    n_col: int


def _role_of(x: int, y: int, width: int, height: int) -> _Role:
    cx, cy = _centers(width, height)
    row_sink = x in (cx - 1, cx)
    col_sink = row_sink and y in (cy - 1, cy)
    root = (x, y) == (cx - 1, cy - 1)
    n_row = 0
    if x == cx - 1:
        n_row = cx - 1
    elif x == cx:
        n_row = width - 1 - cx
    n_col = 0
    if col_sink:
        n_col = (cy - 1) if y == cy - 1 else (height - 1 - cy)
    return _Role(row_sink, col_sink, root, n_row, n_col)


def _reduce_decl(
    role: _Role,
    value_range: tuple[float, float] = (-64.0, 64.0),
    tolerance: float = 0.05,
):
    """A tile's static program declaration, derived from its role.

    Mirrors exactly what :meth:`ReduceCore._advance` does on each phase
    channel — one word sent per forwarding role, ``n_row``/``n_col``/3
    words accumulated per sink — so the analyzer's flow-conservation and
    contract passes can verify the whole collective against the Fig. 6
    routing pattern word-for-word.  ``value_range`` bounds each tile's
    input scalar and ``tolerance`` is the per-output absolute error
    budget; both feed the numerics pass
    (:mod:`repro.wse.analyze.numerics`).
    """
    from .analyze.spec import FabricRef, InstrDecl, ProgramDecl, ScalarRef

    acc = ScalarRef("float32")
    instrs = []
    if not role.row_sink:
        instrs.append(InstrDecl(
            "copy", FabricRef(CH_ROW, 1), (acc,), length=1, name="row_send",
        ))
    else:
        if role.n_row:
            instrs.append(InstrDecl(
                "add", acc, (FabricRef(CH_ROW, role.n_row),),
                length=role.n_row, name="row_acc",
            ))
        if not role.col_sink:
            instrs.append(InstrDecl(
                "copy", FabricRef(CH_COL, 1), (acc,), length=1,
                name="col_send",
            ))
        else:
            if role.n_col:
                instrs.append(InstrDecl(
                    "add", acc, (FabricRef(CH_COL, role.n_col),),
                    length=role.n_col, name="col_acc",
                ))
            if not role.root:
                instrs.append(InstrDecl(
                    "copy", FabricRef(CH_GATHER, 1), (acc,), length=1,
                    name="gather_send",
                ))
            else:
                instrs.append(InstrDecl(
                    "add", acc, (FabricRef(CH_GATHER, 3),), length=3,
                    name="gather_acc",
                ))
                instrs.append(InstrDecl(
                    "copy", FabricRef(CH_BCAST, 1), (acc,), length=1,
                    name="bcast_send",
                ))
    if not role.root:
        instrs.append(InstrDecl(
            "copy", acc, (FabricRef(CH_BCAST, 1),), length=1,
            name="bcast_recv",
        ))
    decl = ProgramDecl()
    decl.launched(*instrs)
    decl.declare_range("__scalar__", *value_range)
    decl.declare_tolerance(tolerance)
    return decl


class ReduceCore:
    """Minimal core participating in the AllReduce.

    Implements the ``deliver / poll_tx / tx_channels / step / idle``
    protocol of :class:`repro.wse.fabric.Fabric`.  All accumulation is at
    numpy float32, added in arrival order (the hardware's sequential
    accumulator).
    """

    def __init__(
        self,
        x: int,
        y: int,
        width: int,
        height: int,
        value: float,
        value_range: tuple[float, float] = (-64.0, 64.0),
        tolerance: float = 0.05,
    ):
        self.x, self.y = x, y
        self.role = _role_of(x, y, width, height)
        self.program_decl = _reduce_decl(self.role, value_range, tolerance)
        self.acc = np.float32(value)
        self.result: np.float32 | None = None
        self._inbox: deque = deque()
        self._tx: deque = deque()
        self._counts = {CH_ROW: 0, CH_COL: 0, CH_GATHER: 0}
        self._sent = {CH_ROW: False, CH_COL: False, CH_GATHER: False, CH_BCAST: False}
        self.finish_cycle: int | None = None
        self._quiet = False
        self.on_wake = None  # set by Fabric.attach_core
        #: Attached :class:`repro.wse.replay.ScheduleRecorder`, or None
        #: (same one-``is None``-test contract as :class:`Core`).
        self.recorder = None
        #: Attached :class:`repro.obs.profile.TileProfile`, or None
        #: (one ``is None`` test in :meth:`step` when detached).
        self.profiler = None
        #: Attached :class:`repro.wse.sanitizer.ShadowNumerics`, or None
        #: (same one-test contract); set by ``ShadowNumerics.attach``.
        self.shadow = None

    def reset(self, value: float) -> None:
        """Re-arm the core for another collective on the same fabric."""
        self.acc = np.float32(value)
        self.result = None
        self._inbox.clear()
        self._tx.clear()
        self._counts = {CH_ROW: 0, CH_COL: 0, CH_GATHER: 0}
        self._sent = {
            CH_ROW: False, CH_COL: False, CH_GATHER: False, CH_BCAST: False
        }
        self._quiet = False
        rec = self.recorder
        if rec is not None:
            # Re-arming is where each run's fresh operand enters: the
            # accumulator's initial value becomes the next slot of the
            # "values" extern vector (slots issue in reset-call order,
            # which AllReduceEngine keeps row-major).
            rec.on_obj_init(self, "acc", self.acc, extern="values")
        sh = self.shadow
        if sh is not None:
            sh.on_reduce_reset(self)
        if self.on_wake is not None:
            self.on_wake()

    # Fabric protocol -----------------------------------------------------
    def deliver(self, channel: int, value) -> None:
        self._inbox.append((channel, value))

    def poll_tx(self, channel: int):
        if self._tx and self._tx[0][0] == channel:
            return self._tx.popleft()[1]
        return None

    def tx_channels(self):
        return [self._tx[0][0]] if self._tx else []

    def step(self) -> int:
        sent_before = len(self._tx)
        work = self._advance()
        # Sleepable once a step neither consumed nor produced anything:
        # only a delivery (which re-wakes the core) can change its state.
        quiet = work == 0 and len(self._tx) == sent_before
        self._quiet = quiet
        tp = self.profiler
        if tp is not None:
            if not quiet:
                tp.account(0, -1)            # busy: consumed or produced
            elif self._tx:
                tp.account(2, self._tx[0][0])  # egress waiting on the router
            elif not self.idle:
                tp.account(1, -1)            # awaiting upstream partials
            else:
                tp.account(3, -1)
        return work

    def can_sleep(self) -> bool:
        return self._quiet and not self._inbox

    def _advance(self) -> int:
        if self.shadow is not None:
            return self._advance_shadowed()
        if self.recorder is not None:
            return self._advance_recorded()
        work = 0
        while self._inbox:
            channel, value = self._inbox.popleft()
            if channel == CH_BCAST:
                self.result = np.float32(value)
            else:
                self.acc = np.float32(self.acc + np.float32(value))
                self._counts[channel] += 1
            work += 1
        r = self.role
        if not r.row_sink:
            if not self._sent[CH_ROW]:
                self._tx.append((CH_ROW, float(self.acc)))
                self._sent[CH_ROW] = True
            return work
        row_done = self._counts[CH_ROW] >= r.n_row
        if not r.col_sink:
            if row_done and not self._sent[CH_COL]:
                self._tx.append((CH_COL, float(self.acc)))
                self._sent[CH_COL] = True
            return work
        col_done = row_done and self._counts[CH_COL] >= r.n_col
        if not r.root:
            if col_done and not self._sent[CH_GATHER]:
                self._tx.append((CH_GATHER, float(self.acc)))
                self._sent[CH_GATHER] = True
            return work
        if col_done and self._counts[CH_GATHER] >= 3 and not self._sent[CH_BCAST]:
            self.result = np.float32(self.acc)
            self._tx.append((CH_BCAST, float(self.acc)))
            self._sent[CH_BCAST] = True
        return work

    def _advance_shadowed(self) -> int:
        """:meth:`_advance` while an fp64 shadow executor is attached.

        Identical arithmetic and send schedule; additionally carries the
        fp64 shadow of every word in-band (:class:`_ShadowWord` — the
        routers treat words opaquely, so the pair travels unchanged) and
        reports each fp32 accumulation plus the final result to the
        shadow, which records the realized |fp32 - fp64| error.
        """
        sh = self.shadow
        f32 = np.float32
        work = 0
        while self._inbox:
            channel, word = self._inbox.popleft()
            if isinstance(word, _ShadowWord):
                value, sval = word.v, word.s
            else:  # un-instrumented producer: keep running, flag the gap
                value = float(word)
                sval = sh.on_stray_word(self, channel, value)
            if channel == CH_BCAST:
                self.result = f32(value)
                sh.on_reduce_result(self, float(self.result), sval)
            else:
                self.acc = f32(self.acc + f32(value))
                sh.on_reduce_add(self, sval)
                self._counts[channel] += 1
            work += 1

        def send(channel):
            self._tx.append((
                channel,
                _ShadowWord(float(self.acc), sh.reduce_shadow(self)),
            ))

        r = self.role
        if not r.row_sink:
            if not self._sent[CH_ROW]:
                send(CH_ROW)
                self._sent[CH_ROW] = True
            return work
        row_done = self._counts[CH_ROW] >= r.n_row
        if not r.col_sink:
            if row_done and not self._sent[CH_COL]:
                send(CH_COL)
                self._sent[CH_COL] = True
            return work
        col_done = row_done and self._counts[CH_COL] >= r.n_col
        if not r.root:
            if col_done and not self._sent[CH_GATHER]:
                send(CH_GATHER)
                self._sent[CH_GATHER] = True
            return work
        if col_done and self._counts[CH_GATHER] >= 3 and not self._sent[CH_BCAST]:
            self.result = f32(self.acc)
            sh.on_reduce_result(
                self, float(self.result), sh.reduce_shadow(self)
            )
            send(CH_BCAST)
            self._sent[CH_BCAST] = True
        return work

    def _advance_recorded(self) -> int:
        """:meth:`_advance` while a schedule recording is attached.

        Identical arithmetic and send schedule; additionally unwraps
        arriving :class:`~repro.wse.replay.TracedWord` tokens into the
        recorder's fp32 accumulation chain and stamps outgoing words
        with the chain's current node.
        """
        rec = self.recorder
        f32 = np.float32
        work = 0
        while self._inbox:
            channel, word = self._inbox.popleft()
            if hasattr(word, "t"):
                value, node = word.v, word.t
            else:  # un-instrumented producer: keep running, void the tape
                value = word
                rec.fail(
                    f"reduce core ({self.x},{self.y}) received an "
                    f"unattributed word on channel {channel}"
                )
                node = rec.on_obj_init(self, "_stray", f32(value))
            if channel == CH_BCAST:
                self.result = f32(value)
                rec.obj_set(self, "result", node)
            else:
                self.acc = f32(self.acc + f32(value))
                rec.obj_add32(self, "acc", node)
                self._counts[channel] += 1
            work += 1
        wrap = rec.wrap

        def send(channel):
            w = wrap(float(self.acc))
            w.t = rec.obj_get(self, "acc")
            self._tx.append((channel, w))

        r = self.role
        if not r.row_sink:
            if not self._sent[CH_ROW]:
                send(CH_ROW)
                self._sent[CH_ROW] = True
            return work
        row_done = self._counts[CH_ROW] >= r.n_row
        if not r.col_sink:
            if row_done and not self._sent[CH_COL]:
                send(CH_COL)
                self._sent[CH_COL] = True
            return work
        col_done = row_done and self._counts[CH_COL] >= r.n_col
        if not r.root:
            if col_done and not self._sent[CH_GATHER]:
                send(CH_GATHER)
                self._sent[CH_GATHER] = True
            return work
        if col_done and self._counts[CH_GATHER] >= 3 and not self._sent[CH_BCAST]:
            self.result = np.float32(self.acc)
            rec.obj_set(self, "result", rec.obj_get(self, "acc"))
            send(CH_BCAST)
            self._sent[CH_BCAST] = True
        return work

    @property
    def idle(self) -> bool:
        return self.result is not None and not self._tx and not self._inbox


class AllReduceEngine:
    """A persistent Fig. 6 collective: one compiled fabric, many reduces.

    Building and binding the routing program costs far more than the
    ~O(width + height) cycles of one collective, so callers issuing many
    inner products (:class:`repro.kernels.bicgstab_des.DESBiCGStab`)
    construct this once and call :meth:`reduce` per dot product.  Each
    call re-arms every :class:`ReduceCore` in place and runs the fabric
    from its current cycle; the returned cycle count is the delta, which
    is identical to a fresh single-shot fabric's.
    """

    def __init__(
        self, width: int, height: int, queue_capacity: int = 8,
        options: RunOptions | None = None,
    ):
        self.options = opts = options if options is not None else RunOptions()
        if width < 2 or height < 2:
            raise ValueError("AllReduce pattern needs a fabric of at least 2x2")
        self.width = width
        self.height = height
        self.fabric = Fabric(width, height, queue_capacity)
        compile_to_fabric(allreduce_pattern(width, height), self.fabric)
        self.cores: list[ReduceCore] = []
        for y in range(height):
            for x in range(width):
                core = ReduceCore(x, y, width, height, 0.0)
                self.fabric.attach_core(x, y, core)
                self.cores.append(core)
        if opts.engine != "reference":
            self.fabric.prebind()
        from .analyze.contracts import compute_contract

        # The collective carries its static contract like every shipped
        # program: exact per-link words per reduce, cycle lower bound.
        self.fabric.static_contract = compute_contract(self.fabric)
        #: The :class:`~repro.wse.replay.ReplaySession` under
        #: ``engine="replay"`` (None otherwise): the first reduce
        #: records on the live active-set stepper, later reduces replay
        #: the compiled schedule.
        self.replay = open_replay(self.fabric, opts, label="allreduce")
        self.runs = 0

    def _arm(self, values: np.ndarray) -> None:
        k = 0
        for y in range(self.height):
            row = values[y]
            for x in range(self.width):
                self.cores[k].reset(float(row[x]))
                k += 1

    def reduce(self, values: np.ndarray) -> tuple[float, int]:
        """All-reduce one grid of per-tile scalars; returns (sum, cycles)."""
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (self.height, self.width):
            raise ValueError(
                f"values shape {values.shape} does not match the "
                f"({self.height}, {self.width}) fabric"
            )
        cores = self.cores
        fabric = self.fabric
        start = fabric.cycle
        run_persistent(
            fabric, self.replay, self.options,
            # quiescent() first: O(1) rejection while words are in flight.
            lambda f: f.quiescent()
            and all(c.result is not None for c in cores),
            50 * (self.width + self.height) + 1000,
            arm=lambda: self._arm(values),
            externs=lambda: {"values": values.ravel()},
        )
        results = {float(c.result) for c in cores}
        if len(results) != 1:
            raise AssertionError(
                f"AllReduce delivered differing results: {results}"
            )
        self.runs += 1
        return results.pop(), fabric.cycle - start


def simulate_allreduce(
    values: np.ndarray, queue_capacity: int = 8,
    options: RunOptions | None = None,
) -> tuple[float, int]:
    """Run the collective on a freshly built simulated fabric.

    Parameters
    ----------
    values:
        Per-tile scalars, shape ``(height, width)``.
    options:
        Execution options (:class:`repro.api.RunOptions`).

    Returns
    -------
    (result, cycles):
        The fp32 all-reduced sum (identical at every core — asserted)
        and the cycle count from first injection to the last core
        receiving the broadcast.
    """
    values = np.asarray(values, dtype=np.float32)
    height, width = values.shape
    return AllReduceEngine(width, height, queue_capacity,
                           options=options).reduce(values)


def allreduce_latency_cycles(
    width: int, height: int, stage_overhead: int = 30
) -> int:
    """Analytic AllReduce latency, cycles (validated against the DES).

    Four pipelined stages at one hop per cycle and one word per cycle
    into each sink, plus a fixed per-stage overhead for injection,
    extraction, and task hand-off.  For the paper's 602 x 595 fabric
    this lands ~10% above the mesh diameter, i.e. under 1.5 us at the
    calibrated clock — both of the paper's claims.
    """
    cx, cy = _centers(width, height)
    t_row = max(cx - 1, width - 1 - cx) + 2
    t_col = max(cy - 1, height - 1 - cy) + 2
    t_gather = 5
    t_bcast = max(cx - 1, width - cx) + max(cy - 1, height - cy) + 2
    return t_row + t_col + t_gather + t_bcast + 4 * stage_overhead


def allreduce_latency_seconds(
    width: int | None = None,
    height: int | None = None,
    config: MachineConfig = CS1,
    stage_overhead: int = 30,
) -> float:
    """AllReduce wall-clock latency on a machine configuration."""
    w = width if width is not None else config.geometry.fabric_width
    h = height if height is not None else config.geometry.fabric_height
    return config.cycles_to_seconds(allreduce_latency_cycles(w, h, stage_overhead))
