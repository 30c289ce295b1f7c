"""Certified mixed-precision range and rounding-error analysis.

The paper's 0.86 PFLOPS rests on mixed fp16/fp32 arithmetic, and its
section VI study shows fp16 accumulation is safe *only because* diagonal
scaling bounds the dynamic range.  This pass turns that observation into
a machine-checked artifact: an abstract interpretation over the
declaration IR (:mod:`repro.wse.analyze.spec`) that propagates, through
every declared op and across fabric stream edges,

* a **value interval** ``[lo, hi]`` — the range of the exactly-computed
  result given declared (or build-time) input ranges;
* a **worst-case rounding-error bound** ``err`` — an upper bound on
  ``|stored - exact|`` where "exact" evaluates the same dataflow in real
  arithmetic on the *stored* inputs (inputs start with ``err = 0``; the
  storage rounding of the inputs themselves is the kernel's quantization
  choice, not an arithmetic error);
* an **absolute-magnitude bound** ``mag`` — an upper bound on ``|any
  realized value of the quantity at any time|``, including partial sums
  of accumulations *in any arrival order*.  ``mag``, not the interval,
  gates overflow: an fp16 accumulator can overflow on a partial sum even
  when the final value is small (cancellation).

Every rounding step charges ``unit_roundoff(dtype) * mag`` with the
dtype the engine actually rounds in (:mod:`repro.wse.dsr` semantics:
fp16xfp16 products are exact in fp32 — the hardware's mixed dot — while
each store into an fp16 destination rounds to nearest-even).  Because
accumulation arrival order is schedule-dependent, the evaluation runs
to a magnitude fixpoint and then charges each read-modify-write
rounding against the accumulator's *final* magnitude, which dominates
every partial sum under every order.

The pass emits frozen diagnostics for

* ``fp16-overflow`` (ERROR) — a rounding point whose magnitude bound
  exceeds fp16's finite range (65504) given the declared input ranges;
* ``underflow-to-zero`` (WARNING) — a product of sign-definite inputs
  guaranteed smaller than the smallest fp16 subnormal (2^-24);
* ``tolerance-exceeded`` (ERROR) — a certified output error bound above
  the program's :meth:`~repro.wse.analyze.spec.ProgramDecl.declare_tolerance`;

and attaches the certified per-output bounds to the program's
:class:`~repro.wse.analyze.contracts.StaticContract` as a serializable
:class:`NumericsContract`.  Each ERROR carries a machine-readable
witness; :func:`synthesize_numerics_witness` cuts a minimal
feeder-driven single-tile program from it and
:func:`confirm_numerics_witness` validates it under the fp64 shadow
executor (:class:`repro.wse.sanitizer.ShadowNumerics`), which runs the
program on the live engine and measures the realized error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostic, Severity
from .routing import cyclic_sccs, forwarding_graph, routes_by_channel
from .spec import (
    DrainDecl,
    FabricRef,
    FifoRef,
    MemRef,
    ScalarRef,
    drain_fifo_name,
)
from ..execute import select_engine
from ..fabric import Port

__all__ = [
    "Val",
    "NumericsContract",
    "numerics_pass",
    "parse_dtype",
    "unit_roundoff",
    "finite_max",
    "smallest_subnormal",
    "accumulation_error_bound",
    "compose_error_bounds",
    "synthesize_numerics_witness",
    "confirm_numerics_witness",
    "SCALAR_NAME",
]

#: Pseudo-allocation name for a core's scalar accumulator register in
#: declared ranges, contract entries and shadow reports (a
#: :class:`~repro.wse.analyze.spec.ScalarRef` carries no name — one
#: scalar register per core is the model's granularity).
SCALAR_NAME = "__scalar__"

_INF = math.inf

# Unit roundoff (half ULP at 1.0), largest finite value, and smallest
# positive subnormal per supported dtype.  One table — the precision
# lint pass and the shadow executor both read these.
_UNIT = {"float16": 2.0 ** -11, "float32": 2.0 ** -24, "float64": 2.0 ** -53}
_FMAX = {"float16": 65504.0,
         "float32": float(np.finfo(np.float32).max),
         "float64": float(np.finfo(np.float64).max)}
_TINY = {"float16": 2.0 ** -24,
         "float32": float(np.finfo(np.float32).smallest_subnormal),
         "float64": float(np.finfo(np.float64).smallest_subnormal)}


def parse_dtype(name):
    """``np.dtype`` for a declared dtype name, or None if unparseable."""
    try:
        return np.dtype(name)
    except TypeError:
        return None


def unit_roundoff(dtype) -> float:
    """Half-ULP-at-1 rounding unit of ``dtype`` (0.0 for exact types)."""
    return _UNIT.get(np.dtype(dtype).name, 0.0)


def finite_max(dtype) -> float:
    """Largest finite magnitude representable in ``dtype``."""
    return _FMAX.get(np.dtype(dtype).name, _INF)


def smallest_subnormal(dtype) -> float:
    """Smallest positive value of ``dtype`` (below it: flush to zero)."""
    return _TINY.get(np.dtype(dtype).name, 0.0)


def accumulation_error_bound(dtype, length: int, mag: float) -> float:
    """Worst-case roundoff of ``length`` sequential adds into a ``dtype``
    accumulator whose running magnitude never exceeds ``mag``."""
    return unit_roundoff(dtype) * float(length) * float(mag)


def compose_error_bounds(bounds) -> float:
    """Compose certified stage bounds across host-mediated edges.

    A BiCGStab iteration chains certified programs (SpMV, AllReduce,
    axpy/dot) through host memory; to first order the absolute error of
    the chain is bounded by the sum of the per-stage certified bounds
    (each stage's bound is conditional on its declared input range, which
    the shadow executor checks at runtime)."""
    return float(sum(bounds))


def _mul_b(a: float, b: float) -> float:
    """``a*b`` with the 0*inf indeterminate resolved to 0 (bounds only)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    p = a * b
    return p if p == p else _INF  # NaN from inf arithmetic: saturate


@dataclass(frozen=True)
class Val:
    """One abstract value: dtype, interval, error bound, magnitude bound.

    Invariant: ``mag >= max(|lo|, |hi|) + err`` — ``mag`` bounds the
    *realized* (rounded) value, interval + err bounds it too, but for
    accumulators ``mag`` additionally dominates every partial sum.
    """

    dtype: str
    lo: float
    hi: float
    err: float = 0.0
    mag: float = 0.0

    @staticmethod
    def make(dtype, lo, hi, err=0.0, mag=None) -> "Val":
        lo, hi, err = float(lo), float(hi), float(err)
        floor = max(abs(lo), abs(hi)) + err
        if mag is None or mag < floor:
            mag = floor
        return Val(np.dtype(dtype).name, lo, hi, err, float(mag))

    @staticmethod
    def from_array(arr: np.ndarray) -> "Val":
        """Content-based input value (stored values are the exact inputs)."""
        a = np.asarray(arr, dtype=np.float64)
        if a.size == 0 or not np.isfinite(a).all():
            return Val.make(arr.dtype, -_INF, _INF, 0.0, _INF)
        return Val.make(arr.dtype, float(a.min()), float(a.max()))

    def join(self, other: "Val") -> "Val":
        return Val.make(
            np.result_type(self.dtype, other.dtype),
            min(self.lo, other.lo), max(self.hi, other.hi),
            max(self.err, other.err), max(self.mag, other.mag),
        )

    @property
    def maxabs(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def sign_definite(self) -> bool:
        """Interval excludes zero (both endpoints the same nonzero sign)."""
        return self.lo > 0.0 or self.hi < 0.0


def _iv_mul(a: Val, b: Val) -> tuple[float, float]:
    cands = (_mul_b(a.lo, b.lo), _mul_b(a.lo, b.hi),
             _mul_b(a.hi, b.lo), _mul_b(a.hi, b.hi))
    return min(cands), max(cands)


# ---------------------------------------------------------------------------
# NumericsContract
# ---------------------------------------------------------------------------
def _enc(x):
    """JSON-safe float: infinities encode as the string 'inf'/'-inf'."""
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    return float(x)


def _dec(x) -> float:
    return float(x)  # float('inf') parses the encoded strings


@dataclass(frozen=True)
class NumericsContract:
    """Certified per-output numerics bounds for one program.

    ``entries`` holds one record per written target:
    ``(x, y, kind, name, dtype, lo, hi, err, mag, tolerance)`` with
    ``kind`` either ``"array"`` or ``"scalar"`` (``name`` then
    :data:`SCALAR_NAME`), interval/error/magnitude as defined on
    :class:`Val` (array entries summarize element-wise state: interval
    hull, worst element error, worst element magnitude), and
    ``tolerance`` the core's declared tolerance or None.
    """

    entries: tuple = ()

    def bound_for(self, x: int, y: int, name: str) -> float | None:
        """Certified absolute error bound of target ``name`` at (x, y)."""
        for ex, ey, _kind, ename, _dt, _lo, _hi, err, _mag, _tol in self.entries:
            if (ex, ey, ename) == (x, y, name):
                return err
        return None

    def worst(self):
        """The entry with the largest certified error bound, or None."""
        return max(self.entries, key=lambda e: e[7], default=None)

    def as_dict(self) -> dict:
        return {
            "entries": [
                [x, y, kind, name, dt, _enc(lo), _enc(hi), _enc(err),
                 _enc(mag), (None if tol is None else float(tol))]
                for x, y, kind, name, dt, lo, hi, err, mag, tol in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NumericsContract":
        return cls(entries=tuple(
            (int(x), int(y), str(kind), str(name), str(dt), _dec(lo),
             _dec(hi), _dec(err), _dec(mag),
             (None if tol is None else float(tol)))
            for x, y, kind, name, dt, lo, hi, err, mag, tol in d["entries"]
        ))


# ---------------------------------------------------------------------------
# Stream delivery (forwarding-graph composition)
# ---------------------------------------------------------------------------
class _Deliveries:
    """Per-channel core-delivery resolution over the forwarding DAG."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.chan_routes = routes_by_channel(fabric)
        self._graphs: dict = {}
        self._cache: dict = {}

    def _graph(self, channel):
        got = self._graphs.get(channel)
        if got is None:
            route_map = self.chan_routes.get(channel, {})
            graph = forwarding_graph(self.fabric, route_map)
            cyclic = bool(cyclic_sccs(graph))
            got = self._graphs[channel] = (route_map, graph, cyclic)
        return got

    def resolve(self, channel: int, srcpos) -> list | None:
        """``[(pos, copies), ...]`` core deliveries of a stream injected
        at ``srcpos``; None when the channel's forwarding graph is cyclic
        (CDG pass owns).  ``copies`` > 1 means the forwarding DAG fans
        out and rejoins, delivering the same word multiple times."""
        key = (channel, srcpos)
        got = self._cache.get(key)
        if got is not None:
            return got
        route_map, graph, cyclic = self._graph(channel)
        if cyclic:
            return None
        node0 = (srcpos, Port.CORE)
        if node0 not in route_map:
            self._cache[key] = []
            return []
        from .contracts import _topo_order

        counts = dict.fromkeys(graph, 0)
        counts[node0] = 1
        out = []
        for node in _topo_order(graph):
            c = counts[node]
            if not c:
                continue
            (x, y), _in = node
            if Port.CORE in route_map[node] and \
                    self.fabric.cores[y][x] is not None:
                out.append(((x, y), c))
            for s in graph[node]:
                counts[s] += c
        self._cache[key] = out
        return out


# ---------------------------------------------------------------------------
# Abstract evaluation
# ---------------------------------------------------------------------------
class _CoreState:
    __slots__ = ("pos", "core", "decl", "mem", "written", "scalar",
                 "scalar_written", "fifo_words", "fifo_taken", "tol")

    def __init__(self, pos, core, decl):
        self.pos = pos
        self.core = core
        self.decl = decl
        self.mem: dict[str, list[Val]] = {}
        self.written: set[str] = set()
        self.scalar: Val | None = None
        self.scalar_written = False
        self.fifo_words: dict[str, list[Val]] = {}
        self.fifo_taken: dict[str, int] = {}
        self.tol = decl.tolerance

    def array_vals(self, name: str) -> list[Val] | None:
        got = self.mem.get(name)
        if got is not None:
            return got
        memory = getattr(self.core, "memory", None)
        if memory is None or name not in memory:
            return None
        arr = memory.get(name)
        declared = self.decl.ranges.get(name)
        if declared is not None:
            seed = Val.make(arr.dtype, declared[0], declared[1])
        else:
            seed = Val.from_array(arr)
        got = self.mem[name] = [seed] * arr.size
        return got

    def scalar_val(self) -> Val:
        if self.scalar is None:
            declared = self.decl.ranges.get(SCALAR_NAME)
            live = getattr(self.core, "acc", None)
            if declared is not None:
                dt = getattr(live, "dtype", np.dtype("float32"))
                self.scalar = Val.make(dt, declared[0], declared[1])
            elif live is not None:
                v = float(live)
                self.scalar = Val.make(
                    getattr(live, "dtype", np.dtype("float32")), v, v)
            else:
                self.scalar = Val.make("float32", 0.0, 0.0)
        return self.scalar


class _Eval:
    """One whole-program evaluation (driven to a magnitude fixpoint)."""

    def __init__(self, fabric, cores):
        self.fabric = fabric
        self.deliveries = _Deliveries(fabric)
        self.states: list[_CoreState] = []
        for pos, core in cores:
            decl = getattr(core, "program_decl", None)
            if decl:
                self.states.append(_CoreState(pos, core, decl))
        # Work items in deterministic order: core row-major, task decl
        # order, launches before the task's drains.
        self.items: list[tuple[_CoreState, str, object]] = []
        self.pushers: dict[tuple[int, str], list[int]] = {}
        for st in self.states:
            for tname, task in st.decl.tasks.items():
                for instr in task.launches:
                    idx = len(self.items)
                    self.items.append((st, tname, instr))
                    dst = instr.dst
                    if isinstance(dst, FifoRef):
                        self.pushers.setdefault(
                            (id(st), dst.fifo), []).append(idx)
                for drain in task.drains:
                    self.items.append((st, tname, drain))
        self.notes: list[str] = []
        self.diags: list[Diagnostic] = []
        self._noted: set = set()
        self.skipped = 0
        # Populated per evaluation sweep:
        self.streams: dict = {}
        self.done: list[bool] = []
        self.final_mags: dict = {}
        self.last_writer: dict = {}
        self.emit = False

    # -- one full evaluation ------------------------------------------------
    def run(self) -> None:
        """Evaluate to the magnitude fixpoint, then once more emitting
        diagnostics with final-magnitude rounding charges."""
        mags: dict = {}
        for _ in range(4):
            self._sweep(mags, emit=False)
            grew = False
            for key, m in self.final_mags.items():
                if m > mags.get(key, -1.0):
                    mags[key] = m
                    grew = True
            if not grew:
                break
        self._sweep(mags, emit=True)

    def _sweep(self, charge_mags: dict, emit: bool) -> None:
        self.emit = emit
        self.streams = {}
        self.final_mags = {}
        self.last_writer = {}
        self._charge = charge_mags
        if emit:
            self.diags = []
            self.notes = []
            self._noted = set()
        for st in self.states:
            st.mem.clear()
            st.written.clear()
            st.scalar = None
            st.scalar_written = False
            st.fifo_words.clear()
            st.fifo_taken.clear()
        self.done = [False] * len(self.items)
        progress = True
        while progress:
            progress = False
            for i, (st, tname, obj) in enumerate(self.items):
                if self.done[i] or not self._ready(i, st, obj):
                    continue
                if isinstance(obj, (DrainDecl, str)):
                    self._process_drain(st, tname, obj)
                else:
                    self._process_instr(st, tname, obj)
                self.done[i] = True
                progress = True
        self.skipped = self.done.count(False)
        if emit and self.skipped:
            self.notes.append(
                f"numerics: {self.skipped} declared instruction(s)/drain(s) "
                "never became dataflow-ready; their targets are not "
                "certified (the flow pass reports the supply defect)"
            )

    # -- readiness ----------------------------------------------------------
    def _ready(self, idx: int, st: _CoreState, obj) -> bool:
        if isinstance(obj, (DrainDecl, str)):
            fifo = drain_fifo_name(obj)
            return all(self.done[i]
                       for i in self.pushers.get((id(st), fifo), ()))
        for src in obj.srcs:
            if isinstance(src, FabricRef):
                words = self.streams.get((src.channel, st.pos), ())
                if len(words) < src.length:
                    return False
            elif isinstance(src, FifoRef):
                avail = (len(st.fifo_words.get(src.fifo, ()))
                         - st.fifo_taken.get(src.fifo, 0))
                if avail < src.length:
                    return False
        return True

    # -- helpers ------------------------------------------------------------
    def _note_once(self, key, text) -> None:
        if self.emit and key not in self._noted:
            self._noted.add(key)
            self.notes.append(text)

    def _round(self, st, name, val: Val, dtype, rmw_key=None,
               ctx=None) -> Val:
        """Round ``val`` into ``dtype``; charge against the final
        magnitude for read-modify-write targets (``rmw_key``)."""
        dt = np.dtype(dtype).name
        u = _UNIT.get(dt, 0.0)
        mag = val.mag
        if rmw_key is not None:
            mag = max(mag, self._charge.get(rmw_key, 0.0))
        err = val.err + u * mag
        if mag > _FMAX.get(dt, _INF):
            if self.emit and ctx is not None:
                self._overflow_diag(st, dt, mag, *ctx)
            return Val(dt, -_INF, _INF, _INF, _INF)
        return Val.make(dt, val.lo, val.hi, err, max(val.mag, mag))

    def _overflow_diag(self, st, dt, mag, tname, instr, src_specs) -> None:
        key = (id(st), instr.name or instr.op, "overflow")
        if key in self._noted:
            return
        self._noted.add(key)
        x, y = st.pos
        self.diags.append(Diagnostic(
            Severity.ERROR, "numerics", "fp16-overflow",
            f"instruction {instr.name or instr.op!r} can overflow "
            f"{dt}: magnitude bound {mag:.6g} exceeds the finite "
            f"range {_FMAX[dt]:.6g} given the declared input ranges",
            where=(x, y),
            hint="scale the operands (Jacobi/diagonal preconditioning "
                 "bounds the dynamic range, paper section VI) or widen "
                 "the accumulator to fp32",
            data=self._witness(st, tname, instr, src_specs, mag),
        ))

    def _witness(self, st, tname, instr, src_specs, mag) -> tuple:
        """Machine-readable witness: enough to cut a minimal feeder
        program (:func:`synthesize_numerics_witness`)."""
        x, y = st.pos
        dst = instr.dst
        if isinstance(dst, ScalarRef):
            dst_kind, dst_dt, dst_len = "scalar", dst.dtype, 1
        elif isinstance(dst, MemRef):
            vals = st.array_vals(dst.array)
            dt = "float16"
            memory = getattr(st.core, "memory", None)
            if memory is not None and dst.array in memory:
                dt = memory.get(dst.array).dtype.name
            dst_kind, dst_dt, dst_len = "mem", dt, dst.length
            del vals
        else:  # stream/fifo destination: feed a plain fp16 buffer
            dst_kind, dst_dt, dst_len = "mem", "float16", instr.length
        return (
            "numerics", x, y, tname, instr.name or instr.op, instr.op,
            dst_kind, dst_dt, int(dst_len), int(instr.length),
            (None if getattr(instr, "scalar", None) is None
             else float(instr.scalar)),
            (None if st.tol is None else float(st.tol)),
            _enc(mag),
            tuple((s[0], _enc(s[1]), _enc(s[2])) for s in src_specs),
        )

    # -- source / destination access ----------------------------------------
    def _read_src(self, st: _CoreState, src, k: int) -> Val | None:
        if isinstance(src, MemRef):
            vals = st.array_vals(src.array)
            if vals is None:
                return None
            idx = src.offset + k * src.stride
            if not (0 <= idx < len(vals)):
                return None  # dsr pass owns out-of-range extents
            return vals[idx]
        if isinstance(src, FabricRef):
            words = self.streams.get((src.channel, st.pos), ())
            return words[k] if k < len(words) else None
        if isinstance(src, FifoRef):
            words = st.fifo_words.get(src.fifo, ())
            i = st.fifo_taken.get(src.fifo, 0) + k
            return words[i] if i < len(words) else None
        if isinstance(src, ScalarRef):
            return st.scalar_val()
        return None

    def _write_mem(self, st: _CoreState, ref: MemRef, k: int, val: Val,
                   accumulate: bool) -> None:
        vals = st.array_vals(ref.array)
        if vals is None:
            return
        idx = ref.offset + k * ref.stride
        if not (0 <= idx < len(vals)):
            return
        vals[idx] = val if accumulate else vals[idx].join(val)
        st.written.add(ref.array)
        key = (id(st), ref.array, idx)
        if val.mag > self.final_mags.get(key, -1.0):
            self.final_mags[key] = val.mag

    def _emit_word(self, st: _CoreState, ref, val: Val) -> None:
        if isinstance(ref, FifoRef):
            st.fifo_words.setdefault(ref.fifo, []).append(val)
            return
        dests = self.deliveries.resolve(ref.channel, st.pos)
        if dests is None:
            self._note_once(
                ("cyclic", ref.channel),
                f"numerics: channel {ref.channel} forwards cyclically; "
                "its stream values are not propagated (see cdg findings)")
            return
        # One abstract word per delivered position: the value model is
        # duplication-insensitive (multiplicity only matters for the
        # runtime shadow's word alignment).
        for pos, _copies in dests:
            self.streams.setdefault((ref.channel, pos), []).append(val)

    # -- op semantics --------------------------------------------------------
    def _src_dtype(self, st: _CoreState, src) -> str:
        v = self._read_src(st, src, 0)
        return v.dtype if v is not None else "float32"

    def _check_underflow(self, st, tname, instr, a: Val, b: Val,
                         lo: float, hi: float, dt: str) -> None:
        if dt != "float16" or not self.emit:
            return
        if not (a.sign_definite() and b.sign_definite()):
            return
        m = max(abs(lo), abs(hi))
        if 0.0 < m < _TINY["float16"]:
            key = (id(st), instr.name or instr.op, "underflow")
            if key in self._noted:
                return
            self._noted.add(key)
            x, y = st.pos
            self.diags.append(Diagnostic(
                Severity.WARNING, "numerics", "underflow-to-zero",
                f"instruction {instr.name or instr.op!r}: every nonzero "
                f"product lies below fp16's smallest subnormal "
                f"({_TINY['float16']:.3g}) and flushes to zero",
                where=(x, y),
                hint="rescale the operands into fp16's normal range",
            ))

    def _process_instr(self, st: _CoreState, tname: str, instr) -> None:
        op = instr.op
        dst = instr.dst
        srcs = instr.srcs
        length = instr.length
        src_summary = [None] * len(srcs)

        def summarize(i, v: Val):
            s = src_summary[i]
            if s is None:
                src_summary[i] = (v.dtype, v.lo, v.hi)
            else:
                src_summary[i] = (s[0], min(s[1], v.lo), max(s[2], v.hi))

        # Scalar-accumulating forms: mac into a ScalarRef, and the
        # collective's single-source "add"/"copy" on the scalar register
        # (ReduceCore accumulates each arriving word at fp32).
        scalar_dst = isinstance(dst, ScalarRef)
        if not srcs:
            # Degenerate declaration (synthesized witness programs can
            # declare source-free ops): nothing to certify.
            self._note_once(
                (id(st), instr.name or op, "no-srcs"),
                f"numerics: {instr.name or op!r} at {st.pos} declares no "
                "sources; its result is not certified")
            return
        out_words: list[Val] = []
        for k in range(length):
            vals = []
            missing = False
            for i, src in enumerate(srcs):
                v = self._read_src(st, src, k)
                if v is None:
                    missing = True
                    break
                summarize(i, v)
                vals.append(v)
            if missing:
                self._note_once(
                    (id(st), instr.name or op, "unresolved"),
                    f"numerics: {instr.name or op!r} at {st.pos} reads an "
                    "undeclared allocation or out-of-range element; its "
                    "result is not certified")
                return
            ctx = (tname, instr, [s for s in src_summary if s is not None])
            if op == "copy":
                r = vals[0]
            elif op == "mul":
                a, b = vals
                cdt = np.result_type(a.dtype, b.dtype).name
                lo, hi = _iv_mul(a, b)
                err = (_mul_b(a.err, b.mag) + _mul_b(b.err, a.mag))
                self._check_underflow(st, tname, instr, a, b, lo, hi, cdt)
                r = self._round(st, None, Val.make(
                    cdt, lo, hi, err, _mul_b(a.mag, b.mag)), cdt, ctx=ctx)
            elif op == "add" and len(vals) == 2:
                a, b = vals
                cdt = np.result_type(a.dtype, b.dtype).name
                r = self._round(st, None, Val.make(
                    cdt, a.lo + b.lo, a.hi + b.hi, a.err + b.err,
                    a.mag + b.mag), cdt, ctx=ctx)
            elif op in ("add", "copy") and scalar_dst:
                r = vals[0]
            elif op == "addin":
                r = vals[0]  # folded into the destination below
            elif op == "mac":
                a, b = vals
                exact = a.dtype == "float16" and b.dtype == "float16"
                lo, hi = _iv_mul(a, b)
                perr = _mul_b(a.err, b.mag) + _mul_b(b.err, a.mag)
                pmag = _mul_b(a.mag, b.mag)
                if not exact:
                    perr += _UNIT["float32"] * pmag
                self._check_underflow(st, tname, instr, a, b, lo, hi,
                                      "float16" if exact else "float32")
                r = Val.make("float32", lo, hi, perr, pmag)
            elif op == "axpy":
                y_v, x_v = vals
                a = instr.scalar
                if a is None:
                    self._note_once(
                        (id(st), instr.name or op, "scalar"),
                        f"numerics: axpy {instr.name or op!r} declares no "
                        "scalar; assuming |a| <= 1")
                    a_lo, a_hi = -1.0, 1.0
                else:
                    a_lo = a_hi = float(a)
                a_abs = max(abs(a_lo), abs(a_hi))
                a_err = _UNIT.get(y_v.dtype, 0.0) * a_abs
                a_val = Val.make(y_v.dtype, a_lo, a_hi, a_err,
                                 a_abs + a_err)
                cdt = np.result_type(y_v.dtype, x_v.dtype).name
                t_lo, t_hi = _iv_mul(a_val, x_v)
                t = self._round(st, None, Val.make(
                    cdt, t_lo, t_hi,
                    _mul_b(a_val.err, x_v.mag) + _mul_b(x_v.err, a_val.mag),
                    _mul_b(a_val.mag, x_v.mag)), cdt, ctx=ctx)
                r = self._round(st, None, Val.make(
                    cdt, y_v.lo + t.lo, y_v.hi + t.hi, y_v.err + t.err,
                    y_v.mag + t.mag), cdt, ctx=ctx)
            else:
                return  # unknown op: other passes own the defect

            # Destination
            if scalar_dst:
                cur = st.scalar_val()
                key = (id(st), SCALAR_NAME, 0)
                if op in ("mac", "add"):  # accumulate into the register
                    acc_dt = dst.dtype
                    cdt = np.result_type(cur.dtype, r.dtype).name
                    summed = Val.make(cdt, cur.lo + r.lo, cur.hi + r.hi,
                                      cur.err + r.err, cur.mag + r.mag)
                    summed = self._round(st, None, summed, cdt,
                                         rmw_key=key, ctx=ctx)
                    st.scalar = self._round(st, None, summed, acc_dt,
                                            rmw_key=key, ctx=ctx)
                else:  # copy: overwrite
                    st.scalar = self._round(st, None, r, dst.dtype, ctx=ctx)
                st.scalar_written = True
                if st.scalar.mag > self.final_mags.get(key, -1.0):
                    self.final_mags[key] = st.scalar.mag
                self.last_writer[(id(st), SCALAR_NAME)] = (tname, instr,
                                                           src_summary)
            elif isinstance(dst, MemRef):
                memory = getattr(st.core, "memory", None)
                ddt = (memory.get(dst.array).dtype.name
                       if memory is not None and dst.array in memory
                       else "float16")
                idx_key = (id(st), dst.array,
                           dst.offset + (k % max(dst.length, 1)) * dst.stride)
                if op in ("addin", "mac"):
                    cur = self._read_src(st, MemRef(
                        dst.array, dst.offset, dst.length, dst.stride),
                        k % max(dst.length, 1))
                    if cur is None:
                        return
                    cdt = np.result_type(cur.dtype, r.dtype).name
                    summed = Val.make(cdt, cur.lo + r.lo, cur.hi + r.hi,
                                      cur.err + r.err, cur.mag + r.mag)
                    summed = self._round(st, None, summed, cdt,
                                         rmw_key=idx_key, ctx=ctx)
                    stored = self._round(st, None, summed, ddt,
                                         rmw_key=idx_key, ctx=ctx)
                    self._write_mem(st, dst, k % max(dst.length, 1), stored,
                                    accumulate=True)
                else:
                    stored = self._round(st, None, r, ddt, ctx=ctx)
                    self._write_mem(st, dst, k % max(dst.length, 1), stored,
                                    accumulate=False)
                self.last_writer[(id(st), dst.array)] = (tname, instr,
                                                         src_summary)
            else:  # FabricRef / FifoRef destination: the word as computed
                out_words.append(r)
        for r in out_words:
            self._emit_word(st, dst, r)

    def _process_drain(self, st: _CoreState, tname: str, drain) -> None:
        fifo = drain_fifo_name(drain)
        words = st.fifo_words.get(fifo, [])
        taken = st.fifo_taken.get(fifo, 0)
        pending = words[taken:]
        st.fifo_taken[fifo] = len(words)
        if not pending:
            return
        dst = getattr(drain, "dst", None)
        if dst is None:
            self._note_once(
                (id(st), fifo, "drain"),
                f"numerics: task {tname!r} at {st.pos} drains {fifo!r} "
                "without a declared destination (DrainDecl); the drained "
                "words' accumulation is not certified")
            return
        memory = getattr(st.core, "memory", None)
        ddt = (memory.get(dst.array).dtype.name
               if memory is not None and dst.array in memory else "float16")
        n = max(dst.length, 1)
        fake = _DrainInstr(fifo, dst)
        for k, w in enumerate(pending):
            e = k % n
            cur = self._read_src(st, dst, e)
            if cur is None:
                return
            idx_key = (id(st), dst.array, dst.offset + e * dst.stride)
            cdt = np.result_type(cur.dtype, w.dtype).name
            ctx = (tname, fake, [(w.dtype, w.lo, w.hi)])
            summed = Val.make(cdt, cur.lo + w.lo, cur.hi + w.hi,
                              cur.err + w.err, cur.mag + w.mag)
            summed = self._round(st, None, summed, cdt, rmw_key=idx_key,
                                 ctx=ctx)
            stored = self._round(st, None, summed, ddt, rmw_key=idx_key,
                                 ctx=ctx)
            self._write_mem(st, dst, e, stored, accumulate=True)
        self.last_writer[(id(st), dst.array)] = (
            tname, fake, [( "float16", 0.0, 0.0)])


class _DrainInstr:
    """Stand-in instruction identity for drain-site diagnostics."""

    def __init__(self, fifo: str, dst: MemRef):
        self.op = "drain-addin"
        self.name = f"drain:{fifo}"
        self.dst = dst
        self.srcs = (FifoRef(fifo, dst.length),)
        self.length = dst.length
        self.scalar = None


# ---------------------------------------------------------------------------
# The analyzer pass
# ---------------------------------------------------------------------------
def numerics_pass(fabric, cores):
    """Certified range/error analysis over every declared program.

    Returns ``(diagnostics, notes, NumericsContract)``.
    """
    ev = _Eval(fabric, cores)
    ev.run()
    diags = list(ev.diags)
    notes = list(ev.notes)
    entries = []
    for st in ev.states:
        x, y = st.pos
        tol = st.tol
        for name in sorted(st.written):
            vals = st.mem.get(name)
            if not vals:
                continue
            lo = min(v.lo for v in vals)
            hi = max(v.hi for v in vals)
            err = max(v.err for v in vals)
            mag = max(v.mag for v in vals)
            dt = vals[0].dtype
            entries.append((x, y, "array", name, dt, lo, hi, err, mag, tol))
            if tol is not None and err > tol:
                diags.append(_tolerance_diag(st, name, err, ev))
        if st.scalar_written and st.scalar is not None:
            v = st.scalar
            entries.append((x, y, "scalar", SCALAR_NAME, v.dtype, v.lo,
                            v.hi, v.err, v.mag, tol))
            if tol is not None and v.err > tol:
                diags.append(_tolerance_diag(st, SCALAR_NAME, v.err, ev))
    contract = NumericsContract(entries=tuple(entries))
    n_err = sum(1 for d in diags if d.severity is Severity.ERROR)
    worst = contract.worst()
    if worst is not None and not n_err:
        notes.append(
            f"numerics: {len(entries)} certified output(s); worst error "
            f"bound {worst[7]:.3g} on {worst[3]!r} at ({worst[0]},{worst[1]})"
        )
    return diags, notes, contract


def _tolerance_diag(st: _CoreState, name: str, err: float,
                    ev: _Eval) -> Diagnostic:
    x, y = st.pos
    writer = ev.last_writer.get((id(st), name))
    data = ()
    if writer is not None:
        tname, instr, src_summary = writer
        data = ev._witness(st, tname, instr,
                           [s for s in src_summary if s is not None],
                           _INF if err == _INF else err)
    return Diagnostic(
        Severity.ERROR, "numerics", "tolerance-exceeded",
        f"certified error bound {err:.6g} for {name!r} exceeds the "
        f"declared tolerance {st.tol:.6g}",
        where=(x, y),
        hint="accumulate at fp32, shorten the reduction, or precondition "
             "to shrink the operands' dynamic range (paper section VI)",
        data=data,
    )


# ---------------------------------------------------------------------------
# Witness synthesis and shadow-executor confirmation
# ---------------------------------------------------------------------------
def _witness_data(diag_or_data):
    data = getattr(diag_or_data, "data", diag_or_data)
    if not data or data[0] != "numerics":
        raise ValueError("not a numerics witness payload")
    return data


def synthesize_numerics_witness(diag_or_data):
    """Cut a minimal single-tile feeder program from an ERROR witness.

    Every fabric/FIFO source becomes a local feeder array filled with
    the worst-magnitude endpoint of its inferred value range, so one
    instruction reproduces the flagged arithmetic without routing.
    Returns ``(fabric, handles)`` with ``handles`` exposing the live
    instruction, the output array or scalar accumulator, and the
    declared tolerance.
    """
    from ..config import CS1
    from ..core import Core
    from ..dsr import Instruction, MemCursor, ScalarAccumulator
    from ..fabric import Fabric
    from .spec import InstrDecl, ProgramDecl

    (_tag, _x, _y, _task, name, op, dst_kind, dst_dt, dst_len, length,
     scalar, tol, _mag, src_specs) = _witness_data(diag_or_data)
    op = "addin" if op == "drain-addin" else op
    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    decl = ProgramDecl()
    core.program_decl = decl
    srcs = []
    src_refs = []
    for i, (sdt, lo, hi) in enumerate(src_specs):
        lo, hi = _dec(lo), _dec(hi)
        val = lo if abs(lo) >= abs(hi) else hi
        if not math.isfinite(val):
            val = math.copysign(finite_max(sdt), val)
        arr = core.memory.alloc(f"src{i}", max(length, 1), np.dtype(sdt))
        arr[:] = np.dtype(sdt).type(val)
        srcs.append(MemCursor(arr, 0, length, name=f"src{i}"))
        src_refs.append(MemRef(f"src{i}", 0, length))
        decl.declare_range(f"src{i}", min(lo, hi), max(lo, hi))
    if dst_kind == "scalar":
        out = ScalarAccumulator(np.dtype(dst_dt), name="out")
        dst = out
        dst_ref = ScalarRef(dst_dt)
    else:
        arr = core.memory.alloc("out", max(dst_len, 1), np.dtype(dst_dt))
        out = arr
        dst = MemCursor(arr, 0, dst_len if op != "mac" else length,
                        name="out")
        dst_ref = MemRef("out", 0, dst_len)
    instr = Instruction(op=op, dst=dst, srcs=srcs, length=length,
                        scalar=scalar, name=name or "witness")
    decl.launched(InstrDecl(op, dst_ref, tuple(src_refs), length=length,
                            scalar=scalar, name=name or "witness"))
    if tol is not None:
        decl.declare_tolerance(tol)
    core.launch(instr, thread=None)
    return fabric, {"instr": instr, "out": out, "core": core,
                    "tolerance": tol, "dst_kind": dst_kind}


def confirm_numerics_witness(diag_or_data, engine: str = "active") -> dict:
    """Validate a numerics ERROR under the fp64 shadow executor.

    Runs the synthesized feeder program on the live ``engine`` with
    :class:`~repro.wse.sanitizer.ShadowNumerics` attached and measures
    the realized error.  The witness is *confirmed* when the primary
    output is non-finite while the shadow stays finite (a realized
    overflow), or the realized error exceeds the declared tolerance.
    Raises RuntimeError when the run does not reproduce the hazard
    (static bounds are conservative; confirmation is sound, not
    complete).
    """
    from ..sanitizer import ShadowNumerics

    fabric, handles = synthesize_numerics_witness(diag_or_data)
    select_engine(fabric, engine)
    shadow = ShadowNumerics(fabric)
    fabric.attach_sanitizer(shadow)
    try:
        # Overflow in the primary fp16 stores is the very hazard being
        # reproduced — don't let numpy warn about it.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fabric.run(max_cycles=100_000,
                       until=lambda f: handles["instr"].finished)
    finally:
        fabric.detach_sanitizer()
    if handles["dst_kind"] == "scalar":
        primary = float(handles["out"].value)
        key_name = handles["out"].name or SCALAR_NAME
    else:
        primary = float(np.abs(np.asarray(
            handles["out"], dtype=np.float64)).max())
        key_name = "out"
    realized = 0.0
    finite_primary = math.isfinite(primary)
    for rec in shadow.report():
        if rec["name"] in (key_name, SCALAR_NAME, "out"):
            realized = max(realized, rec["error"])
    tol = handles["tolerance"]
    confirmed = (not finite_primary) or (tol is not None and realized > tol)
    if not confirmed:
        raise RuntimeError(
            f"numerics witness did not reproduce the hazard: realized "
            f"error {realized:.6g} (primary finite={finite_primary}, "
            f"tolerance={tol})"
        )
    return {
        "realized_error": realized,
        "primary_finite": finite_primary,
        "tolerance": tol,
        "engine": engine,
    }
