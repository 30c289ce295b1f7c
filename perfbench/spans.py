"""Outside-in span recorder for the traced run.

The recorder times calls into the repo's layers from outside: it
replaces each public name in the namespace of the module that calls it
with a wrapper that records a span.  Nothing inside the program is
edited, and per-cycle methods (``Core.step``, ``step_network``) are
never wrapped, only per-kernel entry points.

A target the recorder cannot resolve (a later refactor renamed or
moved it) marks its layer ``unmeasured`` with the reason; it never
raises, so the untraced benchmark keeps working and the trace degrades.

A span holds its name, start and end ``perf_counter_ns``, its parent
span's index, the request id, and optional counter deltas.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict

#: (span name, module that makes the call, attribute path looked up in
#: that module's namespace, kind).  ``kind`` is ``"call"`` for a plain
#: function or method, ``"context"`` for a context-manager factory.
TARGETS = (
    ("bicgstab_des.solve", "repro.kernels.bicgstab_des", "DESBiCGStab.solve", "call"),
    ("spmv3d.engine_init", "repro.kernels.bicgstab_des", "SpmvEngine.__init__", "call"),
    ("spmv3d.run", "repro.kernels.bicgstab_des", "SpmvEngine.run", "call"),
    ("spmv3d.build", "repro.kernels.spmv3d", "build_spmv_fabric", "call"),
    ("allreduce.engine_init", "repro.kernels.bicgstab_des", "AllReduceEngine.__init__", "call"),
    ("allreduce.reduce", "repro.kernels.bicgstab_des", "AllReduceEngine.reduce", "call"),
    ("analyze.contract", "repro.kernels.spmv3d", "compute_contract", "call"),
    # AllReduceEngine imports compute_contract from this module at call time.
    ("analyze.contract", "repro.wse.analyze.contracts", "compute_contract", "call"),
    ("analyze.proof", "repro.wse.replay.engine", "prove_schedule_deterministic", "call"),
    ("analyze.proof_passes", "repro.wse.analyze.schedule", "analyze_program", "call"),
    ("analyze.fingerprint", "repro.wse.analyze.schedule", "program_fingerprint", "call"),
    # The kernels import ReplaySession from the package at call time.
    ("replay.record", "repro.wse.replay", "ReplaySession.record", "context"),
    ("replay.compile", "repro.wse.replay.engine", "compile_tape", "call"),
    ("replay.execute", "repro.wse.replay", "ReplaySession.replay", "call"),
    ("fabric.run", "repro.kernels.spmv3d", "Fabric.run", "call"),
    ("fabric.skip", "repro.kernels.spmv3d", "Fabric.skip_cycles", "call"),
)


def _fabric_counters(fabric) -> dict:
    stats = fabric.stats
    return {
        "cycles": stats.cycles,
        "skipped": stats.skipped_cycles,
        "words": fabric.total_words_moved,
        "router_visits": stats.active_router_cycles,
        "core_visits": stats.active_core_cycles,
    }


#: Counter probes read from the call's ``self`` before and after it; the
#: span keeps the deltas.
PROBES = {"fabric.run": _fabric_counters, "fabric.skip": _fabric_counters}

#: Spans whose ``self`` is an engine holding a ``replay`` session.
ENGINE_SPANS = ("spmv3d.engine_init", "allreduce.engine_init")


class _SpanContext:
    """Wraps a context manager so its whole ``with`` block is one span."""

    def __init__(self, recorder, name, cm):
        self._rec, self._name, self._cm = recorder, name, cm

    def __enter__(self):
        self._idx = self._rec._open(self._name)
        try:
            return self._cm.__enter__()
        except BaseException:
            self._rec._close(self._idx)
            raise

    def __exit__(self, *exc):
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._rec._close(self._idx)


class SpanRecorder:
    """Records host-time spans around the layer entry points in :data:`TARGETS`."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        #: ``[name, start_ns, end_ns, parent, request, counters]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None
        #: span name -> reason it is not measured.
        self.unmeasured: dict[str, str] = {}
        #: Engines seen by an ``*.engine_init`` span (weakly held).
        self.engines = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.request, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _probe(self, name: str, probe, obj) -> dict | None:
        if probe is None:
            return None
        try:
            return probe(obj)
        except AttributeError as exc:
            self.unmeasured.setdefault(f"{name} counters", str(exc))
            return None

    def _wrap(self, name: str, fn, kind: str):
        rec = self
        probe = PROBES.get(name)
        engine = name in ENGINE_SPANS
        if kind == "context":
            def wrapper(*args, **kwargs):
                return _SpanContext(rec, name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                before = rec._probe(name, probe, args[0])
                idx = rec._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec._close(idx)
                    after = rec._probe(name, probe, args[0])
                    if before is not None and after is not None:
                        rec.spans[idx][5] = {k: after[k] - before[k] for k in after}
                    if engine:
                        rec.engines.add(args[0])
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; mark the rest unmeasured."""
        for name, module, path, kind in self.targets:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if not callable(fn):
                    raise TypeError(f"{module}.{path} is not callable")
            except (ImportError, AttributeError, KeyError, TypeError) as exc:
                self.unmeasured[name] = f"{module}.{path} not found: {exc}"
                continue
            setattr(owner, attr, self._wrap(name, fn, kind))
            self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- per-request summaries ------------------------------------------
    def summary(self, request: int) -> dict:
        """Inclusive time, self time, call count and counter deltas per span
        name for one request, plus the time its top-level spans cover."""
        own = [(i, s) for i, s in enumerate(self.spans) if s[4] == request and s[2] is not None]
        child_ns = defaultdict(int)
        for _, s in own:
            if s[3] is not None:
                child_ns[s[3]] += s[2] - s[1]
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counters: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        covered = 0
        kernel_replays = 0
        kernel_calls = 0
        replayed_parents = {s[3] for _, s in own if s[0] == "replay.execute"}
        for i, s in own:
            name, dur = s[0], s[2] - s[1]
            incl[name] += dur / 1e9
            self_s[name] += (dur - child_ns[i]) / 1e9
            calls[name] += 1
            if s[5]:
                for k, v in s[5].items():
                    counters[name][k] += v
            if s[3] is None:
                covered += dur
            if name in ("spmv3d.run", "allreduce.reduce"):
                kernel_calls += 1
                kernel_replays += i in replayed_parents
        return {
            "incl_s": dict(incl),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": {k: dict(v) for k, v in counters.items()},
            "covered_s": covered / 1e9,
            "kernel_calls": kernel_calls,
            "kernel_replays": kernel_replays,
        }

    def replay_counters(self) -> dict:
        """Summed counters of the replay sessions of every engine seen."""
        total = {"records": 0, "replays": 0, "fallbacks": 0,
                 "invalidations": 0, "schedule_nodes": 0}
        for eng in list(self.engines):
            sess = getattr(eng, "replay", None)
            if sess is None:
                continue
            for k in ("records", "replays", "fallbacks", "invalidations"):
                total[k] += getattr(sess, k, 0)
            sched = getattr(sess, "schedule", None)
            total["schedule_nodes"] += getattr(sched, "n_nodes", 0) if sched is not None else 0
        return total

    def dump(self) -> list[dict]:
        """Spans as JSON-ready dicts."""
        return [
            {"name": n, "start_ns": a, "end_ns": b, "parent": p, "request": r,
             **({"counters": c} if c else {})}
            for n, a, b, p, r, c in self.spans
        ]
