"""Tests for the observability layer (`repro.obs`).

Covers the metric instruments, the span tracer, the fabric observer
hooks (including exact cycle accounting against the active-set engine),
Chrome-trace export validity, the folded-in ``FabricTrace``/``trace_run``
(whose retired ``repro.wse.stats`` shim must stay gone), deadlock
behaviour under tracing, and the end-to-end DES solve acceptance
criterion: phase spans tile the unified wafer timeline exactly.
"""

import json

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.obs import (
    FabricTrace,
    MetricsRegistry,
    ObsSession,
    SpanTracer,
    chrome_trace_events,
    export_heatmaps,
    phase_table,
    telemetry_table,
    trace_run,
)
from repro.problems import momentum_system
from repro.wse import (
    CS1,
    Core,
    Fabric,
    FabricDeadlockError,
    FabricRx,
    Instruction,
    MemCursor,
    Port,
)

RNG = np.random.default_rng(7)


# ----------------------------------------------------------------------
# A tiny word source/sink pair driving real traffic down a router line.
# ----------------------------------------------------------------------
class _Src:
    def __init__(self, words):
        self._tx = [(0, w) for w in words]
        self.received = []

    def deliver(self, channel, value):
        self.received.append(value)

    def poll_tx(self, channel):
        return self._tx.pop(0)[1] if self._tx else None

    def tx_channels(self):
        return [0] if self._tx else []

    def step(self):
        return 0

    @property
    def idle(self):
        return not self._tx


def _line(n, k_words):
    f = Fabric(n, 1)
    src = _Src(range(k_words))
    sink = _Src([])
    f.attach_core(0, 0, src)
    f.attach_core(n - 1, 0, sink)
    f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
    for x in range(1, n - 1):
        f.attach_core(x, 0, _Src([]))
        f.router(x, 0).set_route(0, Port.WEST, (Port.EAST,))
    f.router(n - 1, 0).set_route(0, Port.WEST, (Port.CORE,))
    return f, sink


def _stuck_fabric():
    """A core wedged on a word that can never arrive (deadlocks)."""
    f = Fabric(2, 1)
    core = Core(0, 0, CS1)
    f.attach_core(0, 0, core)
    q = core.subscribe(5)
    out = np.zeros(4, dtype=np.float32)
    core.launch(Instruction(
        op="copy",
        dst=MemCursor(out, 0, 4, name="out"),
        srcs=[FabricRx(q, 4, 5, name="never")],
        length=4,
        name="starved",
    ), thread=1)
    return f


# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("words")
        c.inc()
        c.inc(9)
        assert c.value == 10
        assert reg.counter("words") is c  # get-or-create
        assert reg.as_dict()["words"] == {"type": "counter", "value": 10}

    def test_gauge_extremes(self):
        g = MetricsRegistry().gauge("occ")
        for v in (3, 7, 1):
            g.set(v)
        assert (g.value, g.max, g.min, g.samples) == (1, 7, 1, 3)

    def test_histogram_buckets_and_percentiles(self):
        h = MetricsRegistry().histogram("depth")
        for v in (0, 1, 2, 3, 4, 100):
            h.observe(v)
        assert h.count == 6
        assert h.mean == pytest.approx(110 / 6)
        assert h.max == 100 and h.min == 0
        # p50 is an upper-bound estimate within one power-of-two bucket.
        assert 2 <= h.percentile(50) <= 3
        assert h.percentile(100) == 100.0

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_format_renders(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(2)
        reg.histogram("c").observe(5)
        text = reg.format()
        assert "a.b" in text and "histogram" in text


class TestSpanTracer:
    def test_record_and_totals(self):
        t = SpanTracer()
        t.record("spmv", 0, 10, cat="phase")
        t.record("spmv", 10, 5, cat="phase")
        t.record("axpy", 15, 3, cat="phase")
        t.record("iteration[1]", 0, 18, cat="iteration")
        assert t.totals(cat="phase") == {"spmv": 15, "axpy": 3}
        assert t.count("spmv") == 2
        assert len(t) == 4
        assert t.spans[0].end == 10

    def test_clocked_context_manager(self):
        clock = [0]
        t = SpanTracer(clock=lambda: clock[0])
        with t.span("work", cat="phase"):
            clock[0] = 42
        (span,) = t.spans
        assert (span.start, span.dur) == (0, 42)

    def test_clockless_span_raises(self):
        with pytest.raises(RuntimeError, match="no clock"):
            with SpanTracer().span("x"):
                pass


class TestFabricObserver:
    def test_cycle_accounting_exact(self):
        """stepped + skipped == fabric.cycle, words match the fabric."""
        f, sink = _line(4, 10)
        obs = ObsSession()
        fo = obs.observe_fabric("line", f)
        f.run()
        f.skip_cycles(100)
        assert len(sink.received) == 10
        assert fo.stepped_cycles + fo.skipped_cycles == f.cycle
        assert fo.total_words == f.total_words_moved
        assert fo.peak_occupancy > 0

    def test_detach_restores_hot_path(self):
        f, _ = _line(3, 4)
        obs = ObsSession()
        obs.observe_fabric("line", f)
        obs.detach()
        assert f.obs is None
        f.run()  # no callbacks fired
        assert obs.fabrics["line"].stepped_cycles == 0

    def test_observe_fabric_idempotent_and_name_guarded(self):
        f, _ = _line(3, 1)
        obs = ObsSession()
        fo = obs.observe_fabric("line", f)
        assert obs.observe_fabric("line", f) is fo
        with pytest.raises(ValueError, match="already observed"):
            obs.observe_fabric("line", Fabric(2, 2))
        assert obs.unique_fabric_name("line") == "line.1"

    def test_series_is_change_points(self):
        """The words-per-cycle series stores change points only, so an
        O(1) skipped span never becomes O(n) when observed."""
        f, _ = _line(3, 6)
        obs = ObsSession()
        fo = obs.observe_fabric("line", f)
        f.run()
        n_before = len(fo.series)
        f.skip_cycles(1_000_000)
        assert len(fo.series) <= n_before + 1
        cycles = [c for c, _ in fo.series]
        assert cycles == sorted(cycles)

    def test_harvest_and_grids(self):
        f, _ = _line(4, 8)
        obs = ObsSession()
        fo = obs.observe_fabric("line", f)
        f.run()
        obs.harvest()
        d = obs.metrics.as_dict()
        assert d["line.router_words_moved"]["count"] > 0
        grids = fo.utilization_grids()
        assert grids["router_words"].shape == (1, 4)
        assert grids["router_words"].sum() == f.total_words_moved

    def test_reference_engine_also_observed(self):
        f, sink = _line(4, 6)
        f.engine = "reference"
        obs = ObsSession()
        fo = obs.observe_fabric("line", f)
        f.run()
        assert len(sink.received) == 6
        assert fo.stepped_cycles == f.cycle
        assert fo.total_words == f.total_words_moved

    def test_utilization_excludes_preattach_busy(self):
        """Regression: busy cycles accumulated before the observer
        attached (warm-ups, prior runs) must not inflate core_busy —
        utilization normalizes to the observed window only."""
        from repro.kernels.spmv3d import SpmvEngine
        from repro.problems.stencil7 import Stencil7

        op, _b, _dinv = Stencil7.from_random(
            (3, 3, 8), rng=np.random.default_rng(3)).jacobi_precondition()
        v = 0.1 * np.random.default_rng(5).standard_normal(op.shape)

        def observed_busy(warm_runs):
            eng = SpmvEngine(op)  # constructor itself runs a warm-up
            for _ in range(warm_runs):
                eng.run(v)  # more unobserved busy cycles
            obs = ObsSession()
            fo = obs.observe_fabric("spmv", eng.fabric)
            eng.run(v)
            return fo.utilization_grids()["core_busy"]

        busy = observed_busy(warm_runs=2)
        assert 0 < busy.max() <= 1.0
        # However many runs happened pre-attach, the observed window's
        # fractions are those of a single run — no residue.
        assert np.allclose(busy, observed_busy(warm_runs=0))


class TestChromeExport:
    def test_events_well_formed(self, tmp_path):
        f, _ = _line(4, 10)
        obs = ObsSession()
        obs.observe_fabric("line", f)
        f.run()
        obs.tracer.record("kernel", 0, f.cycle, cat="phase")
        obs.tracer.sample("residual", 3, 0.5)
        path = obs.write_chrome_trace(tmp_path / "t.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "C" for e in events)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "fabric:line" in names and "wafer" in names
        for e in events:
            if e["ph"] == "M":
                continue
            assert isinstance(e["ts"], int) and e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
        assert data["otherData"]["metrics"]["line.words_moved"]["value"] > 0

    def test_long_counter_series_strided(self):
        obs = ObsSession()
        for i in range(50_000):
            obs.tracer.sample("r", i, float(i))
        events = chrome_trace_events(obs)
        counters = [e for e in events if e["ph"] == "C"]
        from repro.obs.export import MAX_COUNTER_SAMPLES

        assert 0 < len(counters) <= MAX_COUNTER_SAMPLES + 1

    def test_strided_series_preserves_first_and_last(self):
        """Striding must emit the series endpoints exactly: the final
        value is the run's end state and may never be dropped."""
        obs = ObsSession()
        n = 50_000
        for i in range(n):
            obs.tracer.sample("r", i, float(i))
        counters = [e for e in chrome_trace_events(obs)
                    if e["ph"] == "C" and e["name"] == "r"]
        assert counters[0]["ts"] == 0
        assert counters[0]["args"]["value"] == 0.0
        assert counters[-1]["ts"] == n - 1
        assert counters[-1]["args"]["value"] == float(n - 1)

    def test_harvested_metrics_become_counter_tracks(self, tmp_path):
        f, _ = _line(4, 10)
        obs = ObsSession()
        obs.observe_fabric("line", f)
        f.run()
        obs.harvest()
        events = chrome_trace_events(obs)
        names = {e["name"] for e in events if e["ph"] == "C"}
        assert "line.router_words_moved" in names
        tracks = [e for e in events
                  if e["ph"] == "C" and e["name"] == "line.router_words_moved"]
        # Emitted as a flat track spanning the run (start and end).
        assert {e["ts"] for e in tracks} == {0, f.cycle}


class TestFabricTrace:
    def test_snapshot_uses_active_set(self):
        """The recorder matches full-grid sampling because a router
        holding words is always in the active set."""
        f, sink = _line(4, 10)
        cycles, trace = trace_run(f)
        assert len(sink.received) == 10
        assert trace.total_words == f.total_words_moved
        assert trace.cycles == cycles
        assert trace.peak_occupancy > 0

    def test_busiest_routers_no_grid_sweep(self):
        f, _ = _line(5, 10)
        _, trace = trace_run(f)
        busiest = trace.busiest_routers(5)
        counts = [n for _, n in busiest]
        assert counts == sorted(counts, reverse=True)
        # Only ever-active routers are candidates.
        assert len(busiest) <= 5

    def test_deadlock_diagnosed_with_partial_trace(self):
        """Satellite 3: a stuck program under tracing still raises
        FabricDeadlockError naming the stuck core, and the partial
        trace up to the stuck cycle remains usable."""
        f = _stuck_fabric()
        with pytest.raises(FabricDeadlockError, match=r"\(0,0\)") as ei:
            trace_run(f, max_cycles=50_000)
        assert f.cycle < 10  # diagnosed immediately, not timed out
        trace = ei.value.trace
        assert trace.cycles == f.cycle  # includes the stuck cycle
        assert "words/cycle" in trace.report()

    def test_deadlock_under_session_tracing_exportable(self, tmp_path):
        """A deadlocked run observed by an ObsSession still diagnoses
        the stuck core, and the partial record exports valid JSON."""
        f = _stuck_fabric()
        obs = ObsSession()
        fo = obs.observe_fabric("stuck", f)
        with pytest.raises(FabricDeadlockError, match=r"\(0,0\)"):
            f.run(max_cycles=50_000)
        assert fo.stepped_cycles == f.cycle
        path = obs.write_chrome_trace(tmp_path / "partial.json")
        assert json.loads(path.read_text())["traceEvents"]

    def test_stats_shim_retired(self):
        """The deprecated ``repro.wse.stats`` PEP 562 shim is gone; the
        canonical homes are ``repro.obs.trace`` and the ``repro.wse``
        re-export."""
        with pytest.raises(ImportError):
            from repro.wse import stats  # noqa: F401
        from repro.obs.trace import FabricTrace as canonical
        from repro.wse import FabricTrace as reexported

        assert canonical is reexported is FabricTrace
        from repro.obs.trace import trace_run as canonical_run
        from repro.wse import trace_run as reexported_run

        assert canonical_run is reexported_run is trace_run


class TestObservedSolve:
    @pytest.fixture(scope="class")
    def solved(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        obs = ObsSession()
        solver = DESBiCGStab(sys_.operator, options=RunOptions(obs=obs))
        result = solver.solve(sys_.b, rtol=5e-3, maxiter=10)
        obs.harvest()
        return obs, solver, result

    def test_phase_spans_tile_timeline(self, solved):
        """Acceptance criterion: summed per-phase span cycles equal the
        fabric's total stepped cycles on the unified timeline."""
        obs, solver, result = solved
        assert result.converged
        totals = obs.phase_totals()
        assert set(totals) == {"spmv", "allreduce", "axpy", "dot_local"}
        assert sum(totals.values()) == solver.report.total_cycles
        for fo in obs.fabrics.values():
            assert fo.fabric.cycle == solver.report.total_cycles
            assert fo.stepped_cycles + fo.skipped_cycles == fo.fabric.cycle

    def test_phase_spans_are_contiguous(self, solved):
        obs, _, _ = solved
        spans = sorted((s for s in obs.tracer.spans if s.cat == "phase"),
                       key=lambda s: s.start)
        pos = 0
        for s in spans:
            assert s.start == pos
            pos = s.end

    def test_iteration_spans_and_telemetry(self, solved):
        obs, _, result = solved
        iters = [s for s in obs.tracer.spans if s.cat == "iteration"]
        assert len(iters) == result.iterations
        assert iters[0].args["residual"] == result.residuals[0]
        assert len(obs.telemetry) == result.iterations
        rec = obs.telemetry[0]
        assert {"iteration", "residual", "rho", "alpha", "omega"} <= set(rec)

    def test_kernel_spans_recorded(self, solved):
        obs, solver, _ = solved
        runs = [s for s in obs.tracer.spans if s.name == "spmv.run"]
        assert len(runs) == solver.report.spmv_runs
        assert all(s.cat == "kernel" for s in runs)

    def test_fabric_metrics_flow(self, solved):
        obs, _, _ = solved
        d = obs.metrics.as_dict()
        assert d["spmv.words_moved"]["value"] > 0
        assert d["allreduce.words_moved"]["value"] > 0
        assert d["spmv.fifo_high_water"]["count"] > 0
        assert d["allreduce.router_queue_occupancy"]["max"] >= 1

    def test_reports_render(self, solved):
        obs, _, result = solved
        table = phase_table(obs, iterations=result.iterations)
        assert "spmv" in table and "100.0%" in table
        tele = telemetry_table(obs)
        assert "residual" in tele

    def test_heatmap_export(self, solved, tmp_path):
        obs, _, _ = solved
        paths = export_heatmaps(obs, tmp_path / "hm")
        # 2 fabrics x 2 grids x 2 formats
        assert len(paths) == 8
        npy = [p for p in paths if p.suffix == ".npy"]
        for p in npy:
            grid = np.load(p)
            assert grid.shape == (6, 6)
        words = np.load([p for p in npy if "spmv_router_words" in p.name][0])
        assert words.sum() > 0

    def test_chrome_trace_round_trip(self, solved, tmp_path):
        obs, solver, _ = solved
        path = obs.write_chrome_trace(tmp_path / "solve.json")
        data = json.loads(path.read_text())
        phase_dur: dict[str, int] = {}
        for e in data["traceEvents"]:
            if e.get("cat") == "phase":
                phase_dur[e["name"]] = phase_dur.get(e["name"], 0) + e["dur"]
        assert sum(phase_dur.values()) == solver.report.total_cycles

    def test_unobserved_solve_identical(self, solved):
        """Observation never perturbs the simulation."""
        _, solver, result = solved
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        bare = DESBiCGStab(sys_.operator)
        bare_res = bare.solve(sys_.b, rtol=5e-3, maxiter=10)
        assert np.array_equal(bare_res.x, result.x)
        assert bare_res.residuals == result.residuals
        assert bare.report.total_cycles == solver.report.total_cycles


class TestReplayObservation:
    """Observability composed with the record/replay engine: counters
    fold bit-identically from the tape, sampled instruments are (by
    documented design) not re-sampled, and phase spans keep tiling the
    unified timeline across live -> replay -> live transitions."""

    def _spmv_session(self, engine, runs=3):
        from repro.kernels.spmv3d import SpmvEngine
        from repro.problems.stencil7 import Stencil7

        op, _b, _dinv = Stencil7.from_random(
            (3, 3, 8), rng=np.random.default_rng(3)).jacobi_precondition()
        obs = ObsSession()
        eng = SpmvEngine(op, options=RunOptions(engine=engine, obs=obs))
        v = 0.1 * np.random.default_rng(5).standard_normal(op.shape)
        for _ in range(runs):
            eng.run(v)
        return obs

    def test_replay_counters_bit_identical(self):
        live = self._spmv_session("active").metrics.as_dict()
        rep = self._spmv_session("replay").metrics.as_dict()
        for key in ("spmv.stepped_cycles", "spmv.skipped_cycles",
                    "spmv.words_moved", "spmv.core_stall_cycles"):
            assert rep[key]["value"] == live[key]["value"], key

    def test_replay_does_not_resample_gauges(self):
        """Replay executes no per-cycle sweep, so sampled instruments
        (active-router histogram, occupancy gauge) only reflect the live
        recording run — fewer observations than the all-live session."""
        live = self._spmv_session("active").metrics.as_dict()
        rep = self._spmv_session("replay").metrics.as_dict()
        assert 0 < (rep["spmv.active_routers"]["count"]
                    ) < live["spmv.active_routers"]["count"]

    def test_phase_spans_tile_timeline_under_replay(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        obs = ObsSession()
        solver = DESBiCGStab(sys_.operator,
                             options=RunOptions(engine="replay", obs=obs))
        result = solver.solve(sys_.b, rtol=5e-3, maxiter=10)
        assert result.converged
        totals = obs.phase_totals()
        assert sum(totals.values()) == solver.report.total_cycles
        spans = sorted((s for s in obs.tracer.spans if s.cat == "phase"),
                       key=lambda s: s.start)
        pos = 0
        for s in spans:
            assert s.start == pos
            pos = s.end
        assert pos == solver.report.total_cycles
        for fo in obs.fabrics.values():
            assert fo.stepped_cycles + fo.skipped_cycles == fo.fabric.cycle
