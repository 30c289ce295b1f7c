"""Tests for the causal cycle profiler (`repro.obs.profile`) and the
benchmark history ledger (`repro.analysis.bench_history`).

The profiler's contract is *conservation*: every non-busy core cycle is
classified (``busy + wait_rx + wait_credit + idle == stepped`` on every
tile), the extracted critical path partitions the profiled window
exactly, and the slack decomposition against a program's
:class:`StaticContract` sums exactly to ``observed - bound`` — under
the active engine, the reference engine, and the record/replay engine.
"""

import json

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.kernels.spmv3d import SpmvEngine
from repro.obs import (
    CycleProfiler,
    ObsSession,
    STATE_NAMES,
    bottleneck_table,
    slack_table,
    top_bottleneck,
)
from repro.problems import momentum_system
from repro.problems.stencil7 import Stencil7
from repro.wse.allreduce import AllReduceEngine

RNG = np.random.default_rng(11)


def _assert_conserved(prof):
    """Every tile's states sum to the profiler's stepped clock, and the
    critical path partitions the window exactly."""
    taxonomy = prof.taxonomy()
    assert taxonomy, "profiler saw no tiles"
    for coord, states in taxonomy.items():
        assert set(states) == set(STATE_NAMES)
        assert sum(states.values()) == prof.stepped, coord
    path = prof.critical_path()
    assert sum(s["cycles"] for s in path) == prof.stepped
    fpath = prof.critical_path_fabric()
    assert sum(s["cycles"] for s in fpath) == prof.fabric.cycle - prof.cycle0


def _spmv_op(shape=(3, 3, 8)):
    op, _b, _dinv = Stencil7.from_random(
        shape, rng=np.random.default_rng(3)).jacobi_precondition()
    return op


# ----------------------------------------------------------------------
class TestConservation:
    def test_spmv_active(self):
        obs = ObsSession(profile=True)
        eng = SpmvEngine(_spmv_op(),
                         options=RunOptions(engine="active", obs=obs))
        v = 0.1 * RNG.standard_normal(eng.op.shape)
        eng.run(v)
        eng.run(v)
        _assert_conserved(obs.profiles["spmv"])

    def test_allreduce_active(self):
        eng = AllReduceEngine(5, 3, options=RunOptions(engine="active"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        values = np.arange(15, dtype=np.float64).reshape(3, 5)
        eng.reduce(values)
        prof = obs.profiles["allreduce"]
        _assert_conserved(prof)
        # A reduce genuinely waits on upstream partials somewhere.
        assert prof.totals()["wait_rx"] > 0

    def test_reference_engine(self):
        eng = AllReduceEngine(4, 3, options=RunOptions(engine="reference"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        eng.reduce(np.ones((3, 4)))
        _assert_conserved(obs.profiles["allreduce"])

    def test_solver_both_fabrics(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        obs = ObsSession(profile=True)
        solver = DESBiCGStab(sys_.operator, options=RunOptions(obs=obs))
        solver.solve(sys_.b, rtol=5e-3, maxiter=8)
        assert set(obs.profiles) == {"spmv", "allreduce"}
        for prof in obs.profiles.values():
            _assert_conserved(prof)


class TestReplayFold:
    def test_replay_taxonomy_bit_identical_to_live(self):
        op = _spmv_op()
        vs = [0.1 * np.random.default_rng(7).standard_normal(op.shape)
              for _ in range(3)]
        sessions = {}
        for engine in ("active", "replay"):
            obs = ObsSession(profile=True)
            eng = SpmvEngine(op, options=RunOptions(engine=engine, obs=obs))
            for v in vs:
                eng.run(v)
            sessions[engine] = obs
        live = sessions["active"].profiles["spmv"]
        rep = sessions["replay"].profiles["spmv"]
        _assert_conserved(rep)
        assert rep.stepped == live.stepped
        assert rep.taxonomy() == live.taxonomy()
        assert rep.totals() == live.totals()

    def test_replay_solve_conserves_and_matches(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        results, profs = {}, {}
        for engine in ("active", "replay"):
            obs = ObsSession(profile=True)
            solver = DESBiCGStab(sys_.operator,
                                 options=RunOptions(engine=engine, obs=obs))
            results[engine] = solver.solve(sys_.b, rtol=5e-3, maxiter=8)
            profs[engine] = obs.profiles
        assert np.array_equal(results["active"].x, results["replay"].x)
        for name in ("spmv", "allreduce"):
            _assert_conserved(profs["replay"][name])
            assert (profs["replay"][name].taxonomy()
                    == profs["active"][name].taxonomy())

    def test_foreign_tape_fold_opaque_conserves(self):
        """A profiler attached after recording still conserves: the
        replayed window folds opaquely into each tile's frozen state."""
        op = _spmv_op()
        v = 0.1 * RNG.standard_normal(op.shape)
        # The engine records unprofiled.
        eng = SpmvEngine(op, options=RunOptions(engine="replay"))
        eng.run(v)
        prof = CycleProfiler("late", eng.fabric).attach()
        eng.run(v)  # replays; profiler folds opaquely
        _assert_conserved(prof)
        prof.detach()


class TestProfilerMechanics:
    def test_attach_detach_restores(self):
        eng = AllReduceEngine(4, 2, options=RunOptions(engine="active"))
        prof = CycleProfiler("ar", eng.fabric).attach()
        assert eng.fabric.profiler is prof
        eng.reduce(np.ones((2, 4)))
        prof.detach()
        assert eng.fabric.profiler is None
        assert eng.fabric.obs is None
        for row in eng.fabric.cores:
            for core in row:
                if core is not None:
                    assert core.profiler is None
        # A second reduce leaves the ledgers untouched.
        before = prof.stepped
        eng.reduce(np.ones((2, 4)))
        assert prof.stepped == before

    def test_double_attach_conflict(self):
        eng = AllReduceEngine(3, 2, options=RunOptions(engine="active"))
        CycleProfiler("a", eng.fabric).attach()
        with pytest.raises(RuntimeError, match="already"):
            CycleProfiler("b", eng.fabric).attach()

    def test_mark_windows_the_run(self):
        eng = AllReduceEngine(4, 3, options=RunOptions(engine="active"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        prof = obs.profiles["allreduce"]
        eng.reduce(np.ones((3, 4)))
        mark = prof.mark()
        eng.reduce(np.ones((3, 4)))
        window = prof.stepped - mark.stepped
        assert window > 0
        path = prof.critical_path(mark)
        assert sum(s["cycles"] for s in path) == window
        tax = prof.taxonomy(mark)
        for states in tax.values():
            assert sum(states.values()) == window

    def test_harvest_exposes_counters(self):
        eng = AllReduceEngine(4, 2, options=RunOptions(engine="active"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        eng.reduce(np.ones((2, 4)))
        obs.harvest()
        d = obs.metrics.as_dict()
        total = sum(d[f"allreduce.profile.{s}_cycles"]["value"]
                    for s in STATE_NAMES)
        prof = obs.profiles["allreduce"]
        assert total == prof.stepped * len(prof.taxonomy())


class TestSlackAttribution:
    @pytest.mark.parametrize("engine", ["active", "replay"])
    def test_all_programs_slack_sums_exactly(self, engine):
        """Acceptance criterion: for every verify-contracts program the
        profiled slack decomposition sums exactly to observed - bound,
        under both the active and the replay engine."""
        from repro.wse.analyze.verify_contracts import verify_contracts

        checks = verify_contracts(engine, profile=True)
        assert len(checks) == 9
        for c in checks:
            assert c.slack_breakdown, c.program
            assert c.slack_breakdown_ok, c.program
            assert sum(v for _k, v in c.slack_breakdown) == c.slack
            assert c.ok, c.summary()

    def test_breakdown_excluded_from_key(self):
        from repro.wse.analyze.verify_contracts import ContractCheck

        kw = dict(program="p", engine="active", runs=1, expected_words=0,
                  observed_words=0, metrics_words=0, router_mismatches=(),
                  cycle_lower_bound=3, observed_cycles=5, cdg_clean=True)
        plain = ContractCheck(**kw)
        profiled = ContractCheck(
            **kw, slack_breakdown=(("compute_overhang", 2),))
        assert plain.key() == profiled.key()
        assert profiled.slack_breakdown_ok
        bad = ContractCheck(**kw, slack_breakdown=(("idle", 1),))
        assert not bad.slack_breakdown_ok and not bad.ok


class TestReportsAndExports:
    @pytest.fixture(scope="class")
    def profiled_solve(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        obs = ObsSession(profile=True)
        solver = DESBiCGStab(sys_.operator, options=RunOptions(obs=obs))
        result = solver.solve(sys_.b, rtol=5e-3, maxiter=8)
        obs.harvest()
        return obs, solver, result

    def test_top_bottleneck_names_cause(self, profiled_solve):
        obs, _, _ = profiled_solve
        bn = top_bottleneck(obs)
        assert bn is not None
        assert bn["state"] not in ("busy", "idle_skipped")
        assert bn["fabric"] in ("spmv", "allreduce")
        assert bn["phase"] in ("spmv", "allreduce", "axpy", "dot_local")
        assert bn["cycles"] > 0 and 0 < bn["share"] <= 1

    def test_bottleneck_table_accounts_all_path_cycles(self, profiled_solve):
        obs, solver, _ = profiled_solve
        table = bottleneck_table(obs)
        # Both fabrics tick through every timeline cycle, so the path
        # total is fabrics x timeline.
        expect = len(obs.profiles) * solver.report.total_cycles
        assert f"total{'':<0}" in table and str(expect) in table
        assert "100.0%" in table

    def test_slack_table_sums(self, profiled_solve):
        obs, solver, _ = profiled_solve
        from repro.obs.cli import _contract_bounds

        bounds = _contract_bounds(obs, solver)
        assert set(bounds) == {"spmv", "allreduce"}
        text = slack_table(obs, bounds)
        for name, (bound, observed) in bounds.items():
            assert f"{name}: observed {observed} cycles vs bound {bound}" in text
            comp = obs.profiles[name].slack_attribution(
                bound, observed=observed)
            assert sum(comp.values()) == observed - bound

    def test_flamegraph_collapsed_stack_format(self, profiled_solve, tmp_path):
        obs, solver, _ = profiled_solve
        path = obs.write_flamegraph(tmp_path / "flame.txt")
        lines = path.read_text().splitlines()
        assert lines
        total = 0
        for line in lines:
            stack, n = line.rsplit(" ", 1)
            total += int(n)
            frames = stack.split(";")
            assert 2 <= len(frames) <= 4
            assert frames[-1] in STATE_NAMES + ("idle_skipped",)
        # Stacks cover every profiled tile-cycle plus skipped spans.
        expect = sum(
            prof.stepped * len(prof.taxonomy())
            + (prof.fabric.cycle - prof.cycle0 - prof.stepped)
            for prof in obs.profiles.values()
        )
        assert total == expect

    def test_chrome_trace_critical_path_tracks(self, profiled_solve,
                                               tmp_path):
        obs, solver, _ = profiled_solve
        path = obs.write_chrome_trace(tmp_path / "p.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        cp = [e for e in events if e.get("cat") == "critical_path"]
        assert cp
        # Per fabric, the highlight track durations sum to the timeline.
        tid_name = {e["tid"]: e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
        per_track: dict[str, int] = {}
        for e in cp:
            track = tid_name[e["tid"]]
            per_track[track] = per_track.get(track, 0) + e["dur"]
        for track, dur in per_track.items():
            assert track.startswith("critical-path:")
            assert dur == solver.report.total_cycles
        # Harvested metric counter tracks rode along (satellite 4).
        names = {e["name"] for e in events if e["ph"] == "C"}
        assert any(n.endswith("router_words_moved") for n in names)

    def test_profile_cli_no_files(self, capsys):
        from repro.obs.cli import profile_main

        rc = profile_main(["--shape", "6", "6", "8", "--maxiter", "4",
                           "--no-files"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top bottleneck:" in out
        assert "critical-path bottlenecks" in out
        assert "slack attribution" in out

    def test_unprofiled_session_renders_hint(self):
        obs = ObsSession()
        assert "profile=True" in bottleneck_table(obs)
        assert top_bottleneck(obs) is None


class TestBenchHistory:
    def _des_payload(self, cps, mesh=(6, 6, 8)):
        return {"benchmark": "bicgstab_des_engine",
                "workload": {"mesh": list(mesh)},
                "active": {"cycles_per_second": cps}}

    def test_summarize_schemas(self, tmp_path):
        from repro.analysis.bench_history import summarize

        rec = summarize(self._des_payload(1234.5))
        assert rec["cycles_per_second"] == 1234.5
        assert rec["mesh"] == [6, 6, 8]
        rec = summarize({"benchmark": "obs_overhead", "workload": {},
                         "off": {"cycles_per_second": 10.0}})
        assert rec["cycles_per_second"] == 10.0
        rec = summarize({"benchmark": "profile_overhead", "workload": {},
                         "off": {"cycles_per_second": 7.5}})
        assert rec["cycles_per_second"] == 7.5
        rec = summarize({"benchmark": "bicgstab_replay_engine",
                         "workload": {},
                         "replay": {"cycles_per_second": 99.0}})
        assert rec["cycles_per_second"] == 99.0
        rec = summarize({"benchmark": "analyze_cost", "programs": [
            {"program": "a", "all_passes_seconds": 1.5},
            {"program": "b", "all_passes_seconds": 0.5}]})
        assert rec["seconds"] == 2.0 and rec["cycles_per_second"] is None
        assert summarize({"benchmark": "unknown_thing"}) is None

    def test_append_and_compare_ok(self, tmp_path):
        from repro.analysis.bench_history import append_history, compare

        bench = tmp_path / "BENCH_des.json"
        ledger = tmp_path / "BENCH_history.jsonl"
        bench.write_text(json.dumps(self._des_payload(1000.0)))
        recs = append_history([bench], ledger)
        assert len(recs) == 1
        assert len(ledger.read_text().splitlines()) == 1
        lines, regressions = compare([bench], ledger)
        assert regressions == 0
        assert any("OK" in line for line in lines)

    def test_regression_detected(self, tmp_path):
        from repro.analysis.bench_history import append_history, compare

        bench = tmp_path / "BENCH_des.json"
        ledger = tmp_path / "BENCH_history.jsonl"
        bench.write_text(json.dumps(self._des_payload(1000.0)))
        append_history([bench], ledger)
        bench.write_text(json.dumps(self._des_payload(850.0)))
        lines, regressions = compare([bench], ledger)
        assert regressions == 1
        assert any("REGRESSION" in line for line in lines)
        # Within the 10% gate: no failure.
        bench.write_text(json.dumps(self._des_payload(950.0)))
        _lines, regressions = compare([bench], ledger)
        assert regressions == 0

    def test_cross_host_is_advisory(self, tmp_path):
        from repro.analysis.bench_history import compare

        bench = tmp_path / "BENCH_des.json"
        ledger = tmp_path / "BENCH_history.jsonl"
        ledger.write_text(json.dumps({
            "benchmark": "bicgstab_des_engine", "mesh": [6, 6, 8],
            "host": "some-other-box", "timestamp": 1.0,
            "cycles_per_second": 99999.0, "seconds": None}) + "\n")
        bench.write_text(json.dumps(self._des_payload(100.0)))
        lines, regressions = compare([bench], ledger)
        assert regressions == 0
        assert any("advisory" in line for line in lines)

    def test_earliest_same_host_baseline_wins(self, tmp_path):
        import socket

        from repro.analysis.bench_history import compare

        host = socket.gethostname()
        ledger = tmp_path / "BENCH_history.jsonl"
        rows = [
            {"benchmark": "bicgstab_des_engine", "mesh": [6, 6, 8],
             "host": "elsewhere", "timestamp": 1.0,
             "cycles_per_second": 5.0, "seconds": None},
            {"benchmark": "bicgstab_des_engine", "mesh": [6, 6, 8],
             "host": host, "timestamp": 3.0,
             "cycles_per_second": 1000.0, "seconds": None},
            {"benchmark": "bicgstab_des_engine", "mesh": [6, 6, 8],
             "host": host, "timestamp": 2.0,
             "cycles_per_second": 2000.0, "seconds": None},
        ]
        ledger.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        bench = tmp_path / "BENCH_des.json"
        bench.write_text(json.dumps(self._des_payload(1900.0)))
        # Baseline is the earliest same-host entry (2000), not the
        # foreign 5.0 or the later 1000: 1900 vs 2000 is within 10%.
        lines, regressions = compare([bench], ledger)
        assert regressions == 0
        assert any("2000.0" in line for line in lines)

    def test_cli_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.analysis.bench_history import compare_main, history_main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_des.json").write_text(
            json.dumps(self._des_payload(500.0)))
        assert history_main([]) == 0
        assert (tmp_path / "BENCH_history.jsonl").exists()
        assert compare_main([]) == 0
        out = capsys.readouterr().out
        assert "BENCH COMPARE OK" in out
        (tmp_path / "BENCH_des.json").write_text(
            json.dumps(self._des_payload(100.0)))
        assert compare_main([]) == 1
