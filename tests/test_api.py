"""Tests for :mod:`repro.api` — RunOptions, Session, and the CLI fragment.

Three contracts live here: the :class:`RunOptions` value object rejects
every inconsistent combination at construction (so runners never have
to re-validate), runners accept their execution settings only as
``options=RunOptions(...)``, and the shared CLI fragment spells
``--engine``/``--json`` identically for every subcommand.
"""

import argparse

import numpy as np
import pytest

from repro.api import (
    ENGINES,
    SANITIZE_REPLAY_REASON,
    AllReduce,
    Axpy,
    Dot,
    RunOptions,
    Session,
    Spmv3D,
    add_engine_arguments,
    options_from_args,
)


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.engine == "active"
        assert not opts.sanitize and not opts.analyze
        assert opts.obs is None

    def test_engine_must_be_known(self):
        assert ENGINES == ("reference", "active", "replay")
        with pytest.raises(ValueError, match="engine"):
            RunOptions(engine="turbo")

    def test_replay_rejects_sanitize(self):
        with pytest.raises(ValueError, match="sanitize") as exc:
            RunOptions(engine="replay", sanitize=True)
        assert SANITIZE_REPLAY_REASON in str(exc.value)
        for engine in ("active", "reference"):
            assert RunOptions(engine=engine, sanitize=True).sanitize

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().engine = "replay"

    def test_replace_revalidates(self):
        opts = RunOptions(engine="replay")
        assert opts.replace(analyze=True) == RunOptions(engine="replay",
                                                        analyze=True)
        assert not opts.analyze  # original untouched
        with pytest.raises(ValueError):
            opts.replace(sanitize=True)  # replay + sanitize inconsistent


class TestRunnerShims:
    """The pre-RunOptions keyword spellings are gone: runners take their
    execution settings only as ``options=RunOptions(...)``."""

    def test_run_spmv_des_engine_kwarg(self):
        from repro.kernels import run_spmv_des
        from repro.problems import Stencil7

        op, _, _ = Stencil7.from_random(
            (2, 2, 4), rng=np.random.default_rng(0)).jacobi_precondition()
        v = np.ones(op.shape)
        with pytest.raises(TypeError, match="engine"):
            run_spmv_des(op, v, engine="active")

    def test_allreduce_engine_kwarg(self):
        from repro.wse.allreduce import AllReduceEngine, simulate_allreduce

        with pytest.raises(TypeError, match="engine"):
            AllReduceEngine(2, 2, engine="active")
        with pytest.raises(TypeError, match="engine"):
            simulate_allreduce(np.ones((2, 2)), engine="active")

    def test_bicgstab_engine_kwarg(self):
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.problems import momentum_system

        system = momentum_system((2, 2, 4), reynolds=50.0, dt=0.02)
        for legacy in ("engine", "analyze", "obs"):
            with pytest.raises(TypeError, match=legacy):
                DESBiCGStab(system.operator, **{legacy: None})
        assert DESBiCGStab(system.operator).options == RunOptions()


class TestSession:
    def test_default_options(self):
        assert Session().options == RunOptions()
        with pytest.raises(TypeError):
            Session(options={"engine": "active"})

    def test_run_rejects_non_options_override(self):
        with pytest.raises(TypeError):
            Session().run(Axpy(1.0, np.ones(4), np.ones(4)),
                          options="active")

    def test_facade_matches_direct_runners(self):
        from repro.kernels import run_dot_des
        from repro.problems import Stencil7

        x = np.random.default_rng(1).random(9).astype(np.float16)
        y = np.random.default_rng(2).random(9).astype(np.float16)
        session = Session()
        d_facade, c_facade = session.run(Dot(x, y))
        d_direct, c_direct = run_dot_des(x, y, options=RunOptions())
        assert (d_facade, c_facade) == (d_direct, c_direct)

        op, _, _ = Stencil7.from_random(
            (2, 2, 4), rng=np.random.default_rng(3)).jacobi_precondition()
        v = 0.1 * np.random.default_rng(4).standard_normal(op.shape)
        u_act, c_act = session.run(Spmv3D(op, v))
        u_rep, c_rep = session.run(
            Spmv3D(op, v), options=RunOptions(engine="replay"))
        assert c_rep == c_act
        np.testing.assert_array_equal(u_rep, u_act)

    def test_session_pins_engine_across_programs(self):
        session = Session(RunOptions(engine="replay"))
        vals = np.arange(6, dtype=np.float64).reshape(2, 3)
        total, cycles = session.run(AllReduce(vals))
        assert total == pytest.approx(vals.sum())
        assert cycles > 0


class TestCliFragment:
    def _parser(self, **kw):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser, **kw)
        return parser

    def test_engine_spelling(self):
        args = self._parser().parse_args(["--engine", "reference"])
        assert options_from_args(args) == RunOptions(engine="reference")
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--workers", "4"])

    def test_unknown_engine_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--engine", "turbo"])

    def test_extra_choices(self):
        parser = self._parser(extra_choices=("both", "all"))
        assert parser.parse_args(["--engine", "all"]).engine == "all"

    def test_json_flag_opt_in(self):
        parser = self._parser(json_flag=True)
        assert parser.parse_args(["--json"]).json is True
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--json"])

    def test_engine_opt_out(self):
        parser = self._parser(engine=False, json_flag=True)
        args = parser.parse_args(["--json"])
        assert not hasattr(args, "engine")
        # options_from_args degrades to defaults for such subcommands.
        assert options_from_args(args) == RunOptions()

    def test_overrides(self):
        args = self._parser().parse_args(["--engine", "replay"])
        opts = options_from_args(args, analyze=True)
        assert opts == RunOptions(engine="replay", analyze=True)


def _sanitize_runners():
    """``name -> run(options)`` for every runner taking ``RunOptions``."""
    from repro.kernels import (
        run_axpy_des,
        run_dot_des,
        run_spmv2d_des,
        run_spmv_des,
    )
    from repro.kernels.bicgstab_des import DESBiCGStab
    from repro.kernels.spmv3d import SpmvEngine
    from repro.problems import Stencil7, Stencil9, momentum_system
    from repro.wse.allreduce import AllReduceEngine, simulate_allreduce

    rng = np.random.default_rng(11)
    op, _, _ = Stencil7.from_random(
        (2, 2, 4), rng=rng).jacobi_precondition()
    v = 0.1 * rng.standard_normal(op.shape)
    op9, _, _ = Stencil9.from_random((4, 4), rng=rng).jacobi_precondition()
    x, y = rng.random(8), rng.random(8)
    vals = rng.random((2, 3))
    system = momentum_system((2, 2, 4), reynolds=50.0, dt=0.02)
    return {
        "run_spmv_des": lambda o: run_spmv_des(op, v, options=o),
        "run_spmv2d_des": lambda o: run_spmv2d_des(
            op9, rng.random((4, 4)), (2, 2), options=o),
        "run_axpy_des": lambda o: run_axpy_des(0.5, x, y, options=o),
        "run_dot_des": lambda o: run_dot_des(x, y, options=o),
        "SpmvEngine": lambda o: SpmvEngine(op, options=o).run(v),
        "AllReduceEngine": lambda o: AllReduceEngine(
            3, 2, options=o).reduce(vals),
        "simulate_allreduce": lambda o: simulate_allreduce(vals, options=o),
        "DESBiCGStab": lambda o: DESBiCGStab(
            system.operator, options=o).solve(system.b, maxiter=1),
    }


@pytest.mark.parametrize("engine", ["active", "reference", "replay"])
@pytest.mark.parametrize("runner", [
    "run_spmv_des", "run_spmv2d_des", "run_axpy_des", "run_dot_des",
    "SpmvEngine", "AllReduceEngine", "simulate_allreduce", "DESBiCGStab",
])
def test_sanitize_reaches_every_live_run(runner, engine, monkeypatch):
    """``RunOptions.sanitize`` attaches the race sanitizer on every
    runner under both live engines, and is rejected up front for
    replay (which executes compiled schedules, not live stepping)."""
    if engine == "replay":
        with pytest.raises(ValueError, match="sanitize"):
            RunOptions(engine=engine, sanitize=True)
        return
    from repro.wse import Fabric

    attached = []
    real_attach = Fabric.attach_sanitizer

    def counting_attach(self, *args, **kwargs):
        attached.append(self)
        return real_attach(self, *args, **kwargs)

    monkeypatch.setattr(Fabric, "attach_sanitizer", counting_attach)
    _sanitize_runners()[runner](RunOptions(engine=engine, sanitize=True))
    assert attached, f"{runner} under {engine} never attached a sanitizer"
