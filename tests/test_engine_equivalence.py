"""Engine equivalence: reference vs active vs replay.

All three engines must be *observably identical* — same cycle counts,
same per-destination word accounting, same delivered-word sequences,
bit-identical numerics — on every kernel in the repo:

* ``reference`` — the naive full-fabric sweep (``Fabric.step_reference``);
* ``active`` — the event-driven active-set engine (``Fabric.step``);
* ``replay`` — the trace-compiled engine (:mod:`repro.wse.replay`),
  which records one live execution and replays the compiled schedule
  as batched NumPy ops.

The only permitted difference is wall-clock speed.  These tests pin
that contract on randomized workloads (both SpMV mappings, the two-sum
task variant, BLAS, AllReduce, and a full BiCGStab solve), plus the
satellite behaviours that ride on the engine: per-destination fanout
accounting and the immediate deadlock diagnosis in :meth:`Fabric.run`.
"""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels import (
    build_spmv_fabric,
    run_axpy_des,
    run_dot_des,
    run_spmv2d_des,
    run_spmv_des,
)
from repro.problems import Stencil7, Stencil9
from repro.wse import CS1, Core, Fabric, FabricDeadlockError, Port
from repro.wse import dsr
from repro.wse.allreduce import AllReduceEngine, simulate_allreduce
from repro.wse.dsr import FabricRx, Instruction, MemCursor

RNG = np.random.default_rng(7)


def _op3d(shape, seed=0):
    op = Stencil7.from_random(shape, rng=np.random.default_rng(seed))
    pre, _, _ = op.jacobi_precondition()
    return pre


class _Recorder:
    """Minimal core that records every delivered word in order."""

    def __init__(self):
        self.received = []
        self._tx = []

    def deliver(self, channel, value):
        self.received.append((channel, value))

    def poll_tx(self, channel):
        if self._tx and self._tx[0][0] == channel:
            return self._tx.pop(0)[1]
        return None

    def tx_channels(self):
        return [self._tx[0][0]] if self._tx else []

    def step(self):
        return 0

    @property
    def idle(self):
        return not self._tx


# ----------------------------------------------------------------------
# Kernel equivalence: identical cycles, word totals, numerics
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("shape,seed", [
        ((2, 2, 4), 1), ((4, 4, 8), 2), ((3, 5, 6), 3), ((1, 4, 8), 4),
        ((6, 3, 5), 5),
    ])
    def test_spmv3d(self, shape, seed):
        op = _op3d(shape, seed)
        v = 0.1 * np.random.default_rng(100 + seed).standard_normal(shape)
        results = {}
        for engine in ("active", "reference"):
            fabric, programs = build_spmv_fabric(op, v)
            fabric.engine = engine
            nx, ny, nz = op.shape

            def finished(f, programs=programs, nx=nx, ny=ny):
                return f.quiescent() and all(
                    programs[j][i].done for j in range(ny) for i in range(nx)
                )

            cycles = fabric.run(max_cycles=100_000, until=finished)
            u = np.stack([
                np.stack([programs[j][i].result() for j in range(ny)])
                for i in range(nx)
            ])
            per_router = {
                (x, y): fabric.router(x, y).words_moved
                for y in range(ny) for x in range(nx)
            }
            results[engine] = (cycles, fabric.total_words_moved, per_router, u)

        ca, wa, ra, ua = results["active"]
        cr, wr, rr, ur = results["reference"]
        assert ca == cr
        assert wa == wr
        assert ra == rr  # per-router word accounting, not just the total
        np.testing.assert_array_equal(ua, ur)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spmv3d_runner_and_legacy_elementwise(self, seed):
        """The public runner agrees across engines, and the pre-PR
        per-element readiness path is numerically identical too."""
        shape = (3, 4, 6)
        op = _op3d(shape, 20 + seed)
        v = 0.1 * np.random.default_rng(seed).standard_normal(shape)
        u_act, c_act = run_spmv_des(op, v, options=RunOptions(engine="active"))
        u_ref, c_ref = run_spmv_des(op, v,
                                    options=RunOptions(engine="reference"))
        u_rep, c_rep = run_spmv_des(op, v, options=RunOptions(engine="replay"))
        assert c_act == c_ref == c_rep
        np.testing.assert_array_equal(u_act, u_ref)
        np.testing.assert_array_equal(u_act, u_rep)
        assert not dsr.LEGACY_ELEMENTWISE
        dsr.LEGACY_ELEMENTWISE = True
        try:
            u_leg, c_leg = run_spmv_des(op, v,
                                        options=RunOptions(engine="reference"))
        finally:
            dsr.LEGACY_ELEMENTWISE = False
        assert c_leg == c_act
        np.testing.assert_array_equal(u_leg, u_act)

    @pytest.mark.parametrize("shape,block", [
        ((4, 4), (2, 2)), ((6, 6), (2, 3)), ((8, 4), (4, 2)),
    ])
    def test_spmv2d(self, shape, block):
        op = Stencil9.from_random(
            shape, rng=np.random.default_rng(shape[0] * 31 + block[0])
        )
        v = 0.1 * np.random.default_rng(9).standard_normal(shape)
        u_act, c_act = run_spmv2d_des(op, v, block,
                                      options=RunOptions(engine="active"))
        u_ref, c_ref = run_spmv2d_des(op, v, block,
                                      options=RunOptions(engine="reference"))
        u_rep, c_rep = run_spmv2d_des(op, v, block,
                                      options=RunOptions(engine="replay"))
        assert c_act == c_ref == c_rep
        np.testing.assert_array_equal(u_act, u_ref)
        np.testing.assert_array_equal(u_act, u_rep)

    @pytest.mark.parametrize("w,h", [(2, 2), (4, 3), (5, 5), (8, 2)])
    def test_allreduce(self, w, h):
        vals = np.random.default_rng(w * 10 + h).random((h, w)).astype(
            np.float32
        )
        t_act, c_act = simulate_allreduce(vals,
                                          options=RunOptions(engine="active"))
        t_ref, c_ref = simulate_allreduce(
            vals, options=RunOptions(engine="reference"))
        t_rep, c_rep = simulate_allreduce(vals,
                                          options=RunOptions(engine="replay"))
        assert c_act == c_ref == c_rep
        assert t_act == t_ref == t_rep  # bit-identical fp32 reduction
        engines = {
            name: AllReduceEngine(w, h, options=RunOptions(engine=name))
            for name in ("active", "reference", "replay")
        }
        words = {}
        for name, eng in engines.items():
            eng.reduce(vals)
            eng.reduce(vals)  # second call replays on the replay engine
            words[name] = eng.fabric.total_words_moved
        assert words["active"] == words["reference"] == words["replay"]

    def test_blas(self):
        x = np.random.default_rng(1).random(17).astype(np.float16)
        y = np.random.default_rng(2).random(17).astype(np.float16)
        axpy = {e: run_axpy_des(0.7, x, y, options=RunOptions(engine=e))
                for e in ("active", "reference", "replay")}
        dot = {e: run_dot_des(x, y, options=RunOptions(engine=e))
               for e in ("active", "reference", "replay")}
        ra, ca = axpy["active"]
        for e in ("reference", "replay"):
            re_, ce = axpy[e]
            assert ce == ca
            np.testing.assert_array_equal(re_, ra)
        da, ca = dot["active"]
        for e in ("reference", "replay"):
            de, ce = dot[e]
            assert ce == ca
            assert de == da

    @pytest.mark.parametrize("engine", ["reference", "replay"])
    def test_spmv3d_two_sum_matrix(self, engine):
        """The two-sum-task SpMV variant across the engine matrix."""
        shape = (3, 3, 6)
        op = _op3d(shape, 31)
        v = 0.1 * np.random.default_rng(32).standard_normal(shape)
        u_act, c_act = run_spmv_des(op, v, two_sum_tasks=True,
                                    options=RunOptions(engine="active"))
        u_e, c_e = run_spmv_des(op, v, two_sum_tasks=True,
                                options=RunOptions(engine=engine))
        assert c_e == c_act
        np.testing.assert_array_equal(u_e, u_act)

    def test_bicgstab_four_way(self):
        """Full BiCGStab solves agree bit-for-bit across all three
        engines: solution, residual history, per-kernel cycles."""
        from repro.kernels.bicgstab_des import DESBiCGStab

        shape = (3, 3, 6)
        rng = np.random.default_rng(40)
        op = Stencil7.from_random(shape, rng=rng)
        b = rng.standard_normal(shape)
        pre, bprime, _ = op.jacobi_precondition(b)
        sols = {}
        for e in ("active", "reference", "replay"):
            solver = DESBiCGStab(pre, options=RunOptions(engine=e))
            sols[e] = solver.solve(bprime, maxiter=8)
        base = sols["active"]
        for e in ("reference", "replay"):
            sol = sols[e]
            np.testing.assert_array_equal(
                np.asarray(base.x).view(np.uint64),
                np.asarray(sol.x).view(np.uint64),
            )
            assert sol.residuals == base.residuals, e
            ra, re_ = base.info["report"], sol.info["report"]
            for f in ("spmv_cycles", "allreduce_cycles", "axpy_cycles",
                      "dot_local_cycles", "spmv_runs", "allreduce_runs"):
                assert getattr(re_, f) == getattr(ra, f), (e, f)

    def test_delivered_word_sequence(self):
        """Word-by-word delivery order matches on a multi-hop line."""
        words = [np.float32(v) for v in
                 np.random.default_rng(3).random(12)]
        received = {}
        for engine in ("active", "reference"):
            f = Fabric(4, 1)
            src, dst = _Recorder(), _Recorder()
            f.attach_core(0, 0, src)
            f.attach_core(3, 0, dst)
            for x in (1, 2):
                f.attach_core(x, 0, _Recorder())
            f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
            for x in (1, 2):
                f.router(x, 0).set_route(0, Port.WEST, (Port.EAST,))
            f.router(3, 0).set_route(0, Port.WEST, (Port.CORE,))
            src._tx = [(0, v) for v in words]
            f.engine = engine
            f.run(max_cycles=1000)
            received[engine] = dst.received
        assert received["active"] == received["reference"]
        assert [v for _, v in received["active"]] == words


# ----------------------------------------------------------------------
# Satellite: per-destination fanout word accounting
# ----------------------------------------------------------------------
class TestFanoutAccounting:
    def _fanout_fabric(self, engine):
        """Center tile broadcasts channel 0 to CORE + EAST + WEST: a
        1 -> 3 fanout at one router."""
        f = Fabric(3, 1)
        src = _Recorder()
        east, west = _Recorder(), _Recorder()
        f.attach_core(1, 0, src)
        f.attach_core(2, 0, east)
        f.attach_core(0, 0, west)
        f.router(1, 0).set_route(0, Port.CORE, (Port.CORE, Port.EAST, Port.WEST))
        f.router(2, 0).set_route(0, Port.WEST, (Port.CORE,))
        f.router(0, 0).set_route(0, Port.EAST, (Port.CORE,))
        f.engine = engine
        return f, src, east, west

    @pytest.mark.parametrize("engine", ["active", "reference"])
    def test_one_to_three_fanout_counts_each_destination(self, engine):
        f, src, east, west = self._fanout_fabric(engine)
        src._tx = [(0, 1.5), (0, 2.5)]
        f.run(max_cycles=100)
        # Each injected word is replicated to 3 destinations at the
        # center router, then hops once more into each neighbour core.
        assert src.received == [(0, 1.5), (0, 2.5)]
        assert east.received == [(0, 1.5), (0, 2.5)]
        assert west.received == [(0, 1.5), (0, 2.5)]
        assert f.router(1, 0).words_moved == 2 * 3
        assert f.router(2, 0).words_moved == 2
        assert f.router(0, 0).words_moved == 2
        # Fabric total = sum of per-router, per-destination movements.
        assert f.total_words_moved == 2 * 3 + 2 + 2

    def test_engines_agree_on_fanout_totals(self):
        totals = {}
        for engine in ("active", "reference"):
            f, src, _, _ = self._fanout_fabric(engine)
            src._tx = [(0, float(i)) for i in range(5)]
            f.run(max_cycles=100)
            totals[engine] = (
                f.total_words_moved,
                f.router(1, 0).words_moved,
            )
        assert totals["active"] == totals["reference"]


# ----------------------------------------------------------------------
# Satellite: immediate, diagnosable deadlock errors from run()
# ----------------------------------------------------------------------
class TestDeadlockDiagnosis:
    def test_quiescent_until_never_true(self):
        """A fully drained fabric with an unfinished until() raises at
        once — not a RuntimeError after max_cycles no-op sweeps."""
        f = Fabric(2, 2)
        with pytest.raises(FabricDeadlockError, match="quiescent"):
            f.run(max_cycles=50_000, until=lambda f: False)
        # Failing fast, not timing out: the clock barely advanced.
        assert f.cycle < 10

    def test_stalled_core_is_named(self):
        """A core wedged on a word that can never arrive is diagnosed
        with its coordinates."""
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
        with pytest.raises(FabricDeadlockError, match=r"\(0,0\)"):
            f.run(max_cycles=50_000)
        assert f.cycle < 10

    def test_deadlock_error_is_runtime_error(self):
        # Callers catching the old RuntimeError keep working.
        assert issubclass(FabricDeadlockError, RuntimeError)
