"""BiCGStab driven through the discrete tile simulator.

The deepest-fidelity execution mode: every SpMV runs as the Listing 1
task/thread/FIFO program on the word-level fabric simulator, and every
inner product's cross-wafer reduction runs as the Fig. 6 AllReduce on
its own simulated fabric — so a whole BiCGStab iteration's data motion
is executed, not modeled.  AXPY updates are core-local by construction
(no fabric traffic) and are computed functionally with their cycle cost
charged from the SIMD model.

This mode exists to *validate* the functional solver and the analytic
model (tests assert all three agree); it is usable for meshes up to a
few thousand points.

Pass an :class:`repro.obs.ObsSession` as ``RunOptions(obs=...)`` to
observe a solve: every kernel call is recorded as a phase span
(``spmv`` / ``allreduce`` / ``axpy`` / ``dot_local``, which tile the
unified wafer timeline exactly), each iteration as an enclosing
``iteration[k]`` span carrying residual/rho/omega, the persistent
fabrics stream per-cycle metrics through ``fabric.obs``, and the whole
record exports to Chrome-trace/Perfetto JSON (see
``docs/observability.md``).

With ``ObsSession(profile=True)`` each persistent fabric additionally
carries a :class:`repro.obs.profile.CycleProfiler`.  The lockstep
discipline below is what makes fabric-local profiles composable into a
solve-wide story: ``_sync_clock`` advances whichever fabric is *not*
running the current kernel by exactly the other's elapsed cycles (as
O(1) skipped spans), so both fabrics' clocks equal the unified
timeline at every phase boundary — a critical-path segment at fabric
cycle ``c`` therefore lands inside the phase span covering wafer cycle
``c`` with no translation, which is how ``python -m repro profile``
names a bottleneck as (fabric, phase, tile, wait reason) and how
per-phase slack is attributed against each kernel's ``StaticContract``.
This holds under ``engine="replay"`` too: replayed kernels fold their
recorded per-cycle ledgers (not re-stepped, bit-identical) and the
skip/fold boundaries land on the same clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import RunOptions
from ..obs import ObsSession
from ..precision import Precision, spec_for
from ..problems.stencil7 import Stencil7
from ..solver.result import SolveResult
from ..wse.allreduce import AllReduceEngine, simulate_allreduce
from ..wse.config import CS1, MachineConfig
from .spmv3d import SpmvEngine, build_spmv_fabric, run_spmv_des

__all__ = ["DESBiCGStab", "DESCycleReport"]


@dataclass
class DESCycleReport:
    """Cycle accounting for a DES-mode solve."""

    spmv_cycles: int = 0
    allreduce_cycles: int = 0
    axpy_cycles: int = 0
    dot_local_cycles: int = 0
    spmv_runs: int = 0
    allreduce_runs: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.spmv_cycles
            + self.allreduce_cycles
            + self.axpy_cycles
            + self.dot_local_cycles
        )

    def per_iteration(self, iterations: int) -> float:
        return self.total_cycles / max(iterations, 1)


@dataclass
class DESBiCGStab:
    """Mixed-precision BiCGStab with simulated data motion.

    Parameters
    ----------
    operator:
        Unit-diagonal :class:`Stencil7` (the wafer kernel's requirement).
    config:
        Machine constants (SIMD width for the AXPY/dot cycle charges).
    options:
        A :class:`repro.api.RunOptions` bundle controlling execution.
        ``analyze=True`` statically verifies the SpMV tile program at
        construction time (a probe fabric is built, no cycles run, so a
        defective program raises before the first solve).  The engine
        is ``"active"`` (event-driven active-set sweep, the default),
        ``"reference"`` (the naive full-fabric sweep kept for
        equivalence checking), or ``"replay"`` (record the first
        iteration's kernel schedules on the active engine, replay later
        iterations as compiled vectorized array programs; requires
        ``persistent=True``).  Replay falls back to the live engine on
        any program the analyzer cannot prove schedule-deterministic,
        and on any cache invalidation.  ``obs`` (an
        :class:`repro.obs.ObsSession`) makes the solver emit phase and
        iteration spans on the unified wafer timeline, record
        per-iteration telemetry, and attach fabric observers to the
        persistent engines; ``None`` (default) costs nothing.
    persistent:
        When True (default), build one :class:`SpmvEngine` and one
        :class:`AllReduceEngine` at first use and re-run them for every
        kernel call.  When False, each SpMV/AllReduce builds a fresh
        fabric — the original call pattern, kept so the benchmark can
        measure what persistence buys.
    """

    operator: Stencil7
    config: MachineConfig = field(default_factory=lambda: CS1)
    persistent: bool = True
    options: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self) -> None:
        self.engine = self.options.engine
        self.obs: ObsSession | None = self.options.obs
        if not self.operator.has_unit_diagonal:
            raise ValueError(
                "DES BiCGStab requires a Jacobi-preconditioned operator"
            )
        if self.engine == "replay" and not self.persistent:
            raise ValueError(
                "engine='replay' records a persistent program once and "
                "replays it; it requires persistent=True"
            )
        if self.options.analyze:
            build_spmv_fabric(
                self.operator, np.zeros(self.operator.shape),
                self.config, analyze=True,
            )
        self.report = DESCycleReport()
        self._spmv_eng: SpmvEngine | None = None
        self._ar_eng: AllReduceEngine | None = None
        if self.obs is not None and self.obs.tracer.clock is None:
            # The solver's clock is the unified wafer timeline.
            self.obs.tracer.clock = lambda: self.report.total_cycles

    def _phase(self, name: str, start: int) -> None:
        """Record a leaf phase span ``[start, now)`` on the timeline.

        Every kernel helper bumps exactly one ``DESCycleReport`` counter,
        and ``total_cycles`` is their sum — so phase spans are contiguous
        and tile the timeline exactly (the per-phase table's total equals
        the fabric cycle clock; asserted by the test suite).
        """
        self.obs.tracer.record(
            name, start, self.report.total_cycles - start, cat="phase"
        )

    def _iter_obs(self, it: int, start: int, residual=None, **fields) -> None:
        """Record one iteration's span, residual sample, and telemetry."""
        now = self.report.total_cycles
        args = {"residual": residual, **fields}
        self.obs.tracer.record(
            f"iteration[{it}]", start, now - start,
            track="solver", cat="iteration", args=args,
        )
        if residual is not None:
            self.obs.tracer.sample("residual", now, residual)
        self.obs.record_iteration(iteration=it, cycles=now - start, **args)

    # ------------------------------------------------------------------
    # Unified timeline (persistent mode)
    # ------------------------------------------------------------------
    def _sync(self, fabric) -> None:
        """Fast-forward a persistent fabric to the solve's current cycle.

        Both persistent fabrics live on one wafer clock: while one runs a
        kernel (or the cores do charged local AXPY/dot work) the other
        sits idle.  The active-set engine proves those cycles are inert
        (empty active set) and skips them in O(1) via
        :meth:`repro.wse.fabric.Fabric.skip_cycles`; the totals show up
        in ``FabricStats.skipped_cycles``.  The pre-PR engine had no
        equivalent — simulating the same timeline costs it a full-fabric
        sweep per idle cycle.
        """
        now = self.report.total_cycles
        behind = now - fabric.cycle
        if behind <= 0:
            return
        if fabric.stats.cycles == 0:
            # Never stepped: a persistent fabric idles unarmed until its
            # first kernel (reduce()/run() re-arm the cores before any
            # word moves), so aligning the clock is pure bookkeeping.
            fabric.cycle = now
            fabric.stats.cycles += behind
            fabric.stats.skipped_cycles += behind
            if fabric.obs is not None:
                fabric.obs.on_skip(behind)
            return
        fabric.skip_cycles(behind)

    def close(self) -> None:
        """Release the solver.  The persistent engines hold no resources
        beyond memory, so this is a no-op kept for callers that manage
        solver lifetimes explicitly."""

    # ------------------------------------------------------------------
    # Simulated kernels
    # ------------------------------------------------------------------
    def _spmv(self, v: np.ndarray) -> np.ndarray:
        start = self.report.total_cycles
        if self.persistent:
            if self._spmv_eng is None:
                self._spmv_eng = SpmvEngine(
                    self.operator, self.config,
                    options=self.options.replace(analyze=False),
                )
            if self.engine != "reference":
                self._sync(self._spmv_eng.fabric)
            u, cycles = self._spmv_eng.run(v.astype(np.float16))
        else:
            u, cycles = run_spmv_des(
                self.operator, v.astype(np.float16), self.config,
                options=self.options.replace(obs=None, analyze=False),
            )
        self.report.spmv_cycles += cycles
        self.report.spmv_runs += 1
        if self.obs is not None:
            self._phase("spmv", start)
        return u.astype(np.float16)

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """fp16-multiply / fp32-accumulate local dot, then the simulated
        Fig. 6 AllReduce over the per-tile partials."""
        nx, ny, nz = self.operator.shape
        start = self.report.total_cycles
        prod = a.astype(np.float32) * b.astype(np.float32)
        partials = np.add.reduce(prod, axis=2, dtype=np.float32)  # (nx, ny)
        self.report.dot_local_cycles += int(
            np.ceil(nz / self.config.mixed_fmacs_per_cycle)
        )
        if self.obs is not None:
            self._phase("dot_local", start)
        if nx >= 2 and ny >= 2:
            start = self.report.total_cycles
            if self.persistent:
                if self._ar_eng is None:
                    self._ar_eng = AllReduceEngine(
                        nx, ny,
                        options=self.options.replace(obs=None, analyze=False),
                    )
                    if self.obs is not None:
                        self.obs.observe_fabric(
                            "allreduce", self._ar_eng.fabric
                        )
                if self.engine != "reference":
                    self._sync(self._ar_eng.fabric)
                total, cycles = self._ar_eng.reduce(partials.T)
            else:
                total, cycles = simulate_allreduce(
                    partials.T,
                    options=self.options.replace(obs=None, analyze=False),
                )  # (rows=y, cols=x)
            self.report.allreduce_cycles += cycles
            self.report.allreduce_runs += 1
            if self.obs is not None:
                self._phase("allreduce", start)
            return float(total)
        # Degenerate fabrics (1 x N) fall back to a tree-ordered sum.
        return float(np.add.reduce(partials.ravel(), dtype=np.float32))

    def _axpy(self, a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """fp16 ``y + a*x`` with the SIMD-4 cycle charge."""
        start = self.report.total_cycles
        self.report.axpy_cycles += int(
            np.ceil(self.operator.shape[2] / self.config.simd_width_fp16)
        )
        if self.obs is not None:
            self._phase("axpy", start)
        return (y + np.float16(np.float32(a)) * x).astype(np.float16)

    # ------------------------------------------------------------------
    def solve(
        self, b: np.ndarray, rtol: float = 5e-3, maxiter: int = 30
    ) -> SolveResult:
        """Run BiCGStab with every SpMV and AllReduce simulated.

        Returns a :class:`SolveResult` whose ``info`` carries the
        :class:`DESCycleReport` and derived per-iteration cycles.
        """
        spec = spec_for(Precision.MIXED)
        shape = self.operator.shape
        b16 = np.asarray(b, dtype=np.float64).reshape(shape).astype(np.float16)
        bnorm = float(np.sqrt(max(self._dot(b16, b16), 0.0)))
        if bnorm == 0.0:
            return SolveResult(
                x=np.zeros(shape), converged=True, iterations=0,
                residuals=[0.0], precision="mixed(des)",
            )
        x = np.zeros(shape, dtype=np.float16)
        r = b16.copy()
        r0 = r.copy()
        p = r.copy()
        rho = np.float32(self._dot(r0, r))
        residuals: list[float] = []
        converged = False
        breakdown = None
        obs = self.obs
        it = 0
        for it in range(1, maxiter + 1):
            it_start = self.report.total_cycles
            if abs(float(rho)) < np.finfo(np.float64).tiny:
                breakdown = "rho"
                it -= 1
                break
            s = self._spmv(p)
            r0s = np.float32(self._dot(r0, s))
            if abs(float(r0s)) < np.finfo(np.float64).tiny:
                breakdown = "rho"
                if obs is not None:
                    self._iter_obs(it, it_start, rho=float(rho),
                                   breakdown="rho")
                it -= 1
                break
            alpha = np.float32(rho / r0s)
            q = self._axpy(-float(alpha), s, r)
            y = self._spmv(q)
            qy = np.float32(self._dot(q, y))
            yy = np.float32(self._dot(y, y))
            omega = np.float32(0.0) if abs(float(yy)) < np.finfo(np.float64).tiny \
                else np.float32(qy / yy)
            x = self._axpy(float(alpha), p, x)
            x = self._axpy(float(omega), q, x)
            r = self._axpy(-float(omega), y, q)
            rho_new = np.float32(self._dot(r0, r))
            res = float(np.sqrt(max(self._dot(r, r), 0.0))) / bnorm
            residuals.append(res)
            if obs is not None:
                self._iter_obs(
                    it, it_start, residual=res, rho=float(rho),
                    alpha=float(alpha), omega=float(omega), breakdown=None,
                )
            if res <= rtol:
                converged = True
                break
            if abs(float(omega)) < np.finfo(np.float64).tiny:
                breakdown = "omega"
                if obs is not None:
                    obs.telemetry[-1]["breakdown"] = "omega"
                break
            beta = np.float32((alpha / omega) * (rho_new / rho))
            rho = rho_new
            p = self._axpy(float(beta), self._axpy(-float(omega), s, p), r)

        if self.persistent and self.engine != "reference":
            # Close out the unified timeline: both fabrics end the solve
            # at the same wafer cycle, idle tails skipped in O(1).
            if self._spmv_eng is not None:
                self._sync(self._spmv_eng.fabric)
            if self._ar_eng is not None:
                self._sync(self._ar_eng.fabric)
        return SolveResult(
            x=x.astype(np.float64),
            converged=converged,
            iterations=it,
            residuals=residuals,
            breakdown=breakdown,
            precision="mixed(des)",
            info={
                "report": self.report,
                "cycles_per_iteration": self.report.per_iteration(it),
                "storage_epsilon": spec.epsilon,
            },
        )
