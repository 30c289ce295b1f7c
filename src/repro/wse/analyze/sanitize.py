"""``python -m repro sanitize`` — race-sanitized runs of every shipped
program.

For each program family this module runs the program twice with
identical inputs — once plain, once with the runtime race sanitizer
attached (:mod:`repro.wse.sanitizer`) — and checks that

* the sanitized run raises no :class:`FabricRaceError` (the shipped
  programs are race-free, matching the static ``races`` pass), and
* the two runs are **bit-identical**: every tile-memory allocation and
  every program result compares equal at the byte level (the sanitizer
  observes, never perturbs).

The checked set is the same nine programs as
:mod:`repro.wse.analyze.verify_contracts`: 3D SpMV (mesh, two-sum-task,
and single-tile variants), 2D block-mapped SpMV, both BLAS kernels, the
AllReduce, and a DES BiCGStab iteration's two persistent fabrics.

Like the lint and verify modules, this one imports kernel builders and
must only be imported lazily (the CLI does) — never from package init.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from ...api import RunOptions
from ...obs.metrics import MetricsRegistry
from ..execute import select_engine
from ..sanitizer import FabricRaceError

__all__ = ["SanitizeCheck", "sanitize_all", "sanitize_report_text",
           "sanitize_main"]


@dataclass(frozen=True)
class SanitizeCheck:
    """One program's sanitized run held against its plain run."""

    program: str
    engine: str
    race: str | None               # sanitizer error text, or None
    bit_identical: bool
    mismatches: tuple              # keys whose bytes differed
    instructions_tracked: int
    accesses_checked: int

    @property
    def ok(self) -> bool:
        return self.race is None and self.bit_identical

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        line = (
            f"{self.program:<22} [{verdict}] "
            f"{self.instructions_tracked} instr / "
            f"{self.accesses_checked} element accesses shadow-checked; "
        )
        if self.race is not None:
            return line + f"RACE: {self.race}"
        line += "race-free; "
        if self.bit_identical:
            return line + "bit-identical to unsanitized run"
        shown = ", ".join(str(k) for k in self.mismatches[:4])
        more = "" if len(self.mismatches) <= 4 else (
            f" (+{len(self.mismatches) - 4} more)"
        )
        return line + f"DIVERGED at {shown}{more}"


# ---------------------------------------------------------------------------
# State capture and comparison
# ---------------------------------------------------------------------------
def _fabric_state(state: dict, tag: str, fabric) -> None:
    """Append every tile allocation's bytes to ``state``."""
    for y in range(fabric.height):
        for x in range(fabric.width):
            core = fabric.cores[y][x]
            allocs = getattr(getattr(core, "memory", None), "_allocs", None)
            if not allocs:
                continue
            for name, alloc in allocs.items():
                state[(tag, x, y, name)] = alloc.array.tobytes()


def _compare(program, engine, plain, sanitized, race, san) -> SanitizeCheck:
    tracked = san.instructions_tracked if san is not None else 0
    checked = san.accesses_checked if san is not None else 0
    if race is not None or sanitized is None:
        return SanitizeCheck(program, engine, race, False, (),
                             tracked, checked)
    keys = set(plain) | set(sanitized)
    mismatches = tuple(sorted(
        k for k in keys if plain.get(k) != sanitized.get(k)
    ))
    return SanitizeCheck(program, engine, None, not mismatches, mismatches,
                         tracked, checked)


def _run_checked(program: str, engine: str, runner) -> SanitizeCheck:
    """Run ``runner(engine, sanitizer_or_None) -> state dict`` both ways."""
    plain = runner(engine, None)
    registry = MetricsRegistry()
    from ..sanitizer import RaceSanitizer

    san = RaceSanitizer(metrics=registry)
    race = None
    sanitized = None
    try:
        sanitized = runner(engine, san)
    except FabricRaceError as err:
        race = str(err)
    return _compare(program, engine, plain, sanitized, race, san)


# ---------------------------------------------------------------------------
# Program runners.  Each builds fresh (deterministic inputs), optionally
# attaches the given sanitizer before running, and returns the final state.
# ---------------------------------------------------------------------------
def _attach(fabric, san) -> None:
    if san is not None:
        fabric.attach_sanitizer(san)


def _run_spmv3d(engine, san, shape=(3, 3, 6)):
    from ...kernels.spmv3d import SpmvEngine
    from ...problems.stencil7 import Stencil7

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    eng = SpmvEngine(op, options=RunOptions(engine=engine))
    _attach(eng.fabric, san)
    n = int(np.prod(shape))
    v = np.linspace(-1.0, 1.0, n).reshape(shape)
    u, _cycles = eng.run(v)
    state = {("u",): np.asarray(u).tobytes()}
    _fabric_state(state, "spmv3d", eng.fabric)
    return state


def _run_spmv3d_two_sum(engine, san, shape=(3, 3, 6)):
    from ...kernels.spmv3d import build_spmv_fabric
    from ...problems.stencil7 import Stencil7

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    n = int(np.prod(shape))
    v = np.linspace(-1.0, 1.0, n).reshape(shape)
    fabric, programs = build_spmv_fabric(op, v, two_sum_tasks=True)
    select_engine(fabric, engine)
    _attach(fabric, san)
    nx, ny, _nz = op.shape

    def finished(f) -> bool:
        return f.quiescent() and all(
            programs[j][i].done for j in range(ny) for i in range(nx)
        )

    fabric.run(max_cycles=200_000, until=finished)
    state = {}
    _fabric_state(state, "spmv3d-two-sum", fabric)
    return state


def _run_spmv2d(engine, san, shape=(6, 6), block_shape=(3, 3)):
    from ...kernels.spmv2d_des import build_spmv2d_fabric
    from ...problems.stencil9 import Stencil9

    op, _b, _dinv = Stencil9.from_random(shape).jacobi_precondition()
    n = int(np.prod(shape))
    v = np.linspace(1.0, -1.0, n).reshape(shape)
    fabric, programs = build_spmv2d_fabric(op, v, block_shape)
    select_engine(fabric, engine)
    _attach(fabric, san)
    bx, by = block_shape
    px, py = shape[0] // bx, shape[1] // by

    def finished(f) -> bool:
        return f.quiescent() and all(
            programs[bj][bi].done for bj in range(py) for bi in range(px)
        )

    fabric.run(max_cycles=500_000, until=finished)
    state = {}
    for bj in range(py):
        for bi in range(px):
            state[("result", bi, bj)] = np.asarray(
                programs[bj][bi].result()
            ).tobytes()
    _fabric_state(state, "spmv2d", fabric)
    return state


def _run_blas(kernel):
    def runner(engine, san, n=32):
        from ...kernels.blas_des import build_axpy_fabric, build_dot_fabric

        x = np.linspace(-1, 1, n)
        y = np.linspace(1, -1, n)
        if kernel == "axpy":
            fabric, out, instr = build_axpy_fabric(0.5, x, y)
        else:
            fabric, out, instr = build_dot_fabric(x, y)
        select_engine(fabric, engine)
        _attach(fabric, san)
        start = fabric.cycle
        while not instr.finished:
            fabric.step()
            if fabric.cycle - start > 10 * n + 10:  # pragma: no cover
                raise RuntimeError(f"{kernel} program did not finish")
        result = getattr(out, "value", out)
        state = {("out",): np.asarray(result).tobytes()}
        _fabric_state(state, kernel, fabric)
        return state

    return runner


def _run_allreduce(engine, san, width=6, height=4):
    from ..allreduce import AllReduceEngine

    eng = AllReduceEngine(width, height, options=RunOptions(engine=engine))
    _attach(eng.fabric, san)
    values = np.arange(width * height, dtype=np.float64).reshape(height, width)
    total, _cycles = eng.reduce(values)
    state = {("total",): np.asarray(total).tobytes()}
    _fabric_state(state, "allreduce", eng.fabric)
    return state


def _run_bicgstab(engine, san, shape=(2, 2, 4), maxiter=1):
    from ...kernels.bicgstab_des import DESBiCGStab
    from ...kernels.spmv3d import SpmvEngine
    from ...problems import momentum_system
    from ..allreduce import AllReduceEngine

    system = momentum_system(shape, reynolds=50.0, dt=0.02)
    options = RunOptions(engine=engine)
    solver = DESBiCGStab(system.operator, options=options)
    # The solver creates its persistent engines lazily on first use;
    # instantiate them up front (identical arguments) so the sanitizer
    # covers the whole solve.
    solver._spmv_eng = SpmvEngine(solver.operator, solver.config,
                                  options=options)
    nx, ny = solver.operator.shape[:2]
    solver._ar_eng = AllReduceEngine(nx, ny, options=options)
    _attach(solver._spmv_eng.fabric, san)
    _attach(solver._ar_eng.fabric, san)
    result = solver.solve(system.b, rtol=1e-30, maxiter=maxiter)
    state = {("x",): np.asarray(result.x).tobytes()}
    _fabric_state(state, "bicgstab-spmv", solver._spmv_eng.fabric)
    _fabric_state(state, "bicgstab-allreduce", solver._ar_eng.fabric)
    return state


def sanitize_all(engine: str = "active") -> list[SanitizeCheck]:
    """Sanitize-and-compare every shipped program under ``engine``."""
    return [
        _run_checked("spmv3d-3x3x6", engine, _run_spmv3d),
        _run_checked("spmv3d-two-sum-tasks", engine, _run_spmv3d_two_sum),
        _run_checked(
            "spmv3d-1x1x8", engine,
            lambda e, s: _run_spmv3d(e, s, shape=(1, 1, 8)),
        ),
        _run_checked("spmv2d-6x6-b3x3", engine, _run_spmv2d),
        _run_checked("axpy-32", engine, _run_blas("axpy")),
        _run_checked("dot-32", engine, _run_blas("dot")),
        _run_checked("allreduce-6x4", engine, _run_allreduce),
        _run_checked("bicgstab[1it]", engine, _run_bicgstab),
    ]


def sanitize_report_text(engine: str = "active") -> str:
    """The full sanitizer report as printable text."""
    checks = sanitize_all(engine)
    lines = [f"race sanitizer (engine={engine})"]
    lines.extend(f"  {c.summary()}" for c in checks)
    n_bad = sum(not c.ok for c in checks)
    lines.append(
        "SANITIZE OK" if not n_bad
        else f"SANITIZE FAILED ({n_bad} of {len(checks)} check(s))"
    )
    return "\n".join(lines)


def sanitize_main(argv: list[str] | None = None) -> int:
    """CLI entry: sanitized runs under one engine (or both)."""
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description=(
            "Run every shipped wafer program with the runtime race "
            "sanitizer attached and check the run stays race-free and "
            "bit-identical to an unsanitized run."
        ),
    )
    from ...api import SANITIZE_REPLAY_REASON, add_engine_arguments

    add_engine_arguments(parser, extra_choices=("both",))
    args = parser.parse_args(argv if argv is not None else [])
    if args.engine == "replay":
        print(f"sanitize: --engine replay is unsupported: "
              f"{SANITIZE_REPLAY_REASON}")
        return 2
    engines = (
        ("active", "reference") if args.engine == "both" else (args.engine,)
    )
    status = 0
    for engine in engines:
        text = sanitize_report_text(engine)
        print(text)
        if not text.endswith("SANITIZE OK"):
            status = 1
    return status
