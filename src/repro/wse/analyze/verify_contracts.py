"""``python -m repro verify-contracts`` — hold the DES engine to the
static contracts.

For every shipped program this module (1) proves the channel dependency
graph acyclic, (2) runs the program under the requested engine with a
PR 3 :class:`~repro.obs.MetricsRegistry` attached, and (3) checks the
observations against the program's :class:`StaticContract`:

* **words, exactly** — each router's cumulative ``words_moved`` must
  equal the contract's per-router count times the number of runs, the
  fabric total must match, and the registry's ``<fabric>.words_moved``
  counter must agree with both (three independent accountings, zero
  tolerance);
* **cycles, bounded** — the measured run must take at least the
  contract's critical-path lower bound; the slack (measured minus
  bound) is reported, never hidden.

With ``profile=True`` (CLI: ``--profile``) each program additionally
runs under the PR 8 :class:`~repro.obs.profile.CycleProfiler` and the
reported slack is *decomposed*: the critical path's ``wait_rx`` /
``wait_credit`` / ``idle`` cycles, the path's compute beyond the bound
(``compute_overhang``), and fast-forwarded ``skipped_idle`` sum exactly
to ``observed - bound`` (:attr:`ContractCheck.slack_breakdown_ok` is
part of every check's verdict).

``engine="replay"`` drives each program through the PR 7 record/replay
layer: persistent engines (3D SpMV, AllReduce, BiCGStab) record one
live execution and replay the measured one as compiled NumPy schedules;
one-shot programs record their single run and prove the compiled
schedule reproduces it bit-for-bit.  Contract words and cycles — and
the profiler's conservation and slack identities — are checked against
the same expectations as a live run.

The checked set covers every shipped program family: 3D SpMV (mesh and
degenerate single-tile), 2D block-mapped SpMV, both core-local BLAS
kernels, the Fig. 6 AllReduce, and a full BiCGStab iteration in DES
mode (whose persistent SpMV and AllReduce fabrics are verified against
``runs x contract``).

Like :mod:`repro.wse.analyze.lint`, this module imports the kernel
builders and must only be imported lazily (the CLI and tests do) —
never from the package init.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from .analyzer import analyze_program
from .cdg import cdg_pass
from .contracts import StaticContract
from ...api import RunOptions, add_engine_arguments
from ..execute import run_oneshot
from ...obs import ObsSession

__all__ = ["ContractCheck", "verify_contracts", "verify_report_text",
           "verify_main"]


@dataclass(frozen=True)
class ContractCheck:
    """One fabric's contract held against one observed execution."""

    program: str
    engine: str
    runs: int
    expected_words: int
    observed_words: int
    metrics_words: int
    router_mismatches: tuple
    cycle_lower_bound: int
    observed_cycles: int
    cdg_clean: bool
    #: Profiled slack decomposition as sorted ``(component, cycles)``
    #: pairs (empty when the check ran unprofiled).  Excluded from
    #: :meth:`key`: the same program profiled or not — or under a
    #: different engine — must still compare equal.
    slack_breakdown: tuple = ()

    @property
    def words_ok(self) -> bool:
        return (
            self.observed_words == self.expected_words
            and self.metrics_words == self.expected_words
            and not self.router_mismatches
        )

    @property
    def cycles_ok(self) -> bool:
        return self.observed_cycles >= self.cycle_lower_bound

    @property
    def slack(self) -> int:
        return self.observed_cycles - self.cycle_lower_bound

    @property
    def slack_breakdown_ok(self) -> bool:
        """The decomposition must account for the slack *exactly*."""
        return (not self.slack_breakdown
                or sum(v for _k, v in self.slack_breakdown) == self.slack)

    @property
    def ok(self) -> bool:
        return (self.words_ok and self.cycles_ok and self.cdg_clean
                and self.slack_breakdown_ok)

    def key(self) -> tuple:
        """Engine-independent identity (the cross-engine equality key)."""
        return (
            self.program, self.runs, self.expected_words,
            self.observed_words, self.metrics_words,
            self.router_mismatches, self.cycle_lower_bound,
            self.observed_cycles, self.cdg_clean,
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        line = (
            f"{self.program:<22} [{verdict}] words "
            f"{self.observed_words}/{self.expected_words} "
            f"(registry {self.metrics_words}, {self.runs} run(s)); "
            f"cycles {self.observed_cycles} >= {self.cycle_lower_bound} "
            f"(slack {self.slack}); cdg "
            f"{'acyclic' if self.cdg_clean else 'CYCLIC'}"
        )
        if self.router_mismatches:
            shown = ", ".join(
                f"({x},{y}) exp {e} got {o}"
                for (x, y), e, o in self.router_mismatches[:4]
            )
            line += f"; per-router mismatches: {shown}"
        if self.slack_breakdown:
            parts = ", ".join(
                f"{k}={v}" for k, v in self.slack_breakdown if v
            ) or "all zero"
            tick = "=" if self.slack_breakdown_ok else "!="
            line += f"\n{'':<25}slack {tick} {parts}"
        return line


def _slack_breakdown(session, obs_name, bound, observed, mark=None) -> tuple:
    """Profiled slack decomposition for one check (empty unprofiled)."""
    prof = session.profiles.get(obs_name)
    if prof is None:
        return ()
    comp = prof.slack_attribution(bound, observed=observed, mark=mark)
    return tuple(sorted(comp.items()))


def _check_fabric(
    program: str,
    fabric,
    contract: StaticContract,
    session: ObsSession,
    obs_name: str,
    runs: int,
    observed_cycles: int,
    bound: int,
    mark=None,
) -> ContractCheck:
    expected_map = {
        coord: words * runs for coord, words in contract.router_words_map().items()
    }
    observed_total = 0
    mismatches = []
    for y in range(fabric.height):
        for x in range(fabric.width):
            got = fabric.routers[y][x].words_moved
            observed_total += got
            want = expected_map.get((x, y), 0)
            if got != want:
                mismatches.append(((x, y), want, got))
    return ContractCheck(
        program=program,
        engine=fabric.engine,
        runs=runs,
        expected_words=contract.total_words * runs,
        observed_words=observed_total,
        metrics_words=session.metrics.counter(f"{obs_name}.words_moved").value,
        router_mismatches=tuple(mismatches),
        cycle_lower_bound=bound,
        observed_cycles=observed_cycles,
        cdg_clean=not cdg_pass(fabric) and not contract.cdg_cycles,
        slack_breakdown=_slack_breakdown(
            session, obs_name, bound, observed_cycles, mark=mark),
    )


# ---------------------------------------------------------------------------
# Program runners — each builds, analyzes, observes, runs, and checks.
# ---------------------------------------------------------------------------
def _contract_of(fabric) -> StaticContract:
    contract = fabric.static_contract
    if contract is None:
        # Builders attach it; analyze_program would too.  Belt and braces.
        contract = analyze_program(fabric, passes=("contract",)).contract
    return contract


def _check_spmv3d(engine: str, shape=(3, 3, 6), profile: bool = False):
    from ...kernels.spmv3d import SpmvEngine
    from ...problems.stencil7 import Stencil7

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    session = ObsSession(profile=profile)
    eng = SpmvEngine(op, options=RunOptions(engine=engine, obs=session))
    n = int(np.prod(shape))
    v = np.linspace(-1.0, 1.0, n).reshape(shape)
    if engine == "replay":
        # The first run records; run again so the measured run below is
        # a true compiled replay (word/cycle deltas folded, not stepped).
        eng.run(v)
    prof = session.profiles.get("spmv")
    mark = prof.mark() if prof is not None else None
    _u, cycles = eng.run(v)
    name = "x".join(str(s) for s in shape)
    contract = _contract_of(eng.fabric)
    return _check_fabric(
        f"spmv3d-{name}", eng.fabric, contract, session, "spmv",
        runs=eng.runs + 1,  # the build's warm-up run moved the same words
        observed_cycles=cycles,
        bound=contract.cycle_lower_bound,
        mark=mark,
    )


def _check_spmv3d_two_sum(engine: str, shape=(3, 3, 6),
                          profile: bool = False):
    """The two-sum-tasks SpMV variant (no persistent-engine wrapper)."""
    from ...kernels.spmv3d import build_spmv_fabric
    from ...problems.stencil7 import Stencil7

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    n = int(np.prod(shape))
    v = np.linspace(-1.0, 1.0, n).reshape(shape)
    fabric, programs = build_spmv_fabric(op, v, two_sum_tasks=True)
    session = ObsSession(profile=profile)
    session.observe_fabric("spmv3d-two-sum", fabric)
    nx, ny, _nz = op.shape
    start = fabric.cycle

    def finished(f) -> bool:
        return f.quiescent() and all(
            programs[j][i].done for j in range(ny) for i in range(nx)
        )

    run_oneshot(fabric, RunOptions(engine=engine), finished, 200_000,
                label="spmv3d-two-sum")
    contract = _contract_of(fabric)
    name = "x".join(str(s) for s in shape)
    return _check_fabric(
        f"spmv3d-{name}-two-sum", fabric, contract, session,
        "spmv3d-two-sum", runs=1, observed_cycles=fabric.cycle - start,
        bound=contract.cycle_lower_bound,
    )


def _check_spmv2d(engine: str, shape=(6, 6), block_shape=(3, 3),
                  profile: bool = False):
    from ...kernels.spmv2d_des import run_spmv2d_des
    from ...problems.stencil9 import Stencil9

    op, _b, _dinv = Stencil9.from_random(shape).jacobi_precondition()
    n = int(np.prod(shape))
    v = np.linspace(1.0, -1.0, n).reshape(shape)
    session = ObsSession(profile=profile)
    _u, cycles = run_spmv2d_des(
        op, v, block_shape,
        options=RunOptions(engine=engine, obs=session))
    fabric = session.fabrics["spmv2d"].fabric
    contract = _contract_of(fabric)
    return _check_fabric(
        f"spmv2d-{shape[0]}x{shape[1]}-b{block_shape[0]}x{block_shape[1]}",
        fabric, contract, session, "spmv2d",
        runs=1, observed_cycles=cycles, bound=contract.cycle_lower_bound,
    )


def _check_blas(engine: str, kernel: str = "axpy", n: int = 32,
                profile: bool = False):
    from ...kernels.blas_des import build_axpy_fabric, build_dot_fabric

    x = np.linspace(-1, 1, n)
    y = np.linspace(1, -1, n)
    if kernel == "axpy":
        fabric, _out, instr = build_axpy_fabric(0.5, x, y)
    else:
        fabric, _acc, instr = build_dot_fabric(x, y)
    session = ObsSession(profile=profile)
    session.observe_fabric(kernel, fabric)
    start = fabric.cycle
    run_oneshot(fabric, RunOptions(engine=engine), lambda f: instr.finished,
                10 * n + 10, label=kernel)
    if not instr.finished:  # pragma: no cover
        raise RuntimeError(f"{kernel} program did not finish")
    contract = _contract_of(fabric)
    return _check_fabric(
        f"{kernel}-{n}", fabric, contract, session, kernel,
        runs=1, observed_cycles=fabric.cycle - start,
        bound=contract.cycle_lower_bound,
    )


def _check_allreduce(engine: str, width: int = 6, height: int = 4,
                     profile: bool = False):
    from ...wse.allreduce import AllReduceEngine

    eng = AllReduceEngine(width, height,
                          options=RunOptions(engine=engine))
    session = ObsSession(profile=profile)
    session.observe_fabric("allreduce", eng.fabric)
    values = np.arange(width * height, dtype=np.float64).reshape(height, width)
    runs = 1
    if engine == "replay":
        # First reduce records; the measured reduce below is a replay.
        eng.reduce(values)
        runs = 2
    prof = session.profiles.get("allreduce")
    mark = prof.mark() if prof is not None else None
    _total, cycles = eng.reduce(values)
    contract = _contract_of(eng.fabric)
    return _check_fabric(
        f"allreduce-{width}x{height}", eng.fabric, contract, session,
        "allreduce", runs=runs, observed_cycles=cycles,
        bound=contract.cycle_lower_bound,
        mark=mark,
    )


def _check_bicgstab(engine: str, shape=(2, 2, 4), maxiter: int = 1,
                    profile: bool = False):
    """One full DES BiCGStab iteration: verify both persistent fabrics.

    Word counts must equal ``runs x contract`` on each fabric (the SpMV
    fabric's warm-up run included); the cycle bound scales the same way
    and is held against the fabric's *stepped* cycles — idle spans
    between kernels are skipped, never stepped, so stepped cycles are
    exactly the cycles spent running the programs.
    """
    from ...kernels.bicgstab_des import DESBiCGStab
    from ...problems import momentum_system

    system = momentum_system(shape, reynolds=50.0, dt=0.02)
    session = ObsSession(profile=profile)
    solver = DESBiCGStab(system.operator, options=RunOptions(
        engine=engine, obs=session))
    solver.solve(system.b, rtol=1e-30, maxiter=maxiter)
    report = solver.report
    checks = []

    spmv_fabric = solver._spmv_eng.fabric
    spmv_contract = _contract_of(spmv_fabric)
    spmv_runs = report.spmv_runs + 1  # + the SpmvEngine warm-up
    stepped = session.metrics.counter("spmv.stepped_cycles").value
    checks.append(_check_fabric(
        f"bicgstab[{maxiter}it]-spmv", spmv_fabric, spmv_contract, session,
        "spmv", runs=spmv_runs, observed_cycles=stepped,
        bound=spmv_contract.scaled_lower_bound(spmv_runs),
    ))

    ar_fabric = solver._ar_eng.fabric
    ar_contract = _contract_of(ar_fabric)
    stepped = session.metrics.counter("allreduce.stepped_cycles").value
    checks.append(_check_fabric(
        f"bicgstab[{maxiter}it]-allreduce", ar_fabric, ar_contract, session,
        "allreduce", runs=report.allreduce_runs, observed_cycles=stepped,
        bound=ar_contract.scaled_lower_bound(report.allreduce_runs),
    ))
    return checks


def verify_contracts(engine: str = "active",
                     profile: bool = False) -> list[ContractCheck]:
    """Run every shipped program under ``engine`` and check its contract.

    ``profile=True`` attaches the cycle profiler to every run and fills
    each check's :attr:`ContractCheck.slack_breakdown`."""
    checks = [
        _check_spmv3d(engine, profile=profile),
        _check_spmv3d_two_sum(engine, profile=profile),
        _check_spmv3d(engine, shape=(1, 1, 8), profile=profile),
        _check_spmv2d(engine, profile=profile),
        _check_blas(engine, "axpy", profile=profile),
        _check_blas(engine, "dot", profile=profile),
        _check_allreduce(engine, profile=profile),
    ]
    checks.extend(_check_bicgstab(engine, profile=profile))
    return checks


def verify_report_text(engine: str = "active", profile: bool = False) -> str:
    """The full verification report as printable text."""
    checks = verify_contracts(engine, profile=profile)
    lines = [f"contract verification (engine={engine}"
             + (", profiled)" if profile else ")")]
    lines.extend(f"  {c.summary()}" for c in checks)
    n_bad = sum(not c.ok for c in checks)
    lines.append(
        "VERIFY OK" if not n_bad
        else f"VERIFY FAILED ({n_bad} of {len(checks)} check(s))"
    )
    return "\n".join(lines)


def verify_numerics(engine: str = "active") -> int:
    """Hold the numerics certificates to fp64 shadow observation.

    Runs every certified program (the lint seven plus the Fig. 9 pair)
    under ``engine`` with :class:`~repro.wse.sanitizer.ShadowNumerics`
    attached and asserts observed error <= certified static bound on
    each target.  Prints one summary line per program, plus one
    machine-readable JSON line per failure; returns the failure count.
    """
    import json

    from .certify import certify_all

    bad = 0
    print(f"numerics verification (engine={engine})")
    for check in certify_all(engine=engine):
        verdict = "OK" if check.ok else "FAIL"
        if check.expect_reject:
            detail = (
                f"rejected, witness confirmed={check.witness_confirmed}"
                if check.ok else "expected rejection not reproduced"
            )
        else:
            wo = 0.0 if check.worst_observed is None else check.worst_observed
            wb = 0.0 if check.worst_bound is None else check.worst_bound
            detail = f"observed {wo:.3g} <= bound {wb:.3g}"
        print(f"  {check.name:<22} [{verdict}] {detail}")
        if not check.ok:
            bad += 1
            for failure in check.failures:
                print(json.dumps(
                    {"check": "numerics", "engine": engine,
                     "program": check.name, **failure},
                    default=str,
                ))
    print("NUMERICS OK" if not bad
          else f"NUMERICS FAILED ({bad} program(s))")
    return bad


def verify_main(argv: list[str] | None = None) -> int:
    """CLI entry: verify under one engine (or both); exit 0 iff all OK."""
    parser = argparse.ArgumentParser(
        prog="repro verify-contracts",
        description=(
            "Run every shipped wafer program under the DES engine and "
            "check the observed traffic and cycles against its "
            "StaticContract."
        ),
    )
    add_engine_arguments(parser, extra_choices=("both", "all"))
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the cycle profiler and decompose each check's slack",
    )
    parser.add_argument(
        "--numerics", action="store_true",
        help="additionally certify the static numerics bounds against "
        "fp64 shadow execution (implied by --engine all)",
    )
    args = parser.parse_args(argv if argv is not None else [])
    if args.engine == "both":
        engines = ("active", "reference")
    elif args.engine == "all":
        engines = ("active", "reference", "replay")
    else:
        engines = (args.engine,)
    status = 0
    for engine in engines:
        text = verify_report_text(engine, profile=args.profile)
        print(text)
        if not text.endswith("VERIFY OK"):
            status = 1
    # --engine all always covers the numerics certificates; the shadow
    # executor drives the instruction stepper, so it runs under the
    # active and replay orchestrations (not the reference engine).
    if args.numerics or args.engine == "all":
        for engine in engines:
            if engine == "reference":
                continue
            if verify_numerics(engine):
                status = 1
    return status
