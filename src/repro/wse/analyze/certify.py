"""``python -m repro certify-numerics`` — machine-checked numerics bounds.

Closes the loop the static numerics pass (:mod:`.numerics`) opens: for
every shipped program it

1. runs the full static analysis and extracts the
   :class:`~repro.wse.analyze.numerics.NumericsContract` — the certified
   per-output worst-case rounding-error bounds;
2. re-runs the program under the fp64 shadow executor
   (:class:`repro.wse.sanitizer.ShadowNumerics`) and asserts the
   *realized* error of every certified target never exceeds its static
   bound (and that the run's inputs stayed inside their declared
   ranges — the certificate's precondition);
3. for programs the pass *rejects* (the unscaled mfix-like system of the
   paper's Fig. 9 study), synthesizes a minimal witness program from the
   ERROR diagnostic and confirms it on the real engine
   (:func:`~repro.wse.analyze.numerics.confirm_numerics_witness`).

The Fig. 9 pair reproduces the paper's safe/unsafe split: the same
momentum-equation coefficients run once raw (``rho/dt ~ 4e4`` on the
diagonal — the first fp16 product already exceeds 65504 and overflows)
and once Jacobi-scaled to unit diagonal (every coefficient O(1e-4), the
whole mac chain certifies far inside tolerance).  "Diagonal scaling of
the matrix proved essential" (paper section VI.B).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from ...api import RunOptions
from ..execute import select_engine
from .analyzer import analyze_program
from .diagnostics import Severity
from .numerics import confirm_numerics_witness, synthesize_numerics_witness

__all__ = [
    "NumericsCheck",
    "build_fig9_program",
    "certified_programs",
    "certify_program",
    "certify_all",
    "certify_main",
]

#: Fig. 9 study knobs: a small mfix-like momentum system whose raw
#: diagonal (``rho/dt = 1/dt``) is deep in fp16 overflow territory.
_FIG9_SHAPE = (4, 4, 4)
_FIG9_REYNOLDS = 400.0
_FIG9_DT = 2.5e-5
_FIG9_M = 8  # elements per leg in the mac chain


@dataclass
class NumericsCheck:
    """Outcome of certifying one program.

    ``expect_reject`` programs pass when the static pass flags an ERROR
    *and* the synthesized witness is confirmed on the real engine; all
    others pass when the static pass is clean and every shadow-observed
    error stays within its certified bound.
    """

    name: str
    expect_reject: bool = False
    ok: bool = False
    errors: int = 0
    worst_bound: float | None = None
    worst_observed: float | None = None
    witness_confirmed: bool | None = None
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "program": self.name,
            "expect_reject": self.expect_reject,
            "ok": self.ok,
            "static_errors": self.errors,
            "worst_bound": self.worst_bound,
            "worst_observed": self.worst_observed,
            "witness_confirmed": self.witness_confirmed,
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# The Fig. 9 pair
# ---------------------------------------------------------------------------
def build_fig9_program(scaled: bool):
    """A single-tile fp16 mac chain with mfix-like coefficients.

    Seven legs (``diag, xp, xm, yp, ym, zp, zm``) accumulate
    ``out[k] += c_leg[k] * x[k]`` element-wise in fp16 — the arithmetic
    shape of the wafer SpMV, reduced to one core so the split is purely
    about the coefficients.  ``scaled=False`` uses the raw momentum
    operator; ``scaled=True`` its Jacobi unit-diagonal form.

    Returns ``(fabric, out_array, instructions)``.
    """
    from ...problems.mfix_like import momentum_system
    from ..config import CS1
    from ..core import Core
    from ..dsr import Instruction, MemCursor
    from ..fabric import Fabric
    from .spec import InstrDecl, MemRef

    system = momentum_system(
        _FIG9_SHAPE, reynolds=_FIG9_REYNOLDS, dt=_FIG9_DT,
        preconditioned=scaled,
    )
    coeffs = system.operator.coeffs
    m = _FIG9_M

    fabric = Fabric(1, 1)
    core = Core(0, 0, CS1)
    fabric.attach_core(0, 0, core)
    mem = core.memory

    x = mem.alloc("x", m, np.float16)
    x[:] = np.linspace(-2.0, 2.0, m).astype(np.float16)
    out = mem.alloc("out", m, np.float16)
    legs = ("diag", "xp", "xm", "yp", "ym", "zp", "zm")
    for leg in legs:
        arr = mem.alloc(f"c_{leg}", m, np.float16)
        arr[:] = np.asarray(coeffs[leg]).ravel()[:m].astype(np.float16)

    decl = core.program_decl
    decl.declare_range("x", -2.0, 2.0)
    decl.declare_tolerance(0.25)
    instrs = []
    for leg in legs:
        instr = Instruction(
            op="mac",
            dst=MemCursor(out, 0, m, name="out"),
            srcs=[
                MemCursor(mem.get(f"c_{leg}"), 0, m, name=f"c_{leg}"),
                MemCursor(x, 0, m, name="x"),
            ],
            length=m,
            name=f"mac_{leg}",
        )
        core.launch(instr, thread=None)
        instrs.append(instr)
        decl.launched(InstrDecl(
            "mac", MemRef("out", 0, m),
            (MemRef(f"c_{leg}", 0, m), MemRef("x", 0, m)),
            length=m, thread=None, name=f"mac_{leg}",
        ))
    fabric.prebind()
    return fabric, out, instrs


def _run_fig9(fabric, instrs) -> None:
    fabric.run(
        max_cycles=10_000,
        until=lambda f: all(i.finished for i in instrs),
    )


# ---------------------------------------------------------------------------
# Shadowed runners: build fresh, attach ShadowNumerics, run, report.
# Each returns ``(fabric, shadow)`` with at least one completed run.
# ---------------------------------------------------------------------------
def _shadowed(fabric, run) -> tuple:
    import warnings

    from ..sanitizer import ShadowNumerics

    shadow = ShadowNumerics(fabric)
    fabric.attach_sanitizer(shadow)
    try:
        # The expected-reject program overflows fp16 by design; keep
        # numpy's cast warnings out of the report.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run(fabric)
    finally:
        fabric.detach_sanitizer()
    return fabric, shadow


def _certify_spmv3d(engine: str, two_sum_tasks: bool = False,
                    shape=(3, 3, 6)):
    from ...kernels.spmv3d import SpmvEngine
    from ...problems.stencil7 import Stencil7

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    eng = SpmvEngine(op, options=RunOptions(engine=engine))
    if two_sum_tasks:
        # The two-task split only changes drain interleaving; rebuild.
        from ...kernels.spmv3d import build_spmv_fabric

        n = int(np.prod(shape))
        v = np.linspace(-1.0, 1.0, n).reshape(shape)
        fabric, programs = build_spmv_fabric(op, v, two_sum_tasks=True)
        select_engine(fabric, engine)
        nx, ny, _nz = op.shape

        def run(f):
            f.run(max_cycles=200_000, until=lambda f: f.quiescent() and all(
                programs[j][i].done for j in range(ny) for i in range(nx)))

        return _shadowed(fabric, run)

    n = int(np.prod(shape))
    v = np.linspace(-1.0, 1.0, n).reshape(shape)

    def run(_f):
        eng.run(v)

    return _shadowed(eng.fabric, run)


def _certify_spmv2d(engine: str, shape=(6, 6), block_shape=(3, 3)):
    from ...kernels.spmv2d_des import build_spmv2d_fabric
    from ...problems.stencil9 import Stencil9

    op, _b, _dinv = Stencil9.from_random(shape).jacobi_precondition()
    n = int(np.prod(shape))
    v = np.linspace(1.0, -1.0, n).reshape(shape)
    fabric, programs = build_spmv2d_fabric(op, v, block_shape)
    select_engine(fabric, engine)
    bx, by = block_shape
    px, py = shape[0] // bx, shape[1] // by

    def run(f):
        f.run(max_cycles=500_000, until=lambda f: f.quiescent() and all(
            programs[bj][bi].done for bj in range(py) for bi in range(px)))

    return _shadowed(fabric, run)


def _certify_blas(engine: str, kernel: str, n: int = 32):
    from ...kernels.blas_des import build_axpy_fabric, build_dot_fabric

    x = np.linspace(-1, 1, n)
    y = np.linspace(1, -1, n)
    if kernel == "axpy":
        fabric, _out, instr = build_axpy_fabric(0.5, x, y)
    else:
        fabric, _acc, instr = build_dot_fabric(x, y)
    select_engine(fabric, engine)

    def run(f):
        f.run(max_cycles=10 * n + 100, until=lambda f: instr.finished)

    return _shadowed(fabric, run)


def _certify_allreduce(engine: str, width: int = 6, height: int = 4):
    from ..allreduce import AllReduceEngine

    eng = AllReduceEngine(width, height, options=RunOptions(engine=engine))
    rng = np.random.default_rng(7)
    values = rng.uniform(-60.0, 60.0, (height, width))

    def run(_f):
        eng.reduce(values)
        eng.reduce(values * 0.5)  # re-arm path: certify across runs

    return _shadowed(eng.fabric, run)


def _certify_fig9(engine: str, scaled: bool):
    fabric, _out, instrs = build_fig9_program(scaled)
    select_engine(fabric, engine)
    return _shadowed(fabric, lambda f: _run_fig9(f, instrs))


def certified_programs() -> list[tuple[str, bool]]:
    """``(name, expect_reject)`` for the nine certified programs."""
    return [
        ("spmv3d-3x3x6", False),
        ("spmv3d-two-sum-tasks", False),
        ("spmv3d-1x1x8", False),
        ("spmv2d-6x6-b3x3", False),
        ("axpy-32", False),
        ("dot-32", False),
        ("allreduce-6x4", False),
        ("mfix-fig9-scaled", False),
        ("mfix-fig9-unscaled", True),
    ]


def _build_and_run(name: str, engine: str):
    if name == "spmv3d-3x3x6":
        return _certify_spmv3d(engine)
    if name == "spmv3d-two-sum-tasks":
        return _certify_spmv3d(engine, two_sum_tasks=True)
    if name == "spmv3d-1x1x8":
        return _certify_spmv3d(engine, shape=(1, 1, 8))
    if name == "spmv2d-6x6-b3x3":
        return _certify_spmv2d(engine)
    if name == "axpy-32":
        return _certify_blas(engine, "axpy")
    if name == "dot-32":
        return _certify_blas(engine, "dot")
    if name == "allreduce-6x4":
        return _certify_allreduce(engine)
    if name == "mfix-fig9-scaled":
        return _certify_fig9(engine, scaled=True)
    if name == "mfix-fig9-unscaled":
        return _certify_fig9(engine, scaled=False)
    raise ValueError(f"unknown certified program {name!r}")


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------
def certify_program(
    name: str, expect_reject: bool, engine: str = "active"
) -> NumericsCheck:
    """Certify one program: static bounds vs fp64 shadow observation."""
    check = NumericsCheck(name=name, expect_reject=expect_reject)
    fabric, shadow = _build_and_run(name, engine)
    report = analyze_program(fabric)
    numerics_errors = [
        d for d in report.by_pass("numerics")
        if d.severity is Severity.ERROR
    ]
    check.errors = len(numerics_errors)
    contract = report.numerics

    if expect_reject:
        if not numerics_errors:
            check.failures.append({
                "kind": "missing-rejection",
                "detail": "static pass found no ERROR on a program "
                          "expected to be rejected",
            })
            return check
        # The static claim must survive contact with the real engine:
        # cut a minimal feeder program from the first ERROR and run it.
        diag = numerics_errors[0]
        try:
            confirm_numerics_witness(diag, engine=engine)
            check.witness_confirmed = True
        except Exception as err:  # refuted or unbuildable witness
            check.witness_confirmed = False
            check.failures.append({
                "kind": "witness-refuted",
                "detail": str(err),
                "witness": repr(synthesize_numerics_witness(diag))[:400],
            })
            return check
        check.ok = True
        return check

    if numerics_errors:
        check.failures.extend({
            "kind": "static-error",
            "detail": str(d),
        } for d in numerics_errors)
        return check

    if not shadow.range_ok:
        check.failures.extend({
            "kind": "range-violation",
            "detail": v,
        } for v in shadow.range_violations)

    entries = {
        (x, y, ename): (err, tol)
        for x, y, _kind, ename, _dt, _lo, _hi, err, _mag, tol
        in (contract.entries if contract is not None else ())
    }
    worst_b = max((e[7] for e in contract.entries), default=None) \
        if contract is not None else None
    check.worst_bound = worst_b
    worst_obs = None
    for rec in shadow.report():
        (x, y), ename, observed = rec["pos"], rec["name"], rec["error"]
        got = entries.get((x, y, ename))
        if got is None:
            continue  # inputs and untracked targets carry no bound
        bound, tol = got
        if worst_obs is None or observed > worst_obs:
            worst_obs = observed
        if observed > bound:
            check.failures.append({
                "kind": "bound-violation",
                "target": [x, y, ename],
                "observed": observed,
                "bound": bound,
            })
        if tol is not None and observed > tol:
            check.failures.append({
                "kind": "tolerance-violation",
                "target": [x, y, ename],
                "observed": observed,
                "tolerance": tol,
            })
    check.worst_observed = worst_obs
    check.ok = not check.failures
    return check


def certify_all(engine: str = "active") -> list[NumericsCheck]:
    return [
        certify_program(name, expect_reject, engine=engine)
        for name, expect_reject in certified_programs()
    ]


def certify_main(argv=None) -> int:
    """CLI: certify all shipped programs; non-zero exit on any failure."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro certify-numerics",
        description="Certify static numerics bounds against fp64 shadow "
                    "execution on every shipped program.",
    )
    from ...api import add_engine_arguments

    add_engine_arguments(parser, json_flag=True)
    args = parser.parse_args(argv)
    if args.engine == "reference":
        print(f"certify-numerics: the fp64 shadow executor drives the "
              f"instruction stepper in-process; --engine {args.engine} is "
              "unsupported (certify under active or replay)")
        return 2

    checks = certify_all(engine=args.engine)
    bad = 0
    for check in checks:
        if args.json:
            print(json.dumps(check.as_dict()))
        else:
            if check.ok:
                if check.expect_reject:
                    detail = (f"rejected as expected "
                              f"({check.errors} static error(s), "
                              "witness confirmed on the engine)")
                else:
                    wb = check.worst_bound
                    wo = check.worst_observed
                    detail = (
                        f"certified: observed "
                        f"{0.0 if wo is None else wo:.3g} <= bound "
                        f"{0.0 if wb is None else wb:.3g}"
                    )
                print(f"{check.name}: OK — {detail}")
            else:
                print(f"{check.name}: FAILED")
                for failure in check.failures:
                    print(f"  {json.dumps(failure, default=str)}")
        if not check.ok:
            bad += 1
    # In --json mode stdout carries exactly one JSON line per program;
    # the human trailer goes to stderr so parsers can consume stdout raw.
    stream = sys.stderr if args.json else sys.stdout
    if bad:
        print(f"CERTIFY-NUMERICS FAILED ({bad} program(s))", file=stream)
        return 1
    print(f"CERTIFY-NUMERICS OK ({len(checks)} program(s))", file=stream)
    return 0
