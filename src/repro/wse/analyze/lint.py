"""``python -m repro lint`` — statically analyze every shipped program.

Builds each kernel program the repo ships (3D SpMV in both sum-task
configurations and the degenerate single-tile mapping, the 2D
block-mapped SpMV, the core-local AXPY and mixed dot, and the AllReduce
routing pattern) and runs the whole-program analyzer over it.  No
simulation cycles are executed — everything checked here is knowable at
build time, which is the point.

This module imports the kernel builders and therefore must only be
imported lazily (the CLI does), never from ``repro.wse.analyze``'s
package init: :mod:`repro.wse.core` imports the declaration IR, so an
eager import here would be circular.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from .analyzer import analyze_program
from .diagnostics import AnalysisReport, Severity
from ..fabric import Fabric

__all__ = ["shipped_programs", "lint_reports", "lint_report_text",
           "lint_json_lines", "lint_main"]


def _build_spmv3d(shape, two_sum_tasks=False) -> Fabric:
    from ...problems.stencil7 import Stencil7
    from ...kernels.spmv3d import build_spmv_fabric

    op, _b, _dinv = Stencil7.from_random(shape).jacobi_precondition()
    fabric, _programs = build_spmv_fabric(
        op, np.zeros(op.shape), two_sum_tasks=two_sum_tasks
    )
    return fabric


def _build_spmv2d(shape, block_shape) -> Fabric:
    from ...problems.stencil9 import Stencil9
    from ...kernels.spmv2d_des import build_spmv2d_fabric

    op, _b, _dinv = Stencil9.from_random(shape).jacobi_precondition()
    fabric, _programs = build_spmv2d_fabric(op, np.zeros(op.shape), block_shape)
    return fabric


def _build_axpy(n) -> Fabric:
    from ...kernels.blas_des import build_axpy_fabric

    fabric, _out, _instr = build_axpy_fabric(
        0.5, np.linspace(-1, 1, n), np.linspace(1, -1, n)
    )
    return fabric


def _build_dot(n) -> Fabric:
    from ...kernels.blas_des import build_dot_fabric

    fabric, _acc, _instr = build_dot_fabric(
        np.linspace(-1, 1, n), np.linspace(1, -1, n)
    )
    return fabric


def _build_allreduce(width, height) -> Fabric:
    from .contracts import compute_contract
    from ..allreduce import ReduceCore, allreduce_pattern
    from ..patterns import compile_to_fabric

    fabric = Fabric(width, height)
    compile_to_fabric(allreduce_pattern(width, height), fabric)
    for y in range(height):
        for x in range(width):
            fabric.attach_core(x, y, ReduceCore(x, y, width, height, 1.0))
    # Mirror AllReduceEngine: every shipped program carries its contract.
    fabric.static_contract = compute_contract(fabric)
    return fabric


def shipped_programs() -> list[tuple[str, Fabric]]:
    """Build every shipped kernel program (no cycles executed)."""
    return [
        ("spmv3d-3x3x6", _build_spmv3d((3, 3, 6))),
        ("spmv3d-two-sum-tasks", _build_spmv3d((3, 3, 6), two_sum_tasks=True)),
        ("spmv3d-1x1x8", _build_spmv3d((1, 1, 8))),
        ("spmv2d-6x6-b3x3", _build_spmv2d((6, 6), (3, 3))),
        ("axpy-32", _build_axpy(32)),
        ("dot-32", _build_dot(32)),
        ("allreduce-6x4", _build_allreduce(6, 4)),
    ]


def lint_reports() -> list[tuple[str, AnalysisReport]]:
    """Analyze every shipped program; returns ``(name, report)`` pairs."""
    return [(name, analyze_program(fabric))
            for name, fabric in shipped_programs()]


def lint_report_text() -> str:
    """The full lint report as printable text."""
    lines = []
    n_diags = 0
    for name, report in lint_reports():
        n_diags += len(report)
        body = report.format().replace("\n", "\n  ")
        lines.append(f"{name}: {body}")
    verdict = "LINT OK" if n_diags == 0 else f"LINT FAILED ({n_diags} diagnostic(s))"
    lines.append(verdict)
    return "\n".join(lines)


def lint_json_lines() -> tuple[list[str], bool]:
    """Machine-readable lint: one JSON object per diagnostic.

    Each line is a :meth:`Diagnostic.as_dict` payload (stable keys:
    ``schema_version``, ``severity``, ``pass``, ``kind``, ``message``,
    ``where``, ``channel``, ``hint``, ``data``) plus a ``program`` key
    naming the shipped program it came from; the full schema, including
    the per-pass ``data`` payloads, is documented in
    ``docs/static_analysis.md``.  Returns ``(lines, any_error)``.
    """
    lines = []
    any_error = False
    for name, report in lint_reports():
        for diag in report.diagnostics:
            payload = diag.as_dict()
            payload["program"] = name
            lines.append(json.dumps(payload, sort_keys=True))
            any_error |= diag.severity is Severity.ERROR
    return lines, any_error


def lint_main(argv: list[str] | None = None) -> int:
    """CLI entry: print the report; exit status 0 clean / 1 dirty.

    With ``--json``, emit one JSON diagnostic object per line (nothing
    else on stdout) and exit non-zero iff any diagnostic is an error.
    """
    from ...api import add_engine_arguments

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically analyze every shipped wafer program.",
    )
    # Shared fragment: lint is static (no engine runs), so only --json.
    add_engine_arguments(parser, engine=False, json_flag=True)
    args = parser.parse_args(argv if argv is not None else [])
    if args.json:
        lines, any_error = lint_json_lines()
        for line in lines:
            print(line)
        return 1 if any_error else 0
    text = lint_report_text()
    print(text)
    return 0 if text.endswith("LINT OK") else 1
