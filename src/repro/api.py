"""Unified run-session API: one options object for every kernel runner.

Every DES entry point in this repo answers two separate questions:
*what* to execute (an operator, a vector, a block shape — the program)
and *how* to execute it (which stepping engine, whether to
race-sanitize, analyze, or observe).  :class:`RunOptions` freezes the
"how" into a single validated value object, and :class:`Session`
provides the one-call facade::

    from repro.api import RunOptions, Session, Spmv3D

    opts = RunOptions(engine="replay")
    u, cycles = Session(opts).run(Spmv3D(op, v))

All shipped runners (``run_spmv_des``, ``run_spmv2d_des``,
``run_axpy_des``, ``run_dot_des``, :class:`~repro.kernels.spmv3d.SpmvEngine`,
:class:`~repro.wse.allreduce.AllReduceEngine`,
:func:`~repro.wse.allreduce.simulate_allreduce`,
:class:`~repro.kernels.bicgstab_des.DESBiCGStab`) take their execution
settings only as ``options=RunOptions(...)``; how an engine name turns
into live stepping or compiled replay is decided in
:mod:`repro.wse.execute`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ENGINES",
    "RunOptions",
    "Session",
    "Spmv3D",
    "Spmv2D",
    "Axpy",
    "Dot",
    "AllReduce",
    "add_engine_arguments",
    "options_from_args",
]

#: The three stepping engines, in fidelity order: the naive full-grid
#: reference sweep, the event-driven active-set engine, and the
#: record-once/replay-many compiled engine (see :mod:`repro.wse.execute`).
ENGINES = ("reference", "active", "replay")

#: Why the race sanitizer cannot run under ``engine="replay"``; shared
#: with ``python -m repro sanitize``.
SANITIZE_REPLAY_REASON = (
    "the race sanitizer instruments live whole-fabric stepping, which "
    "replay skips (sanitize under active — the other engines are "
    "bit-identical to it)"
)


@dataclass(frozen=True)
class RunOptions:
    """How to execute a kernel program (immutable, validated).

    Parameters
    ----------
    engine:
        One of :data:`ENGINES`.
    sanitize:
        Attach the runtime race sanitizer to every live run.
        Unsupported under ``engine="replay"``
        (:data:`SANITIZE_REPLAY_REASON`).
    analyze:
        Statically verify the tile program at build time
        (:func:`repro.wse.analyze.analyze_program`) instead of only
        computing its contract.
    obs:
        Optional :class:`repro.obs.ObsSession` receiving fabric
        observers and kernel trace spans (``ObsSession(profile=True)``
        also attaches the cycle profiler).
    """

    engine: str = "active"
    sanitize: bool = False
    analyze: bool = False
    obs: Any = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.sanitize and self.engine == "replay":
            raise ValueError(
                f"engine='replay' does not support sanitize=True: "
                f"{SANITIZE_REPLAY_REASON}"
            )

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


# ----------------------------------------------------------------------
# Shared CLI fragment — one spelling of --engine/--json for every
# ``python -m repro`` subcommand that runs fabric programs.
# ----------------------------------------------------------------------
def add_engine_arguments(parser, *, default: str = "active",
                         extra_choices: tuple = (),
                         engine: bool = True,
                         json_flag: bool = False) -> None:
    """Install the standard execution flags on an argparse parser.

    ``--engine`` offers the three engines (plus any subcommand
    aggregates like ``both``/``all`` via ``extra_choices``), and
    ``--json`` (opt-in per subcommand) requests machine-readable
    output.  Flag spellings are frozen here so every subcommand stays
    consistent; subcommands that cannot execute a particular engine
    reject it after parsing with an explanation rather than hiding the
    choice.
    """
    if engine:
        parser.add_argument(
            "--engine", choices=ENGINES + tuple(extra_choices),
            default=default,
            help=f"fabric stepping engine (default: {default})",
        )
    if json_flag:
        parser.add_argument(
            "--json", action="store_true",
            help="emit machine-readable JSON instead of the text report",
        )


def options_from_args(args, **overrides) -> RunOptions:
    """Build a :class:`RunOptions` from a parsed argparse namespace.

    Reads ``engine`` (when present) and applies ``overrides`` on top.
    Aggregate engine spellings (``both``/``all``) must be expanded by
    the subcommand before calling this.
    """
    fields = {"engine": getattr(args, "engine", "active")}
    fields.update(overrides)
    return RunOptions(**fields)


# ----------------------------------------------------------------------
# Program specs — the "what" half of Session.run(program, options)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Spmv3D:
    """One 3D (Fig. 3 mapping) SpMV: ``run`` returns ``(u, cycles)``."""

    op: Any
    v: Any
    fifo_capacity: int = 20
    two_sum_tasks: bool = False
    max_cycles: int = 200_000

    def run(self, options: RunOptions):
        from .kernels.spmv3d import run_spmv_des

        return run_spmv_des(
            self.op, self.v, fifo_capacity=self.fifo_capacity,
            max_cycles=self.max_cycles, two_sum_tasks=self.two_sum_tasks,
            options=options,
        )


@dataclass(frozen=True)
class Spmv2D:
    """One 2D block-mapped SpMV: ``run`` returns ``(u, cycles)``."""

    op: Any
    v: Any
    block_shape: tuple
    max_cycles: int = 500_000

    def run(self, options: RunOptions):
        from .kernels.spmv2d_des import run_spmv2d_des

        return run_spmv2d_des(
            self.op, self.v, self.block_shape,
            max_cycles=self.max_cycles, options=options,
        )


@dataclass(frozen=True)
class Axpy:
    """Core-local SIMD-4 ``y + a*x``: ``run`` returns ``(out, cycles)``."""

    a: float
    x: Any
    y: Any

    def run(self, options: RunOptions):
        from .kernels.blas_des import run_axpy_des

        return run_axpy_des(self.a, self.x, self.y, options=options)


@dataclass(frozen=True)
class Dot:
    """The mixed-precision local dot: ``run`` returns ``(value, cycles)``."""

    x: Any
    y: Any

    def run(self, options: RunOptions):
        from .kernels.blas_des import run_dot_des

        return run_dot_des(self.x, self.y, options=options)


@dataclass(frozen=True)
class AllReduce:
    """One Fig. 6 collective over ``values`` (shape ``(height, width)``):
    ``run`` returns ``(sum, cycles)``."""

    values: Any
    queue_capacity: int = 8

    def run(self, options: RunOptions):
        from .wse.allreduce import simulate_allreduce

        return simulate_allreduce(
            self.values, queue_capacity=self.queue_capacity, options=options,
        )


class Session:
    """The one-call facade: ``Session(options).run(program)``.

    A session pins a default :class:`RunOptions`; ``run`` executes any
    program spec under it (or a per-call override).  Program specs are
    anything with a ``run(options)`` method — the dataclasses above
    cover the shipped kernels.
    """

    def __init__(self, options: RunOptions | None = None):
        self.options = options if options is not None else RunOptions()
        if not isinstance(self.options, RunOptions):
            raise TypeError("Session(options=...) must be a RunOptions")

    def run(self, program, options: RunOptions | None = None):
        opts = self.options if options is None else options
        if not isinstance(opts, RunOptions):
            raise TypeError("options must be a repro.api.RunOptions")
        return program.run(opts)
