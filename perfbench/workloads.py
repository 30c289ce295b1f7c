"""Workload definitions and seeded request streams.

Every workload is a closed loop with one client: the next solve request
is issued only after the previous one returns.  A request is an
(operator, right-hand side) pair made by
:func:`repro.problems.momentum_system` from the benchmark's ``--seed``;
the same seed always yields the same requests in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: DESBiCGStab stopping rule used by every request.
RTOL = 5e-3
MAXITER = 30


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    shape: tuple[int, int, int]
    #: Requests per operator.  ``None`` keeps one operator for the whole
    #: run; ``3`` is the SIMPLE outer loop (u, v, w solved per operator).
    rhs_per_operator: int | None
    #: Reynolds numbers are drawn log-uniformly from this range, one per
    #: operator.  The ranges keep every seed's iteration counts the same,
    #: so run-to-run spread measures the host, not the draw.
    reynolds_range: tuple[float, float]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replay-48x48x2", "replay", (48, 48, 2), None, (100.0, 100.0),
            "2304 tiles, one operator: the cold path (build, schedule proof, "
            "record, compile) dominates setup_s; warm solves only replay",
        ),
        Workload(
            "live-12x12x32", "active", (12, 12, 32), None, (100.0, 100.0),
            "deep-Z shallow fabric on the active engine: live fabric stepping "
            "does the work, replay and the schedule proof are never entered",
        ),
        Workload(
            "replay-simple-32x32x4", "replay", (32, 32, 4), 3, (200.0, 1000.0),
            "SIMPLE outer loop: a new operator per iteration solving u, v, w, "
            "so each recording is replayed only twice",
        ),
    )
}


def reynolds(workload: Workload, seed: int, operator_index: int) -> float:
    """The Reynolds number of one operator, drawn from the seed."""
    lo, hi = workload.reynolds_range
    if lo == hi:
        return lo
    rng = np.random.default_rng([seed, operator_index, 7])
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def request(workload: Workload, seed: int, index: int):
    """Request ``index`` of the stream: ``(operator_index, operator, b)``.

    Requests that share ``operator_index`` share the operator bit for bit,
    so the client reuses its solver for them.
    """
    from repro.problems import momentum_system

    per_op = workload.rhs_per_operator
    op_index = 0 if per_op is None else index // per_op
    component = index % 3
    re = reynolds(workload, seed, op_index)
    system = momentum_system(
        workload.shape, reynolds=re, component=component,
        rng=np.random.default_rng([seed, index]),
    )
    return op_index, system.operator, system.b
