"""Per-request correctness checks feeding ``correct_frac``.

A request fails when any of these holds:

* the DES solve did not converge within ``maxiter``;
* its fp64 true residual ``||b - A x|| / ||b||`` exceeds
  :data:`TRUE_RESIDUAL_BOUND`;
* its ``x`` differs from :class:`repro.solver.wafer_bicgstab.WaferBiCGStab`
  on the same system by more than :data:`X_REL_TOL`;
* on the seed recorded in ``expected.json``, its ``x`` digest or its
  per-kernel simulated cycles differ from the committed values.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.solver.wafer_bicgstab import WaferBiCGStab

#: The DES solve stops at a recurrence residual of 5e-3 with fp16
#: storage, so its true residual sits at a few 1e-3; 2e-2 is a wrong answer.
TRUE_RESIDUAL_BOUND = 2e-2
#: The reference stops at 1e-3; the two solutions agree to a few 1e-3
#: relative, so 2e-2 is beyond what fp16 rounding and stopping explain.
X_REL_TOL = 2e-2

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(x: np.ndarray) -> str:
    """Short SHA-256 of the solution's fp64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()[:16]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """``{"seed": n, "workloads": {name: [entry per request index]}}``."""
    return json.loads(path.read_text())


def check_request(op, b, result, kernel_cycles: dict, csr=None,
                  expected_entry: dict | None = None) -> dict:
    """Check one solved request.

    ``kernel_cycles`` is the request's own per-kernel simulated cycles
    (``spmv``/``allreduce``/``axpy``/``dot_local``); ``expected_entry``
    the committed ``{"digest", "cycles"}`` for this request, if any.
    Returns the failure reasons, the true residual, the relative
    distance to the WaferBiCGStab reference and that reference's wall
    time (``functional_s``).
    """
    failures: list[str] = []
    if not result.converged:
        failures.append(f"not converged in {result.iterations} iterations")
    A = op.to_csr() if csr is None else csr
    x = np.asarray(result.x, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    bnorm = float(np.linalg.norm(bv))
    true_res = float(np.linalg.norm(bv - A @ x)) / bnorm
    if not true_res <= TRUE_RESIDUAL_BOUND:
        failures.append(f"true residual {true_res:.3g} > {TRUE_RESIDUAL_BOUND}")
    t0 = time.perf_counter()
    ref = WaferBiCGStab().solve(op, np.asarray(b, dtype=np.float64))
    functional_s = time.perf_counter() - t0
    xr = np.asarray(ref.x, dtype=np.float64).ravel()
    rel = float(np.linalg.norm(x - xr)) / max(float(np.linalg.norm(xr)), 1e-300)
    if not rel <= X_REL_TOL:
        failures.append(f"x differs from WaferBiCGStab by {rel:.3g} > {X_REL_TOL}")
    if expected_entry is not None:
        if digest(result.x) != expected_entry["digest"]:
            failures.append("x digest differs from the committed value")
        if kernel_cycles != expected_entry["cycles"]:
            failures.append(
                f"kernel cycles {kernel_cycles} differ from the committed "
                f"{expected_entry['cycles']}"
            )
    return {"failures": failures, "true_residual": true_res,
            "x_rel_diff": rel, "functional_s": functional_s}
