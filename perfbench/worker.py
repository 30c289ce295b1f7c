"""One benchmark client in a fresh process.

Runs one workload's closed loop for a time budget, checks every
request, and prints one JSON line describing each request.  The
launcher (``run.py``) starts this script with BLAS pinned to one thread
and ``src`` on ``PYTHONPATH``; run it directly only for debugging::

    PYTHONPATH=src python3 perfbench/worker.py --workload live-12x12x32 \\
        --seed 0 --seconds 3 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab

from calibrate import calibrate
from check import check_request, digest, load_expected
from spans import SpanRecorder
from workloads import MAXITER, RTOL, WORKLOADS, request

KERNELS = ("spmv", "allreduce", "axpy", "dot_local")


def _cycles(report) -> dict:
    return {k: getattr(report, f"{k}_cycles") for k in KERNELS}


def run_client(workload, seed: int, seconds: float, trace: bool,
               expected: list | None = None, max_requests: int | None = None):
    """Issue requests until the budget is spent; returns ``(requests, recorder)``.

    Single-operator workloads run one cold request, then warm requests
    in groups of three (one per velocity component, so every run solves
    the same mix) until ``seconds`` of warm wall time have passed.
    Multi-operator workloads run whole operators (cold request plus its
    warm ones) until ``seconds`` of sequence wall time have passed.
    ``max_requests`` instead stops after exactly that many requests.

    A :func:`calibrate` pass runs before the first request and after
    every request; each request records the mean of the two around it
    as ``calib_s``.
    """
    recorder = SpanRecorder() if trace else None
    options = RunOptions(engine=workload.engine)
    out: list[dict] = []
    solver = None
    op_index = csr = None
    prev = dict.fromkeys(KERNELS, 0)
    replay_prev = None
    warm_s = seq_s = 0.0
    warm_n = 0
    index = 0
    calib = calibrate()
    while True:
        next_op, op, b = request(workload, seed, index)
        cold = solver is None or next_op != op_index
        if max_requests is not None:
            if index >= max_requests:
                break
        elif workload.rhs_per_operator is None:
            if warm_n and warm_n % 3 == 0 and warm_s >= seconds:
                break
        elif cold and solver is not None and seq_s >= seconds:
            break
        if cold:
            if solver is not None:
                solver.close()
                solver = None
            op_index, csr = next_op, op.to_csr()
            prev = dict.fromkeys(KERNELS, 0)
            if recorder is not None:
                recorder.engines.clear()
                replay_prev = None
        if recorder is not None:
            recorder.request = index
            recorder.install()
        t0 = time.perf_counter()
        if cold:
            solver = DESBiCGStab(op, options=options)
        result = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.uninstall()
        calib_before, calib = calib, calibrate()
        seq_s += wall
        if not cold:
            warm_s += wall
            warm_n += 1
        now = _cycles(result.info["report"])
        cycles = {k: now[k] - prev[k] for k in KERNELS}
        prev = now
        entry = expected[index] if expected is not None and index < len(expected) else None
        rec = {
            "index": index, "op": op_index, "cold": cold, "traced": recorder is not None,
            "wall_s": wall, "calib_s": (calib_before + calib) / 2,
            "iterations": result.iterations,
            "cycles": cycles, "digest": digest(result.x),
            **check_request(op, b, result, cycles, csr, entry),
        }
        if recorder is not None:
            counters = recorder.replay_counters()
            base = replay_prev or dict.fromkeys(counters, 0)
            rec["replay"] = {k: counters[k] - base[k] for k in counters}
            rec["replay"]["schedule_nodes"] = counters["schedule_nodes"]
            replay_prev = counters
            rec["layers"] = recorder.summary(index)
        out.append(rec)
        index += 1
    if solver is not None:
        solver.close()
    return out, recorder


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="write the traced run's spans here")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    committed = load_expected()
    expected = (committed["workloads"].get(workload.name)
                if args.seed == committed["seed"] else None)
    requests, recorder = run_client(workload, args.seed, args.seconds,
                                    bool(args.trace), expected)
    report = {
        "requests": requests,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unmeasured": recorder.unmeasured if recorder is not None else {},
    }
    if recorder is not None and args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump(recorder.dump(), fh)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
