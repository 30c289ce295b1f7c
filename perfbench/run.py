"""End-to-end benchmark of DES BiCGStab time-to-result.

Run from the repository root::

    python3 perfbench/run.py --workload replay-48x48x2 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Each run starts :data:`CLIENTS` fresh worker processes one after the
other (so every ``setup_s`` sample is a true cold start), each running
the workload's closed loop for ``seconds / CLIENTS`` seconds on the
same seeded requests.  The launcher pins BLAS to one thread, pools the
requests, checks that the clients agree bit for bit, prints every
metric by name and unit, and prints one JSON result as its last line.
Times are host-speed normalized (see ``calibrate.py``).
``--trace 1`` instead reports the per-layer metrics of ``README.md``:
the even-numbered clients run under the outside-in span recorder and
the odd-numbered ones without it, which gives the tracing overhead.
The exit code is non-zero, with no result printed, when the program
under test cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes per run; setup_s is the median of their cold starts.
CLIENTS = 3
#: Wall-clock budget for one run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: Output directory for span dumps, relative to the working directory.
OUT_DIR = Path(".perfbench_out")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Span names reported in the layer-share table, in blocking order.
SHARE_ROWS = (
    "bicgstab_des.solve", "spmv3d.engine_init", "spmv3d.build", "spmv3d.run",
    "allreduce.engine_init", "allreduce.reduce", "analyze.contract",
    "analyze.proof", "analyze.proof_passes", "analyze.fingerprint",
    "replay.record", "replay.compile", "replay.execute", "fabric.run",
    "fabric.skip",
)


class BenchmarkError(RuntimeError):
    """The program under test could not be run."""


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def run_clients(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run the clients one after another; returns their worker reports."""
    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {src}; run from the repository root")
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    reports = []
    for k in range(CLIENTS):
        traced = trace and k % 2 == 0
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds / CLIENTS),
               "--trace", str(int(traced))]
        if traced:
            cmd += ["--spans-out", str(OUT_DIR / f"spans-{workload}-seed{seed}-client{k}.json")]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("run budget exhausted before every client ran")
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"client {k} exceeded the run budget") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"client {k} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchmarkError(f"client {k} printed no report")
        reports.append(json.loads(lines[-1]))
    return reports


def _failures(reports: list[dict]) -> tuple[int, int]:
    """Count attempted and failed requests; clients that disagree on a
    request's ``x`` digest or cycles fail that request on every client."""
    keys: dict[int, set] = {}
    for rep in reports:
        for r in rep["requests"]:
            key = (r["digest"], json.dumps(r["cycles"], sort_keys=True), r["iterations"])
            keys.setdefault(r["index"], set()).add(key)
    for rep in reports:
        for r in rep["requests"]:
            if len(keys[r["index"]]) > 1:
                r["failures"].append("clients disagree on x digest, cycles or iterations")
    reqs = [r for rep in reports for r in rep["requests"]]
    return len(reqs), sum(1 for r in reqs if r["failures"])


def _norm_s(r: dict) -> float:
    """A request's wall time scaled to the reference host speed."""
    return r["wall_s"] * REFERENCE_S / r["calib_s"]


def end_to_end(reports: list[dict], attempted: int, failed: int) -> dict:
    """The end-to-end metrics as ``{name: (value, unit)}``.

    Every time is host-speed normalized (:mod:`calibrate`): the request's
    wall time times ``REFERENCE_S`` over the calibration time measured
    around it.
    """
    reqs = [r for rep in reports for r in rep["requests"]]
    first = [rep["requests"][0] for rep in reports]
    warm = [r for r in reqs if not r["cold"]]
    return {
        "setup_s": (_median(_norm_s(r) for r in first), "s"),
        "solve_s": (_median(_norm_s(r) for r in warm), "s"),
        "solves_per_s": (len(reqs) / sum(_norm_s(r) for r in reqs), "1/s"),
        "sim_cycles_per_s": (sum(sum(r["cycles"].values()) for r in warm)
                             / sum(_norm_s(r) for r in warm), "cycles/s"),
        "sim_cycles_per_iter": (_median(sum(r["cycles"].values()) / max(r["iterations"], 1)
                                        for r in reqs), "cycles"),
        "peak_rss_mb": (_median(rep["rss_mb"] for rep in reports), "MB"),
        "correct_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(reports: list[dict]) -> tuple[dict, dict]:
    """The traced run's per-layer metrics and the unmeasured reasons."""
    reqs = [r for rep in reports for r in rep["requests"]]
    traced = [r for r in reqs if r["traced"]]
    cold = [r for r in traced if r["cold"]]
    tw = [r for r in traced if not r["cold"]]
    uw = [r for r in reqs if not r["cold"] and not r["traced"]]

    def incl(rs, name):
        return _median(r["layers"]["incl_s"].get(name, 0.0) for r in rs)

    def calls(rs, name):
        return _median(r["layers"]["calls"].get(name, 0) for r in rs)

    def counter(rs, key):
        return sum(r["layers"]["counters"].get("fabric.run", {}).get(key, 0) for r in rs)

    def fabric_per_request(r, key):
        c = r["layers"]["counters"]
        return sum(c.get(n, {}).get(key, 0) for n in ("fabric.run", "fabric.skip"))

    stepped_all = counter(traced, "cycles") - counter(traced, "skipped")
    run_s_all = sum(r["layers"]["incl_s"].get("fabric.run", 0.0) for r in traced)
    solve_untraced = _median(r["wall_s"] for r in uw)
    functional = _median(r["functional_s"] for r in reqs)
    wall_traced = sum(r["wall_s"] for r in traced)
    kernel_calls = sum(r["layers"]["kernel_calls"] for r in traced)
    m = {
        "spmv3d.build_s": (incl(cold, "spmv3d.build"), "s"),
        "spmv3d.engine_init_s": (incl(cold, "spmv3d.engine_init"), "s"),
        "spmv3d.run_s": (incl(tw, "spmv3d.run"), "s"),
        "spmv3d.run_calls": (calls(tw, "spmv3d.run"), "count"),
        "spmv3d.sim_cycles": (_median(r["cycles"]["spmv"] for r in tw), "cycles"),
        "allreduce.engine_init_s": (incl(cold, "allreduce.engine_init"), "s"),
        "allreduce.reduce_s": (incl(tw, "allreduce.reduce"), "s"),
        "allreduce.reduce_calls": (calls(tw, "allreduce.reduce"), "count"),
        "allreduce.sim_cycles": (_median(r["cycles"]["allreduce"] for r in tw), "cycles"),
        "analyze.contract_s": (incl(cold, "analyze.contract"), "s"),
        "analyze.proof_s": (incl(cold, "analyze.proof"), "s"),
        "analyze.proof_passes_s": (incl(cold, "analyze.proof_passes"), "s"),
        "analyze.fingerprint_s": (incl(cold, "analyze.fingerprint"), "s"),
        "replay.record_s": (incl(cold, "replay.record"), "s"),
        "replay.compile_s": (incl(cold, "replay.compile"), "s"),
        "replay.execute_s": (incl(tw, "replay.execute"), "s"),
        "replay.records": (_median(r["replay"]["records"] for r in cold), "count"),
        "replay.replays": (_median(r["replay"]["replays"] for r in tw), "count"),
        "replay.fallbacks": (sum(r["replay"]["fallbacks"] for r in traced), "count"),
        "replay.invalidations": (sum(r["replay"]["invalidations"] for r in traced), "count"),
        "replay.schedule_nodes": (_median(r["replay"]["schedule_nodes"] for r in cold), "count"),
        "replay.hit_ratio": (sum(r["layers"]["kernel_replays"] for r in traced)
                             / max(kernel_calls, 1), "ratio"),
        "fabric.run_s": (incl(tw, "fabric.run"), "s"),
        "fabric.run_calls": (calls(tw, "fabric.run"), "count"),
        "fabric.skip_s": (incl(tw, "fabric.skip"), "s"),
        "fabric.stepped_cycles": (_median(fabric_per_request(r, "cycles")
                                          - fabric_per_request(r, "skipped") for r in tw), "cycles"),
        "fabric.skipped_cycles": (_median(fabric_per_request(r, "skipped") for r in tw), "cycles"),
        "fabric.words_moved": (_median(fabric_per_request(r, "words") for r in tw), "words"),
        "fabric.mean_active_routers": (counter(traced, "router_visits") / max(stepped_all, 1), "routers"),
        "fabric.mean_active_cores": (counter(traced, "core_visits") / max(stepped_all, 1), "cores"),
        "fabric.step_rate": (stepped_all / run_s_all if run_s_all else 0.0, "cycles/s"),
        "bicgstab_des.solve_self_s": (_median(r["layers"]["self_s"].get("bicgstab_des.solve", 0.0)
                                              for r in tw), "s"),
        "bicgstab_des.iterations": (_median(r["iterations"] for r in traced), "count"),
        "solver.functional_solve_s": (functional, "s"),
        "solver.des_overhead_x": (solve_untraced / functional if functional else 0.0, "x"),
        "trace.overhead_frac": (_median(_norm_s(r) for r in tw)
                                / _median(_norm_s(r) for r in uw) - 1.0 if uw else 0.0, "ratio"),
        "trace.unattributed_frac": ((wall_traced - sum(r["layers"]["covered_s"] for r in traced))
                                    / wall_traced, "ratio"),
    }
    for phase, rs in (("setup", cold), ("solve", tw)):
        wall = sum(r["wall_s"] for r in rs)
        other = wall
        for row in SHARE_ROWS:
            self_s = sum(r["layers"]["self_s"].get(row, 0.0) for r in rs)
            other -= self_s
            m[f"share_{phase}.{row}"] = (self_s / wall, "ratio")
        m[f"share_{phase}.other"] = (other / wall, "ratio")
    unmeasured = {}
    for rep in reports:
        unmeasured.update(rep["unmeasured"])
    return m, unmeasured


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and print its table; returns the result object."""
    reports = run_clients(workload, seed, seconds, trace)
    attempted, failed = _failures(reports)
    if trace:
        metrics, unmeasured = per_layer(reports)
    else:
        metrics, unmeasured = end_to_end(reports, attempted, failed), {}
    reqs = [r for rep in reports for r in rep["requests"]]
    cold_s = " ".join(f"{r['wall_s']:.3f}" for r in reqs if r["cold"])
    warm_s = _median(r["wall_s"] for r in reqs if not r["cold"])
    speed = " ".join(f"{_median(REFERENCE_S / r['calib_s'] for r in rep['requests']):.3f}"
                     for rep in reports)
    print(f"# {workload}  seed={seed}  clients={CLIENTS}  requests={attempted}  "
          f"warm={sum(not r['cold'] for r in reqs)}  failed={failed}  trace={int(trace)}")
    print(f"# unnormalized: cold_s=[{cold_s}]  median warm_s={warm_s:.4f}  "
          f"host speed per client=[{speed}]  "
          f"max_true_residual={max(r['true_residual'] for r in reqs):.3g}  "
          f"max_x_rel_diff={max(r['x_rel_diff'] for r in reqs):.3g}")
    for name, (value, unit) in metrics.items():
        if not name.startswith("share_"):
            print(f"{name:34s} {value:14.6g} {unit}")
    if trace:
        print(f"{'self time share by layer':34s} {'of setup_s':>10s} {'of solve_s':>10s}")
        for row in SHARE_ROWS + ("other",):
            setup, solve = (metrics[f"share_{p}.{row}"][0] for p in ("setup", "solve"))
            print(f"{row:34s} {setup:10.1%} {solve:10.1%}")
    for name, reason in sorted(unmeasured.items()):
        print(f"unmeasured {name}: {reason}")
    for r in reqs:
        for why in r["failures"]:
            print(f"FAILED request {r['index']}: {why}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="DES BiCGStab time-to-result benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
