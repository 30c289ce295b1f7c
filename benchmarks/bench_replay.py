"""Replay engine benchmark: trace-compiled replay vs live stepping.

Measures cycles simulated per wall-clock second on the ``bench_des``
workload (a full mixed-precision BiCGStab solve with every SpMV and
AllReduce executed on the word-level fabric simulator, mesh 48 x 48 x 2)
for three engines and writes the results to ``BENCH_replay.json``:

``reference`` — the naive full-fabric sweep (every tile, every cycle).

``active`` — the event-driven active-set engine (persistent fabrics,
    dirty sets, fused stepping, O(1) cycle skipping).

``replay`` — the trace-compiled engine from ``repro.wse.replay``: the
    first execution runs on the live active engine with a recorder
    attached, capturing the complete event schedule as an SSA value
    graph; every later execution replays that schedule as a few hundred
    batched NumPy array ops without stepping the simulator at all.

Each engine gets one warm-up solve (for replay this is where the
recording happens) and one measured solve; the headline
``speedup_cycles_per_second`` is the steady-state ratio between replay
and active.  The equivalence block asserts, across all three engines:
bit-identical solution vectors, identical residual histories, identical
per-kernel cycle counts, and identical per-link word counts on every
router of both fabrics, identical per-tile state after the measured
solve (core element/active-cycle counters, FIFO push totals and
high-water marks, completion flags, every ReduceCore's ``acc`` and
``result``), and identical ``FabricStats`` between active and replay.
Any mismatch exits non-zero.  Each replay session also reports the mean
host milliseconds of one replayed call in the measured solve.

Run directly (``python benchmarks/bench_replay.py``) or via
``make bench-smoke``; ``--quick`` shrinks the mesh for CI smoke runs
(the 10x headline is only expected at full size, where the schedule is
large enough to amortize the recording).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.problems import momentum_system
from repro.wse.allreduce import ReduceCore

SHAPE = (48, 48, 2)
QUICK_SHAPE = (6, 6, 8)
RTOL = 5e-3
MAXITER = 25


def _link_words(solver: DESBiCGStab) -> dict:
    """Per-router words_moved for every link of both persistent fabrics."""
    out = {}
    for label, eng in (("spmv", solver._spmv_eng),
                       ("allreduce", solver._ar_eng)):
        if eng is None:
            continue
        fabric = eng.fabric
        out[label] = {
            f"{x},{y}": fabric.router(x, y).words_moved
            for y in range(fabric.height)
            for x in range(fabric.width)
        }
    return out


def _tile_state(solver: DESBiCGStab) -> dict:
    """Every per-tile counter, flag and object attribute a replay writes,
    on both persistent fabrics: core ``elements_processed`` /
    ``cycles_active``, FIFO ``total_pushed`` / ``high_water``,
    ``core.flags``, and each ReduceCore's ``acc`` / ``result`` bits."""
    out = {}
    for label, eng in (("spmv", solver._spmv_eng),
                       ("allreduce", solver._ar_eng)):
        if eng is None:
            continue
        fabric = eng.fabric
        tiles = {}
        for y in range(fabric.height):
            for x in range(fabric.width):
                core = fabric.core(x, y)
                if isinstance(core, ReduceCore):
                    tiles[f"{x},{y}"] = (
                        core.acc.tobytes(),
                        None if core.result is None else core.result.tobytes())
                elif core is not None:
                    tiles[f"{x},{y}"] = (
                        core.elements_processed, core.cycles_active,
                        dict(core.flags),
                        {name: (f.total_pushed, f.high_water)
                         for name, f in core.fifos.items()})
        out[label] = tiles
    return out


def _fabric_stats(solver: DESBiCGStab) -> dict:
    """``FabricStats`` and ``total_words_moved`` of both fabrics."""
    out = {}
    for label, eng in (("spmv", solver._spmv_eng),
                       ("allreduce", solver._ar_eng)):
        if eng is not None:
            st = eng.fabric.stats
            out[label] = (
                st.cycles, st.skipped_cycles, st.active_router_cycles,
                st.active_core_cycles, st.peak_active_routers,
                st.peak_active_cores, eng.fabric.total_words_moved)
    return out


def _sessions(solver: DESBiCGStab) -> dict:
    return {label: eng.replay
            for label, eng in (("spmv", solver._spmv_eng),
                               ("allreduce", solver._ar_eng))
            if eng is not None and eng.replay is not None}


def _fabric_cycles(solver: DESBiCGStab) -> int:
    total = 0
    for eng in (solver._spmv_eng, solver._ar_eng):
        if eng is not None:
            total += eng.fabric.stats.cycles
    return total


def _kernel_cycles(rep) -> dict:
    return {
        "spmv_cycles": rep.spmv_cycles,
        "allreduce_cycles": rep.allreduce_cycles,
        "axpy_cycles": rep.axpy_cycles,
        "dot_local_cycles": rep.dot_local_cycles,
        "spmv_runs": rep.spmv_runs,
        "allreduce_runs": rep.allreduce_runs,
    }


def run_engine(engine: str, op, b) -> dict:
    """One warm-up solve (engine construction; for replay, recording),
    then one measured steady-state solve."""
    solver = DESBiCGStab(op, persistent=True,
                         options=RunOptions(engine=engine))
    t0 = time.perf_counter()
    res1 = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    setup = time.perf_counter() - t0
    snap = {
        "x": np.asarray(res1.x, dtype=np.float64).copy(),
        "residuals": list(res1.residuals),
        "kernel_cycles": _kernel_cycles(solver.report),
        "link_words": _link_words(solver),
    }
    before = _fabric_cycles(solver)
    replayed = {label: (sess.replays, sess.replay_ns)
                for label, sess in _sessions(solver).items()}
    t0 = time.perf_counter()
    res2 = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    wall = time.perf_counter() - t0
    cycles = _fabric_cycles(solver) - before
    # After the measured solve, which replays every kernel under
    # engine="replay": the state its accounting left behind.
    snap["tile_state"] = _tile_state(solver)
    snap["fabric_stats"] = _fabric_stats(solver)
    stats = {
        "wall_seconds": round(wall, 4),
        "setup_seconds": round(setup, 4),
        "fabric_cycles_simulated": cycles,
        "cycles_per_second": round(cycles / wall, 1),
        "iterations": res2.iterations,
    }
    if engine == "replay":
        sessions = {}
        for label, sess in _sessions(solver).items():
            n0, ns0 = replayed[label]
            n = sess.replays - n0
            sessions[label] = {
                "records": sess.records,
                "replays": sess.replays,
                # Host time of one replayed call in the measured solve.
                "mean_replay_ms": (
                    round((sess.replay_ns - ns0) / n / 1e6, 3)
                    if n else None),
                "fallbacks": sess.fallbacks,
                "invalidations": sess.invalidations,
                "schedule_nodes": (
                    sess.schedule.n_nodes
                    if sess.schedule is not None else 0
                ),
                "schedule_groups": (
                    len(sess.schedule.groups)
                    if sess.schedule is not None else 0
                ),
                "diagnostics": list(sess.diagnostics),
            }
        stats["sessions"] = sessions
        stats["note"] = (
            "first solve records the event schedule on the live active "
            "engine; measured solve replays it as batched NumPy ops"
        )
    return {"stats": stats, "snap": snap}


def _equivalence(snaps: dict) -> dict:
    base = snaps["reference"]
    eq = {}
    for engine in ("active", "replay"):
        s = snaps[engine]
        eq[f"x_identical_{engine}"] = bool(np.array_equal(
            base["x"].view(np.uint64), s["x"].view(np.uint64)))
        eq[f"residuals_identical_{engine}"] = (
            base["residuals"] == s["residuals"])
        eq[f"kernel_cycles_identical_{engine}"] = (
            base["kernel_cycles"] == s["kernel_cycles"])
        eq[f"link_words_identical_{engine}"] = (
            base["link_words"] == s["link_words"])
        eq[f"tile_state_identical_{engine}"] = (
            base["tile_state"] == s["tile_state"])
    # The reference sweep counts every tile each cycle and never skips,
    # so FabricStats compare between the two engines that share the
    # active-set stepper.
    eq["fabric_stats_identical_replay"] = (
        snaps["active"]["fabric_stats"] == snaps["replay"]["fabric_stats"])
    return eq


def run(shape=SHAPE, out_path: str | Path = "BENCH_replay.json") -> dict:
    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    op, b = sys_.operator, sys_.b

    runs, snaps = {}, {}
    for engine in ("reference", "active", "replay"):
        r = run_engine(engine, op, b)
        runs[engine] = r["stats"]
        snaps[engine] = r["snap"]

    equivalence = _equivalence(snaps)
    nx, ny, nz = shape
    result = {
        "benchmark": "bicgstab_replay_engine",
        "workload": {
            "mesh": list(shape),
            "fabric": f"{nx}x{ny} tiles (spmv) + {ny}x{nx} tiles (allreduce)",
            "tiles_per_fabric": nx * ny,
            "rtol": RTOL,
            "maxiter": MAXITER,
            "iterations": runs["active"]["iterations"],
        },
        "reference": runs["reference"],
        "active": runs["active"],
        "replay": runs["replay"],
        "speedup_cycles_per_second": round(
            runs["replay"]["cycles_per_second"]
            / runs["active"]["cycles_per_second"], 2),
        "speedup_vs_reference": round(
            runs["replay"]["cycles_per_second"]
            / runs["reference"]["cycles_per_second"], 2),
        "equivalence": equivalence,
    }
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"small mesh {QUICK_SHAPE} for smoke runs")
    ap.add_argument("--out", default="BENCH_replay.json")
    args = ap.parse_args(argv)
    shape = QUICK_SHAPE if args.quick else SHAPE
    result = run(shape=shape, out_path=args.out)
    print(json.dumps(result, indent=2))
    eq = result["equivalence"]
    if not all(eq.values()):
        print("EQUIVALENCE FAILURE between engines:", eq)
        return 1
    print(
        f"\n{result['workload']['fabric']}: "
        f"{result['replay']['cycles_per_second']:.0f} cycles/s (replay) vs "
        f"{result['active']['cycles_per_second']:.0f} cycles/s (active) = "
        f"{result['speedup_cycles_per_second']:.1f}x "
        f"({result['speedup_vs_reference']:.1f}x vs reference)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
