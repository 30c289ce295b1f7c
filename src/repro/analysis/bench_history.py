"""Benchmark history ledger and regression gate.

Every ``make bench-smoke`` produces a set of ``BENCH_*.json`` artifacts
(engine throughput, observability overhead, analyzer cost, replay
speedup, profiler overhead).  Those files are overwritten in place, so
by themselves they answer "how fast is it now?" but never "is it slower
than last week?".  This module adds both halves:

* :func:`summarize` distills one ``BENCH_*.json`` into a one-line
  record — benchmark name, workload mesh, host, timestamp, and the
  headline figure of merit (``cycles_per_second`` for engine-style
  benchmarks, wall ``seconds`` for the analyzer-cost one);
* :func:`append_history` appends those records to ``BENCH_history.jsonl``
  (one JSON object per line, append-only — the committed ledger);
* :func:`compare` holds the current ``BENCH_*.json`` files against the
  ledger: for each benchmark the *baseline* is the earliest matching
  (benchmark, mesh) entry, preferring entries from the same host.  A
  same-host throughput drop beyond the threshold (default 10%) is a
  **regression** (CLI exits 1); cross-host comparisons are advisory
  only — wall-clock throughput is not comparable across machines, so
  they warn, never fail.

CLI: ``python -m repro bench-history`` (append) and ``python -m repro
bench-compare`` (gate); both are wired into ``make bench-smoke`` / CI.
"""

from __future__ import annotations

import argparse
import json
import socket
import time
from pathlib import Path

__all__ = [
    "summarize",
    "append_history",
    "load_history",
    "compare",
    "history_main",
    "compare_main",
]

#: Relative cycles/sec drop versus the baseline that fails the gate.
DEFAULT_THRESHOLD = 0.10

#: benchmark name -> path (list of keys) to its cycles/sec headline.
_CPS_KEYS = {
    "bicgstab_des_engine": ("active", "cycles_per_second"),
    "obs_overhead": ("off", "cycles_per_second"),
    "profile_overhead": ("off", "cycles_per_second"),
    "bicgstab_replay_engine": ("replay", "cycles_per_second"),
}


def summarize(source) -> dict | None:
    """One-line summary record for a ``BENCH_*.json`` file (or dict).

    Returns ``None`` for files this module does not understand (unknown
    ``benchmark`` key) rather than guessing at a figure of merit.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    bench = data.get("benchmark")
    if not bench:
        return None
    record = {
        "benchmark": bench,
        "mesh": data.get("workload", {}).get("mesh"),
        "host": socket.gethostname(),
        "timestamp": round(time.time(), 3),
        "cycles_per_second": None,
        "seconds": None,
    }
    keys = _CPS_KEYS.get(bench)
    if keys is not None:
        node = data
        for k in keys:
            node = node.get(k, {}) if isinstance(node, dict) else {}
        if isinstance(node, (int, float)):
            record["cycles_per_second"] = float(node)
    elif bench == "analyze_cost":
        progs = data.get("programs", [])
        total = sum(p.get("all_passes_seconds", 0.0) for p in progs)
        record["seconds"] = round(total, 4)
        record["mesh"] = [p.get("program") for p in progs]
    elif bench == "numerics_cost":
        progs = data.get("programs", [])
        total = sum(p.get("numerics_seconds", 0.0) for p in progs)
        record["seconds"] = round(total, 4)
        record["mesh"] = [p.get("program") for p in progs]
    else:
        return None
    return record


def append_history(bench_paths, history_path) -> list[dict]:
    """Append one summary line per readable benchmark file; returns the
    appended records."""
    records = []
    for path in bench_paths:
        path = Path(path)
        if not path.exists():
            continue
        try:
            rec = summarize(path)
        except (json.JSONDecodeError, OSError):
            continue
        if rec is not None:
            records.append(rec)
    if records:
        history_path = Path(history_path)
        with history_path.open("a") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def load_history(history_path) -> list[dict]:
    """Parse the JSONL ledger (missing file -> empty history)."""
    history_path = Path(history_path)
    if not history_path.exists():
        return []
    records = []
    for line in history_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a torn line must not wedge the gate
    return records


def _baseline_for(history, rec) -> dict | None:
    """Earliest ledger entry matching (benchmark, mesh), same host
    preferred — cross-host baselines are advisory only."""
    matches = [
        h for h in history
        if h.get("benchmark") == rec["benchmark"]
        and h.get("mesh") == rec["mesh"]
        and h.get("cycles_per_second")
    ]
    if not matches:
        return None
    same_host = [h for h in matches if h.get("host") == rec["host"]]
    pool = same_host or matches
    return min(pool, key=lambda h: h.get("timestamp", 0.0))


def compare(bench_paths, history_path,
            threshold: float = DEFAULT_THRESHOLD) -> tuple[list[str], int]:
    """Hold current benchmark files against the ledger.

    Returns ``(report_lines, n_regressions)``; a regression is a
    same-host ``cycles_per_second`` more than ``threshold`` below its
    baseline.  Benchmarks without a throughput headline or without a
    baseline are reported as informational lines.
    """
    history = load_history(history_path)
    lines = []
    regressions = 0
    for path in bench_paths:
        path = Path(path)
        if not path.exists():
            continue
        try:
            rec = summarize(path)
        except (json.JSONDecodeError, OSError):
            lines.append(f"{path.name}: unreadable; skipped")
            continue
        if rec is None:
            lines.append(f"{path.name}: no known figure of merit; skipped")
            continue
        cps = rec["cycles_per_second"]
        if cps is None:
            lines.append(
                f"{rec['benchmark']}: {rec['seconds']}s (no throughput "
                "headline; not gated)")
            continue
        base = _baseline_for(history, rec)
        if base is None:
            lines.append(
                f"{rec['benchmark']} (mesh {rec['mesh']}): "
                f"{cps:.1f} cycles/s — no baseline in ledger")
            continue
        base_cps = base["cycles_per_second"]
        change = cps / base_cps - 1.0
        cross_host = base.get("host") != rec["host"]
        tag = f"{rec['benchmark']} (mesh {rec['mesh']})"
        if cross_host:
            lines.append(
                f"{tag}: {cps:.1f} vs {base_cps:.1f} cycles/s baseline "
                f"({change:+.1%}) — baseline from host "
                f"{base.get('host')!r}, advisory only")
            continue
        if change < -threshold:
            regressions += 1
            lines.append(
                f"{tag}: REGRESSION {cps:.1f} vs {base_cps:.1f} cycles/s "
                f"baseline ({change:+.1%}, gate -{threshold:.0%})")
        else:
            lines.append(
                f"{tag}: {cps:.1f} vs {base_cps:.1f} cycles/s baseline "
                f"({change:+.1%}) OK")
    return lines, regressions


def _default_bench_paths(root: Path) -> list[Path]:
    return sorted(
        p for p in root.glob("BENCH_*.json") if p.name != "BENCH_history.jsonl"
    )


def history_main(argv: list[str] | None = None) -> int:
    """CLI entry: append current BENCH_*.json summaries to the ledger."""
    ap = argparse.ArgumentParser(
        prog="repro bench-history",
        description="Append one-line summaries of BENCH_*.json files to "
                    "the append-only BENCH_history.jsonl ledger.",
    )
    ap.add_argument("bench", nargs="*",
                    help="benchmark JSON files (default: ./BENCH_*.json)")
    ap.add_argument("--history", default="BENCH_history.jsonl",
                    help="ledger path (default: BENCH_history.jsonl)")
    args = ap.parse_args(argv)
    paths = [Path(p) for p in args.bench] or _default_bench_paths(Path("."))
    records = append_history(paths, args.history)
    for rec in records:
        fom = (f"{rec['cycles_per_second']:.1f} cycles/s"
               if rec["cycles_per_second"] is not None
               else f"{rec['seconds']}s")
        print(f"appended {rec['benchmark']}: {fom}")
    if not records:
        print("no readable benchmark files found; ledger unchanged")
    return 0


def compare_main(argv: list[str] | None = None) -> int:
    """CLI entry: gate current benchmarks against the ledger (exit 1 on
    a >threshold same-host throughput regression)."""
    ap = argparse.ArgumentParser(
        prog="repro bench-compare",
        description="Compare current BENCH_*.json files against the "
                    "BENCH_history.jsonl ledger; exit 1 on a same-host "
                    "throughput regression beyond the threshold.",
    )
    ap.add_argument("bench", nargs="*",
                    help="benchmark JSON files (default: ./BENCH_*.json)")
    ap.add_argument("--history", default="BENCH_history.jsonl",
                    help="ledger path (default: BENCH_history.jsonl)")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="tolerated fractional drop (default: 0.10)")
    args = ap.parse_args(argv)
    paths = [Path(p) for p in args.bench] or _default_bench_paths(Path("."))
    lines, regressions = compare(paths, args.history, args.threshold)
    for line in lines:
        print(line)
    if regressions:
        print(f"BENCH COMPARE FAILED ({regressions} regression(s))")
        return 1
    print("BENCH COMPARE OK")
    return 0
