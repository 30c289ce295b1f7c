"""Regenerate ``expected.json``: the committed ``x`` digests and
per-kernel simulated cycles of the first requests of every workload on
the default seed.  Run from the repository root after a change that is
meant to alter the simulated design or its numerics::

    PYTHONPATH=src python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json

from check import EXPECTED_PATH
from worker import run_client
from workloads import WORKLOADS

SEED = 0
#: Requests recorded per workload: more than one client issues in a run.
REQUESTS = {"replay-48x48x2": 40, "live-12x12x32": 8, "replay-simple-32x32x4": 9}


def main() -> None:
    out = {"seed": SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        requests, _ = run_client(workload, SEED, 0.0, False, None, REQUESTS[name])
        bad = [r for r in requests if r["failures"]]
        if bad:
            raise SystemExit(f"{name}: request {bad[0]['index']} failed: {bad[0]['failures']}")
        out["workloads"][name] = [{"digest": r["digest"], "cycles": r["cycles"]} for r in requests]
        print(name, len(requests), "requests")
    EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
