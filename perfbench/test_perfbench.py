"""Tests of the benchmark's own checker and span recorder.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import run
from check import check_request, digest
from spans import TARGETS, SpanRecorder
from worker import KERNELS, run_client
from workloads import Workload

TINY = Workload("tiny", "replay", (4, 4, 2), None, (100.0, 100.0), "test")


@pytest.fixture(scope="module")
def tiny_run():
    """Two traced requests (one cold, one warm) on a 4x4x2 replay solve."""
    requests, recorder = run_client(TINY, seed=5, seconds=0.0, trace=True, max_requests=2)
    return requests, recorder


def _solved():
    from repro.api import RunOptions
    from repro.kernels.bicgstab_des import DESBiCGStab
    from workloads import request

    _, op, b = request(TINY, 5, 0)
    res = DESBiCGStab(op, options=RunOptions(engine="active")).solve(b, rtol=5e-3)
    report = res.info["report"]
    cycles = {k: getattr(report, f"{k}_cycles") for k in KERNELS}
    return op, b, res, cycles


def test_clean_request_passes_committed_values():
    op, b, res, cycles = _solved()
    checked = check_request(op, b, res, cycles,
                            expected_entry={"digest": digest(res.x), "cycles": cycles})
    assert checked["failures"] == []
    assert checked["functional_s"] > 0


def test_corrupted_x_fails():
    op, b, res, cycles = _solved()
    bad = copy.copy(res)
    bad.x = res.x.copy()
    bad.x.flat[0] += 0.5 * np.max(np.abs(res.x))
    failures = check_request(op, b, bad, cycles,
                             expected_entry={"digest": digest(res.x), "cycles": cycles})["failures"]
    assert any("true residual" in f for f in failures)
    assert any("WaferBiCGStab" in f for f in failures)
    assert any("digest" in f for f in failures)


def test_wrong_committed_cycles_fail():
    op, b, res, cycles = _solved()
    wrong = dict(cycles, spmv=cycles["spmv"] + 1)
    failures = check_request(op, b, res, cycles,
                             expected_entry={"digest": digest(res.x), "cycles": wrong})["failures"]
    assert len(failures) == 1 and "kernel cycles" in failures[0]


def test_clients_that_disagree_fail(tiny_run):
    requests, _ = tiny_run
    a = copy.deepcopy(requests)
    b = copy.deepcopy(requests)
    b[1]["cycles"]["allreduce"] += 1
    attempted, failed = run._failures([{"requests": a}, {"requests": b}])
    assert (attempted, failed) == (4, 2)


def test_traced_run_attributes_every_replay_layer(tiny_run):
    requests, recorder = tiny_run
    assert recorder.unmeasured == {}
    assert [r["cold"] for r in requests] == [True, False]
    cold, warm = (r["layers"] for r in requests)
    for name in ("spmv3d.build", "spmv3d.engine_init", "allreduce.engine_init",
                 "analyze.contract", "analyze.proof", "analyze.proof_passes",
                 "analyze.fingerprint", "replay.record", "replay.compile", "fabric.run"):
        assert cold["calls"].get(name, 0) > 0, name
    assert warm["kernel_calls"] == warm["kernel_replays"] > 0
    assert "fabric.run" not in warm["calls"]
    # Self times and the uncovered rest tile each request's wall time.
    for r in requests:
        assert sum(r["layers"]["self_s"].values()) == pytest.approx(r["layers"]["covered_s"])
        assert r["layers"]["covered_s"] <= r["wall_s"]
    assert requests[0]["replay"]["records"] == 2
    assert requests[1]["replay"]["replays"] == warm["kernel_replays"]


def test_proof_passes_nest_under_proof(tiny_run):
    _, recorder = tiny_run
    spans = recorder.dump()
    for s in spans:
        if s["name"] in ("analyze.proof_passes", "analyze.fingerprint"):
            assert spans[s["parent"]]["name"] == "analyze.proof"


def test_missing_target_is_unmeasured_not_fatal():
    import repro.kernels.spmv3d as spmv3d

    original = spmv3d.build_spmv_fabric
    rec = SpanRecorder(TARGETS + (("ghost", "repro.kernels.spmv3d", "no_such_function", "call"),))
    rec.install()
    try:
        assert spmv3d.build_spmv_fabric is not original
        assert "ghost" in rec.unmeasured
    finally:
        rec.uninstall()
    assert spmv3d.build_spmv_fabric is original
