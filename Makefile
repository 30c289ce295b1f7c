# Convenience targets for the repro library.

.PHONY: install test lint verify-contracts certify-numerics sanitize check trace profile bench bench-smoke bench-compare bench-verbose examples report all clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

# Static checks: the wafer-program analyzer over every shipped kernel,
# byte-compilation of the whole source tree, and (when installed) pyflakes.
lint:
	PYTHONPATH=src python -m repro lint
	python -m compileall -q src
	@python -c "import pyflakes" 2>/dev/null \
		&& python -m pyflakes src \
		|| echo "pyflakes not installed; skipped"

# Dynamic verification: run every shipped program under the DES engine
# and hold the observed per-router word counts (exactly) and cycle
# counts (>= the static lower bound) to each program's StaticContract.
verify-contracts:
	PYTHONPATH=src python -m repro verify-contracts

# Numerics certification: the static mixed-precision error bounds of
# every shipped program held against an fp64 shadow execution on the
# engine — observed error <= certified bound <= declared tolerance,
# and the unscaled mfix-like variant rejected with a confirmed witness.
certify-numerics:
	PYTHONPATH=src python -m repro certify-numerics

# Race-sanitized runs: every shipped program twice (plain vs sanitizer
# attached), checked race-free and bit-identical at the byte level.
sanitize:
	PYTHONPATH=src python -m repro sanitize

# The pre-PR gate: static analysis, contract verification against the
# engine, numerics certification, race-sanitized runs, then the tier-1
# test suite.  Run before every PR.
check: lint verify-contracts certify-numerics sanitize
	PYTHONPATH=src python -m pytest -x -q

# Observed DES solve: per-phase cycle table + iteration telemetry on
# stdout, Chrome-trace JSON (open in chrome://tracing / ui.perfetto.dev)
# and per-tile utilization heatmaps on disk.  See docs/observability.md.
trace:
	PYTHONPATH=src python -m repro trace

# Profiled DES solve: causal critical-path profile — top bottleneck
# (phase, tile, wait reason), per-phase slack vs the static contracts,
# speedscope flamegraph (profile_flame.txt) and a Chrome trace with
# critical-path tracks (profile_trace.json).  See docs/observability.md.
profile:
	PYTHONPATH=src python -m repro profile

# Engine regression smoke: active-set vs pre-PR stepping on a small
# BiCGStab DES workload; writes BENCH_des.json (cycles/sec, words/sec,
# fabric size) and fails on any engine-equivalence mismatch.  Drop
# --quick for the full 48x48 headline measurement.  The second step
# measures the observability layer's overhead (tracer off vs on) into
# BENCH_obs.json and fails if the detached hot path regresses >5%.  The
# third step times every static-analysis pass (BENCH_analyze.json).
# The fourth compares the trace-compiled replay engine against the
# live engines (BENCH_replay.json) and fails on any three-way
# equivalence mismatch.  The fifth measures the cycle profiler's
# attached overhead (BENCH_profile.json, <25% gate + conservation).
# The sixth times the numerics pass (abstract interpretation + contract
# synthesis) on a 48x48 2D-mapped program and a 512-tile 3D program
# (BENCH_numerics.json).  Finally every BENCH_*.json gets a one-line summary appended to the
# BENCH_history.jsonl ledger (see `make bench-compare`).
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_des_engine.py --quick
	PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick
	PYTHONPATH=src python benchmarks/bench_analyze.py --quick
	PYTHONPATH=src python benchmarks/bench_replay.py --quick
	PYTHONPATH=src python benchmarks/bench_profile.py --quick
	PYTHONPATH=src python benchmarks/bench_numerics.py --quick
	PYTHONPATH=src python -m repro bench-history

# Regression gate: hold the current BENCH_*.json files against the
# committed BENCH_history.jsonl ledger; fails on a >10% same-host
# cycles/sec drop (cross-host comparisons warn but never fail).
bench-compare:
	PYTHONPATH=src python -m repro bench-compare

bench:
	pytest benchmarks/ --benchmark-only -q

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; python $$ex || exit 1; \
	done

report:
	python -m repro write-report

all: test bench

clean:
	rm -rf build dist src/*.egg-info .pytest_benchmark .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
