# Development entry points.  All targets work from a clean checkout with
# only the Python standard library + pytest; `lint` is skipped gracefully
# when ruff is not installed.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test test-fast test-faults test-integrity test-telemetry test-shard test-perfbench bench bench-perf lint lint-determinism report trace slo check

test:  ## tier-1 suite (must stay green)
	$(PYTHON) -m pytest -x -q

test-fast:  ## tier-1 suite minus the slow scenario worlds
	$(PYTHON) -m pytest -x -q -m "not slow"

test-faults:  ## fault-injection + resilience suite only
	$(PYTHON) -m pytest -x -q tests/netsim/test_faults.py tests/core/test_resilience.py tests/services/test_firehose_retention.py

test-integrity:  ## Byzantine-data hardening + checkpoint/resume suite only
	$(PYTHON) -m pytest -x -q tests/atproto/test_car_fuzz.py tests/atproto/test_crypto.py tests/core/test_integrity.py tests/core/test_checkpoint_resume.py

test-telemetry:  ## metrics registry + tracer + telemetry determinism suite only
	$(PYTHON) -m pytest -x -q tests/obs tests/core/test_telemetry.py

test-shard:  ## logical-shard suite (seed streams, merge rule, pinned study fingerprint)
	$(PYTHON) -m pytest -x -q tests/simulation/test_sharding.py

test-perfbench:  ## the benchmark's own tests (every traced entry point still resolves)
	$(PYTHON) -m pytest perfbench/tests -q

bench:  ## run the perf harness, write + guard BENCH_perf.json
	$(PYTHON) -m repro bench
	$(PYTHON) scripts/check_bench.py BENCH_perf.json

bench-perf:  ## perf benchmarks via pytest-benchmark (also writes BENCH_perf.json)
	$(PYTHON) -m pytest benchmarks/test_perf_pipeline.py --benchmark-only -q

lint-determinism:  ## determinism & shard-safety static analyzer (stdlib-only; fails on any unsuppressed finding)
	$(PYTHON) -m repro lint src tests benchmarks scripts examples --json-out lint-determinism.json

lint:  ## ruff, when available (not part of the baked toolchain)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

report:  ## full study at default scale, all tables and figures
	$(PYTHON) -m repro

trace:  ## small traced study; validate the trace + metrics + event-log artefacts
	$(PYTHON) -m repro telemetry --scale 60000 --feed-scale 1200 --quiet \
		--fault-seed 7 --trace-out trace.json --metrics-out metrics.json \
		--events-out events.jsonl
	$(PYTHON) scripts/check_trace.py trace.json metrics.json events.jsonl

slo:  ## small study; validate the slo.json + metrics.prom SLO artefacts
	$(PYTHON) -m repro telemetry --scale 60000 --feed-scale 1200 --quiet \
		--fault-seed 7 --metrics-out metrics.json --slo-out slo.json \
		--events-out events.jsonl
	$(PYTHON) scripts/check_slo.py slo.json metrics.prom

check: test test-faults test-integrity test-telemetry test-shard test-perfbench slo lint lint-determinism  ## what CI would run
