# Development entry points.  All targets work from a clean checkout with
# only the Python standard library + pytest; `lint` is skipped gracefully
# when ruff is not installed.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test test-fast test-faults test-integrity test-writepath test-readpath test-appview test-telemetry test-shard test-perfbench test-ablation bench lint lint-determinism report trace usage-map check

test:  ## tier-1 suite (must stay green)
	$(PYTHON) -m pytest -x -q

test-fast:  ## tier-1 suite minus the slow scenario worlds
	$(PYTHON) -m pytest -x -q -m "not slow"

test-faults:  ## fault-injection + resilience suite only
	$(PYTHON) -m pytest -x -q tests/netsim/test_faults.py tests/core/test_resilience.py tests/services/test_firehose_retention.py

test-integrity:  ## Byzantine-data hardening (CBOR/CAR parse boundary) + checkpoint/resume suite only
	$(PYTHON) -m pytest -x -q tests/atproto/test_cbor.py tests/atproto/test_cbor_differential.py tests/atproto/test_car_fuzz.py tests/atproto/test_crypto.py tests/core/test_integrity.py tests/core/test_checkpoint_resume.py tests/test_equivalence.py::test_crash_resume

test-writepath:  ## record write path: lexicon, TID, base32, frames, CBOR, commits, oracle differentials, refused PDS writes
	$(PYTHON) -m pytest -x -q tests/atproto/test_lexicon.py tests/atproto/test_tid.py tests/atproto/test_multibase.py tests/atproto/test_frames.py tests/atproto/test_cbor.py tests/atproto/test_repo_car.py tests/atproto/test_writepath_differential.py tests/services/test_pds_relay.py

test-readpath:  ## repo read path: CAR parse and fuzz, CBOR decode vs oracle, MST node reader, one-pass import vs oracle, quarantine
	$(PYTHON) -m pytest -x -q tests/atproto/test_car_fuzz.py tests/atproto/test_cbor.py tests/atproto/test_cbor_differential.py tests/atproto/test_mst.py tests/atproto/test_repo_car.py tests/atproto/test_import_differential.py tests/core/test_integrity.py

test-appview:  ## AppView reads: timeline index cut, page hydration, feed refill, search, vs the reference reads
	$(PYTHON) -m pytest -x -q tests/services/test_read_path.py tests/services/test_timeline.py tests/services/test_feed_pagination.py tests/services/test_feedgen.py tests/services/test_search_lists.py

test-telemetry:  ## metrics registry + tracer + telemetry suite, and the equivalence matrix
	$(PYTHON) -m pytest -x -q tests/obs tests/core/test_telemetry.py tests/test_equivalence.py

test-shard:  ## logical-shard suite (seed streams, merge rule, pinned study fingerprint)
	$(PYTHON) -m pytest -x -q tests/simulation/test_sharding.py

test-perfbench:  ## the benchmark's own tests (every traced entry point still resolves)
	$(PYTHON) -m pytest perfbench/tests -q

test-ablation:  ## protocol ablation suite (codec, CAR, MST, signing paths), timings off
	$(PYTHON) -m pytest -q benchmarks/test_ablation_protocol.py --benchmark-disable

bench:  ## run the perf harness, write + guard BENCH_perf.json
	$(PYTHON) -m benchmarks.perf
	$(PYTHON) scripts/check_bench.py BENCH_perf.json

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

trace:  ## small traced study; validate the trace, metrics, event-log and OpenMetrics artefacts
	$(PYTHON) -m repro telemetry --scale 60000 --feed-scale 1200 --quiet \
		--fault-seed 7 --trace-out trace.json --metrics-out metrics.json \
		--events-out events.jsonl
	$(PYTHON) scripts/check_trace.py trace.json metrics.json events.jsonl metrics.prom

usage-map:  ## list the src/repro functions no entry point calls (~12 min; not part of check)
	$(PYTHON) scripts/usage_map.py

# `test` already covers tests/, so the focused suites above (faults,
# integrity, writepath, telemetry, shard) are for local use and are not
# re-run here.
check: lint-determinism test test-perfbench test-ablation trace lint  ## what CI runs, each check once
