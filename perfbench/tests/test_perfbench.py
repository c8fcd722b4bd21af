"""Tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

Each workload runs here at a reduced size: one world per workload, one
crawl pass, a few hundred serve requests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, workloads
from perfbench.tracer import SPANS, Tracer, _repro_modules, _resolve, untraced

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SEED = 3

# Which workloads exercise each span, and so which end-to-end figures it
# should move there (README.md carries the same map).  Every workload
# simulates a world, so the ``sim`` spans run on all three.  Only the
# study's firehose collector encodes wire frames: the harness hashes every
# world's frames outside the spans, and serve's writes encode none.
ALL = ("study", "crawl", "serve")
WRITE_PATH = ("study", "serve")
READ_VERIFY = ("study", "crawl")
ARROWS = {
    "sim.population": ALL,
    "sim.begin_day": ALL,
    "sim.generate": ALL,
    "sim.run": ALL,
    "cbor.encode": WRITE_PATH,
    "cid.hash": WRITE_PATH,
    "cid.str": WRITE_PATH,
    "mst.set": WRITE_PATH,
    "mst.delete": ("study",),
    "mst.root_cid": WRITE_PATH,
    "repo.commit": WRITE_PATH,
    "keys.sign": WRITE_PATH,
    "frames.encode": ("study",),
    "cbor.decode": READ_VERIFY,
    "mst.load": READ_VERIFY,
    "repo.export_car": READ_VERIFY,
    "repo.import_car": READ_VERIFY,
    "car.read": READ_VERIFY,
    "car.write": READ_VERIFY,
    "keys.verify": READ_VERIFY,
    "pds.write": WRITE_PATH,
    "relay.publish": WRITE_PATH,
    "appview.ingest": WRITE_PATH,
    "feedgen.route": WRITE_PATH,
    "labeler.emit": ("study",),
    "relay.get_repo": READ_VERIFY,
    "relay.list_repos": READ_VERIFY,
    "appview.get_timeline": ("serve",),
    "appview.get_feed": ("serve", "study"),
    "appview.get_profile": ("serve",),
    "feedgen.skeleton": ("serve", "study"),
    "xrpc.call": ALL,
    "collect.firehose": ("study",),
    "collect.labelers": ("study",),
    "collect.feedgens": ("study",),
    "collect.active": ("study",),
    "collect.repos": READ_VERIFY,
    "collect.identifiers": READ_VERIFY,
    "collect.diddocs": READ_VERIFY,
    "integrity.verify": READ_VERIFY,
    "report.render": ("study",),
}
CACHE_ARROWS = {
    "repo_car": READ_VERIFY,
    "post_view": ("serve", "study"),
    "timeline_index": ("serve",),
    "feed_skeleton": ("serve", "study"),
}


def wrapped_targets() -> list:
    """(target, current function) for every traced entry point."""
    return [(target, _resolve(target)[2]) for targets in SPANS.values() for target in targets]


def leftover_wrappers() -> list:
    """``module.name`` of any tracing shim still bound in a ``repro`` module."""
    found = []
    for module in _repro_modules():
        for key, value in module.__dict__.items():
            if hasattr(value, "__perfbench_original__"):
                found.append("%s.%s" % (module.__name__, key))
            elif isinstance(value, type):
                for attr, member in value.__dict__.items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append("%s.%s.%s" % (module.__name__, key, attr))
    return found


def small_plan(workload, seed, seconds):
    """One small unit per workload, in place of :func:`workloads.plan`."""
    unit_seed = workloads.unit_seeds(seed, 1)[0]
    if workload == "study":
        return [lambda: workloads.study_unit(unit_seed)]
    if workload == "crawl":
        return [lambda: workloads.crawl_unit(unit_seed, 1)]
    return [lambda: workloads.serve_unit(unit_seed, 250)]


ORIGINALS = wrapped_targets()


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload: {workload: (first, second)}."""
    return {
        workload: tuple(
            bench.run_benchmark(workload, SEED, 1, True, SRC, plan=small_plan)
            for _ in range(2)
        )
        for workload in workloads.WORKLOADS
    }


def test_same_seed_same_inputs():
    first = workloads.build_finished_world(SEED)
    second = workloads.build_finished_world(SEED)
    requests, _ = workloads.serve_requests(first.world, SEED, 60)
    assert requests == workloads.serve_requests(second.world, SEED, 60)[0]
    assert requests != workloads.serve_requests(first.world, SEED + 1, 60)[0]
    dids = workloads.crawl_pass(first).dids
    assert dids == workloads.crawl_pass(second).dids
    assert len(dids) > 256  # a working set above the relay's CAR cache


def test_tracer_rebinds_imported_names_and_restores_them():
    import repro.atproto.cbor as cbor
    import repro.atproto.repo as repo

    original = cbor.cbor_encode
    with Tracer():
        assert repo.cbor_encode is cbor.cbor_encode
        assert repo.cbor_encode.__perfbench_original__ is original
    assert repo.cbor_encode is original and cbor.cbor_encode is original


def test_untraced_work_leaves_no_spans():
    import repro.atproto.cbor as cbor

    with Tracer() as tracer:
        with untraced():
            cbor.cbor_encode({"harness": 1})
        assert tracer.stats["cbor.encode"].calls == 0 and tracer.covered_s == 0
        cbor.cbor_encode({"program": 1})
    assert tracer.stats["cbor.encode"].calls == 1


def test_wrapped_functions_are_originals_after_traced_runs(traced_runs):
    assert traced_runs  # the traced runs have completed
    after = wrapped_targets()
    assert [target for target, _ in after] == [target for target, _ in ORIGINALS]
    assert all(now is before for (_, now), (_, before) in zip(after, ORIGINALS))
    assert leftover_wrappers() == []


def test_every_span_has_an_arrow():
    assert set(ARROWS) == set(SPANS)
    assert set(CACHE_ARROWS) == set(workloads.CACHES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_arrow_metrics_record_calls(traced_runs, workload):
    outcome = traced_runs[workload][0]
    silent = [
        span
        for span, on in ARROWS.items()
        if workload in on and outcome.metrics["%s.calls" % span] == 0
    ]
    assert silent == []
    lookups = {
        cache: sum(sum(unit.caches[cache]) for unit in outcome.units)
        for cache, on in CACHE_ARROWS.items()
        if workload in on
    }
    assert all(lookups.values()), lookups


@pytest.mark.parametrize("workload", ("crawl", "serve"))
def test_harness_frame_hashing_stays_out_of_spans(traced_runs, workload):
    outcome = traced_runs[workload][0]
    assert outcome.metrics["frames.encode.calls"] == 0
    assert all(unit.events > 0 and unit.frame_bytes > 0 for unit in outcome.units)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_repeats(traced_runs, workload):
    first, second = traced_runs[workload]
    for outcome in (first, second):
        assert outcome.correct and outcome.failed == 0
        assert outcome.metrics["error_rate"] == 0
        traced = [unit.fingerprint for unit in outcome.traced.units]
        assert traced == [unit.fingerprint for unit in outcome.units]

    def calls(outcome):
        return {k: v for k, v in outcome.metrics.items() if k.endswith(".calls")}

    assert calls(first) == calls(second)
    assert [u.fingerprint for u in first.units] == [u.fingerprint for u in second.units]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_traced_wall(traced_runs, workload):
    outcome = traced_runs[workload][0]
    traced = outcome.traced
    tracer = traced.tracer
    # The outermost spans cover exactly what the self times add up to, so
    # no second is counted twice.
    assert tracer.self_total_s() == pytest.approx(tracer.covered_s, rel=1e-6)
    total = tracer.self_total_s() + bench.unattributed_s(traced)
    assert total == pytest.approx(traced.wall_s, rel=0.03)
    assert 0 <= outcome.metrics["trace.unattributed_share"] < 0.2


def test_perturbed_fingerprint_counts_as_failed(tmp_path):
    path = tmp_path / "fingerprints.json"
    ledger = workloads.FingerprintLedger(path, "a" * 64)
    key = "study/%d" % workloads.unit_seeds(SEED, 1)[0]
    ledger.known[ledger.entry(key)] = "0" * 64
    outcome = bench.run_benchmark("study", SEED, 1, False, SRC, ledger=ledger, plan=small_plan)
    assert not outcome.correct
    assert outcome.failed / outcome.attempted > 0
    assert any(line.startswith("equal work: %s failed" % key) for line in outcome.lines)
    # Another program keeps entries of its own: its runs are never
    # compared with this program's fingerprints.
    unit = outcome.units[0]
    unit.failed = 0
    assert workloads.FingerprintLedger(path, "b" * 64).check(unit) is None
    ledger.known[ledger.entry(key)] = unit.fingerprint
    again = bench.run_benchmark("study", SEED, 1, False, SRC, ledger=ledger, plan=small_plan)
    assert again.correct and again.failed == 0
    assert list(again.metrics) == [name for name, _, _ in bench.END_TO_END]
    assert all(value > 0 for value in again.metrics.values())


def test_program_hash_follows_the_code(tmp_path):
    module = tmp_path / "pkg" / "module.py"
    module.parent.mkdir()
    module.write_text("x = 1\n")
    before = workloads.program_hash(module.parent)
    assert workloads.program_hash(module.parent) == before
    module.write_text("x = 2\n")
    assert workloads.program_hash(module.parent) != before


def test_equal_work_within_a_run_and_correct_runs_kept():
    def unit(fingerprint, wall_s, failed=0):
        return workloads.Unit(
            key="study/1",
            setup_s=0.01,
            wall_s=wall_s,
            cpu_s=wall_s,
            ops=10,
            throughput_wall_s=wall_s,
            attempted=1,
            failed=failed,
            fingerprint=fingerprint,
        )

    # A study that raised early is short; a correct run stands for the world.
    aborted = workloads.summarize([unit("raised KeyError", 0.1, failed=1), unit("a", 1.0)])
    assert aborted.metrics["wall_s"] == 1.0
    assert workloads.summarize([unit("a", 1.0), unit("a", 0.9)]).metrics["wall_s"] == 0.9
    # The two studies of one world must agree.
    units = [unit("a", 1.0), unit("b", 0.9)]
    lines = bench.check_equal_work(units, None)
    assert [u.failed for u in units] == [1, 1]
    assert len(lines) == 2 and lines[0].startswith("equal work: study/1 failed")


def test_outputs_match_benchmark_json(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert end_to_end == list(bench.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for first, _ in traced_runs.values():
        assert list(first.metrics) == [name for name, _, _ in bench.PER_LAYER]
        document = bench.result_json(first)
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        records = json.loads(first.lines[-1])["units"]
        assert [r["fingerprint"] for r in records] == [u.fingerprint for u in first.units]
        assert [r["events"] for r in records] == [u.events for u in first.units]


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1"]
    command += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
