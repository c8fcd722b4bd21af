"""The BENCH_perf.json gate (``scripts/check_bench.py``) fails each broken document."""

import importlib.util
import json
import os

import pytest

from benchmarks.perf import BASELINE

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "check_bench.py")
_spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def passing_document() -> dict:
    optimized = {name: BASELINE[name] * 2 for name in check_bench.MICRO_METRICS}
    for name in check_bench.READ_METRICS:
        optimized[name] = 6000.0
        optimized[name.replace("_ops_per_s", "_uncached_ops_per_s")] = 1000.0
    optimized["read_cache_counters"] = {
        "read_cache_hits_total{cache=post_view}": 100,
        "read_cache_misses_total{cache=post_view}": 3,
    }
    optimized["obs_export_wall_s"] = 0.01
    optimized["obs_export_pipeline_reference_wall_s"] = 2.0
    return {"baseline": dict(BASELINE), "optimized": optimized}


def test_passing_document_is_clean():
    assert check_bench.check(passing_document()) == []


def test_main_reads_the_file(tmp_path, capsys):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(passing_document()))
    assert check_bench.main([str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")
    path.write_text(json.dumps({"baseline": {}}))
    assert check_bench.main([str(path)]) == 1


def _break_ratio(optimized):
    optimized["timeline_ops_per_s"] = 4999.0  # 4.999x the uncached 1000/s


def _drop_uncached(optimized):
    del optimized["getfeed_uncached_ops_per_s"]


def _empty_counters(optimized):
    optimized["read_cache_counters"] = {}


def _no_hits(optimized):
    optimized["read_cache_counters"] = {"read_cache_misses_total{cache=post_view}": 3}


def _no_misses(optimized):
    optimized["read_cache_counters"] = {"read_cache_hits_total{cache=post_view}": 100}


def _slow_export(optimized):
    optimized["obs_export_wall_s"] = 0.3  # 6% of 5 s, and above the 0.25 s slack
    optimized["obs_export_pipeline_reference_wall_s"] = 5.0


BROKEN = {
    "cached_under_5x_uncached": (_break_ratio, "cached/uncached ratio"),
    "missing_uncached_twin": (_drop_uncached, "missing uncached reference"),
    "empty_counters": (_empty_counters, "read_cache_counters missing or empty"),
    "no_hits_series": (_no_hits, "no read_cache_hits_total series"),
    "no_misses_series": (_no_misses, "no read_cache_misses_total series"),
    "export_over_limit": (_slow_export, "observability export costs"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_broken_document_fails(case):
    breaker, message = BROKEN[case]
    document = passing_document()
    breaker(document["optimized"])
    problems = check_bench.check(document)
    assert len(problems) == 1
    assert message in problems[0]


def test_export_over_percentage_but_under_slack_passes():
    document = passing_document()
    document["optimized"]["obs_export_wall_s"] = 0.2  # 10% of 2 s, under 0.25 s
    assert check_bench.check(document) == []


@pytest.mark.parametrize("name", check_bench.MICRO_METRICS)
def test_micro_metric_at_its_floor_fails(name):
    document = passing_document()
    document["optimized"][name] = BASELINE[name]
    problems = check_bench.check(document)
    assert len(problems) == 1
    assert name in problems[0] and "floor" in problems[0]


@pytest.mark.parametrize("name", check_bench.MICRO_METRICS)
def test_missing_micro_metric_fails(name):
    document = passing_document()
    del document["optimized"][name]
    assert check_bench.check(document) == ["missing micro-bench metric %r" % name]
