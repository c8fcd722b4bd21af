#!/usr/bin/env python
"""Guard the benchmarks in BENCH_perf.json (``make bench``).

Usage: python scripts/check_bench.py BENCH_perf.json

Fails (exit 1) if:
  * any of the five micro-bench throughputs is missing or not above its
    floor, the rate measured at the pre-optimization baseline commit
    (``benchmarks.perf.BASELINE``), or
  * any of the read-path throughput metrics is missing, or
  * the cached variant is less than MIN_CACHE_SPEEDUP x the uncached
    variant measured in the same run, or
  * the deterministic read-cache hit/miss counters disappeared from the
    benchmark output, or
  * the observability export (metrics.prom + events.jsonl rendering)
    costs more than MAX_EXPORT_OVERHEAD_PCT of the pipeline wall
    it reports on (with a small absolute-seconds slack so a noisy
    single-core CI box can't flake the build on a 0.1s delta).

The cached/uncached comparisons are within-run, so they are robust to the absolute speed of the machine
running CI.
"""

from __future__ import annotations

import json
import os
import sys

MICRO_METRICS = (
    "cbor_encode_ops_per_s",
    "cid_for_cbor_ops_per_s",
    "mst_insert_with_root_cid_ops_per_s",
    "repo_create_record_ops_per_s",
    "weighted_sample_ops_per_s",
)
READ_METRICS = ("timeline_ops_per_s", "getfeed_ops_per_s", "search_ops_per_s")
MIN_CACHE_SPEEDUP = 5.0
MAX_EXPORT_OVERHEAD_PCT = 5.0
EXPORT_OVERHEAD_SLACK_S = 0.25


def check(document: dict) -> list[str]:
    from benchmarks.perf import BASELINE

    problems = []
    optimized = document.get("optimized")
    if not isinstance(optimized, dict):
        return ["no 'optimized' section in bench file"]
    for name in MICRO_METRICS:
        ops = optimized.get(name)
        if not isinstance(ops, (int, float)):
            problems.append("missing micro-bench metric %r" % name)
        elif ops <= BASELINE[name]:
            problems.append(
                "%s %.1f is not above its baseline floor %.1f" % (name, ops, BASELINE[name])
            )
    for name in READ_METRICS:
        cached = optimized.get(name)
        uncached = optimized.get(name.replace("_ops_per_s", "_uncached_ops_per_s"))
        if not isinstance(cached, (int, float)):
            problems.append("missing read metric %r" % name)
            continue
        if not isinstance(uncached, (int, float)) or uncached <= 0:
            problems.append("missing uncached reference for %r" % name)
            continue
        ratio = cached / uncached
        if ratio < MIN_CACHE_SPEEDUP:
            problems.append(
                "%s cached/uncached ratio %.2fx < %.1fx"
                % (name, ratio, MIN_CACHE_SPEEDUP)
            )
    counters = optimized.get("read_cache_counters")
    if not isinstance(counters, dict) or not counters:
        problems.append("read_cache_counters missing or empty")
    else:
        if not any(key.startswith("read_cache_hits_total") for key in counters):
            problems.append("no read_cache_hits_total series in counters")
        if not any(key.startswith("read_cache_misses_total") for key in counters):
            problems.append("no read_cache_misses_total series in counters")
    problems.extend(check_export_overhead(optimized))
    return problems


def check_export_overhead(optimized: dict) -> list[str]:
    problems = []
    export_wall = optimized.get("obs_export_wall_s")
    reference = optimized.get("obs_export_pipeline_reference_wall_s")
    if not isinstance(export_wall, (int, float)) or not isinstance(
        reference, (int, float)
    ) or reference <= 0:
        problems.append(
            "missing obs_export_wall_s / obs_export_pipeline_reference_wall_s "
            "for the observability-export overhead guardrail"
        )
        return problems
    overhead_pct = export_wall / reference * 100
    if overhead_pct > MAX_EXPORT_OVERHEAD_PCT and export_wall > EXPORT_OVERHEAD_SLACK_S:
        problems.append(
            "observability export costs %.2f%% of the pipeline wall "
            "(%.3fs export vs %.2fs pipeline), above the %.1f%% guardrail"
            % (overhead_pct, export_wall, reference, MAX_EXPORT_OVERHEAD_PCT)
        )
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        document = json.load(handle)
    problems = check(document)
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem, file=sys.stderr)
        return 1
    ratios = []
    optimized = document["optimized"]
    for name in READ_METRICS:
        uncached = optimized[name.replace("_ops_per_s", "_uncached_ops_per_s")]
        ratios.append("%s %.1fx" % (name.split("_")[0], optimized[name] / uncached))
    ratios.append(
        "obs export %.2f%%"
        % (
            optimized["obs_export_wall_s"]
            / optimized["obs_export_pipeline_reference_wall_s"]
            * 100
        )
    )
    print("ok: %s (%s)" % (argv[0], ", ".join(ratios)))
    return 0


if __name__ == "__main__":
    # The floors live in benchmarks/perf.py, one directory up.
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main(sys.argv[1:]))
