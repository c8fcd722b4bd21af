"""SLO evaluation: tail-latency objectives over the metrics snapshot.

The paper's crawl only works if the simulated services sustain
throughput, so the study states *objectives* — "p99 of
``com.atproto.sync.getRepo`` under 5 virtual seconds", "error budget
0.1%" — and this module grades a finished (or in-flight) run against
them.  Everything is computed from the deterministic registry snapshot
(``repro-metrics-v1``), so ``slo.json`` inherits byte-identity across
fault seeds, hash seeds, and crash/resume for free: same snapshot in,
same bytes out.

Objectives are declared in seeded *bundles* (mirroring how
``simulation.config`` seeds the workload): a named, frozen set of
:class:`SloObjective` rows.  ``default`` matches the study's injected
fault-model envelope; ``strict`` is the same shape with production-ish
targets that a faulted run is expected to breach — useful for testing
the burn arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import percentile_from_record

SLO_SCHEMA = "repro-slo-v1"

#: Quantiles the report always materialises, in rendering order.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))

#: Snapshot families the evaluator reads.
METHOD_LATENCY_FAMILY = "xrpc_method_latency_us"
HOST_LATENCY_FAMILY = "xrpc_latency_us"
CALLS_FAMILY = "xrpc_calls_total"

OUTCOME_OK = "ok"

#: Outcomes that do not consume error budget: probing an announced-but-
#: unreachable host is the *study design* (the paper finds 26% of
#: Labelers and ~7% of Feed Generators dead), not a service failure.
#: Injected faults and status errors are what the budget meters.
EXPECTED_OUTCOMES = frozenset((OUTCOME_OK, "unknown-host", "host-down"))


@dataclass(frozen=True)
class SloObjective:
    """One graded objective: a latency ceiling plus an error budget."""

    name: str
    scope: str  # "method" | "host"
    match: str  # exact NSID / host, or "*" for the aggregate
    quantile: str  # one of the QUANTILES keys
    threshold_us: int
    error_budget: float  # tolerated error fraction of calls, e.g. 0.001


@dataclass(frozen=True)
class SloBundle:
    name: str
    objectives: tuple


def default_bundle() -> SloBundle:
    """The study envelope: generous enough that a healthy seeded run
    passes, tight enough that a pathological tail would not."""
    return SloBundle(
        name="default",
        objectives=(
            SloObjective(
                name="xrpc-aggregate-p99",
                scope="host",
                match="*",
                quantile="p99",
                threshold_us=60_000_000,
                error_budget=0.05,
            ),
            SloObjective(
                name="xrpc-aggregate-p999",
                scope="host",
                match="*",
                quantile="p999",
                threshold_us=300_000_000,
                error_budget=0.05,
            ),
            SloObjective(
                name="sync-get-repo-p99",
                scope="method",
                match="com.atproto.sync.getRepo",
                quantile="p99",
                threshold_us=60_000_000,
                error_budget=0.05,
            ),
        ),
    )


def strict_bundle() -> SloBundle:
    """Production-shaped targets; a faulted study run breaches these,
    which is what the burn-rate tests exercise."""
    return SloBundle(
        name="strict",
        objectives=(
            SloObjective(
                name="xrpc-aggregate-p99",
                scope="host",
                match="*",
                quantile="p99",
                threshold_us=1_000_000,
                error_budget=0.001,
            ),
            SloObjective(
                name="xrpc-aggregate-p999",
                scope="host",
                match="*",
                quantile="p999",
                threshold_us=5_000_000,
                error_budget=0.001,
            ),
        ),
    )


BUNDLES = {
    "default": default_bundle,
    "strict": strict_bundle,
}


def parse_series_key(key: str) -> tuple[str, dict]:
    """Split a snapshot series key ``name{k=v,...}`` into (name, labels).

    Inverse of ``metrics.series_key`` for the label alphabets the study
    uses (hosts, NSIDs, outcome slugs — no commas or braces in values).
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name = key[:brace]
    labels: dict = {}
    for pair in key[brace + 1 : -1].split(","):
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


def _histogram_series(snapshot: dict, family: str, label: str) -> dict:
    """{label_value: histogram_entry} for one family, plus a summed "*"."""
    out: dict = {}
    merged_counts: Optional[list] = None
    merged = {"sum": 0, "count": 0, "overflow_sum": 0}
    bounds: Optional[list] = None
    for key, entry in snapshot.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        if name != family or label not in labels:
            continue
        out[labels[label]] = entry
        if merged_counts is None:
            merged_counts = list(entry["counts"])
            bounds = [b for b in entry["le"] if b != "+Inf"]
        else:
            for index, value in enumerate(entry["counts"]):
                merged_counts[index] += value
        merged["sum"] += entry["sum"]
        merged["count"] += entry["count"]
        merged["overflow_sum"] += entry.get("overflow_sum", 0)
    if merged_counts is not None:
        out["*"] = {
            "le": list(bounds) + ["+Inf"],
            "counts": merged_counts,
            "sum": merged["sum"],
            "count": merged["count"],
            "overflow_sum": merged["overflow_sum"],
        }
    return out


def _entry_percentiles(entry: dict) -> dict:
    bounds = tuple(b for b in entry["le"] if b != "+Inf")
    row = {"count": entry["count"]}
    for name, q in QUANTILES:
        row[name] = percentile_from_record(
            bounds, entry["counts"], entry["count"], entry.get("overflow_sum", 0), q
        )
    return row


def _call_tallies(snapshot: dict) -> tuple[dict, dict]:
    """(by_method, by_host) → {"calls": n, "errors": n} from the counters."""
    by_method: dict = {}
    by_host: dict = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_series_key(key)
        if name != CALLS_FAMILY:
            continue
        is_error = labels.get("outcome") not in EXPECTED_OUTCOMES
        for tally, label in ((by_method, "method"), (by_host, "host")):
            for bucket in (labels.get(label), "*"):
                if bucket is None:
                    continue
                row = tally.setdefault(bucket, {"calls": 0, "errors": 0})
                row["calls"] += value
                if is_error:
                    row["errors"] += value
    return by_method, by_host


def evaluate_slos(
    snapshot: dict, bundle: Optional[SloBundle] = None, window_days: float = 1.0
) -> dict:
    """Grade a registry snapshot against a bundle → ``repro-slo-v1`` doc.

    ``window_days`` is the study's virtual observation window (the
    simulated day count); burn rates are normalised per virtual day so
    a budget fully consumed over a 7-day study reads as ~0.1429/day.
    """
    if bundle is None:
        bundle = default_bundle()
    window_days = max(float(window_days), 1e-9)

    by_method_hist = _histogram_series(snapshot, METHOD_LATENCY_FAMILY, "method")
    by_host_hist = _histogram_series(snapshot, HOST_LATENCY_FAMILY, "host")
    method_calls, host_calls = _call_tallies(snapshot)

    latency = {
        "by_method": {
            method: _entry_percentiles(entry)
            for method, entry in sorted(by_method_hist.items())
        },
        "by_host": {
            host: _entry_percentiles(entry)
            for host, entry in sorted(by_host_hist.items())
        },
    }

    objectives = []
    breaches = 0
    for objective in bundle.objectives:
        source = by_method_hist if objective.scope == "method" else by_host_hist
        tallies = method_calls if objective.scope == "method" else host_calls
        entry = source.get(objective.match)
        observed = None
        if entry is not None:
            observed = _entry_percentiles(entry).get(objective.quantile)
        tally = tallies.get(objective.match, {"calls": 0, "errors": 0})
        calls, errors = tally["calls"], tally["errors"]
        error_rate = (errors / calls) if calls else 0.0
        budget_consumed = (
            min(1.0, error_rate / objective.error_budget)
            if objective.error_budget > 0
            else (1.0 if errors else 0.0)
        )
        latency_ok = observed is None or observed <= objective.threshold_us
        budget_ok = budget_consumed < 1.0
        ok = latency_ok and budget_ok
        if not ok:
            breaches += 1
        objectives.append(
            {
                "name": objective.name,
                "scope": objective.scope,
                "match": objective.match,
                "quantile": objective.quantile,
                "threshold_us": objective.threshold_us,
                "observed_us": observed,
                "latency_ok": latency_ok,
                "calls": calls,
                "errors": errors,
                "error_rate": round(error_rate, 6),
                "error_budget": objective.error_budget,
                "budget_consumed": round(budget_consumed, 6),
                "budget_burn_per_day": round(budget_consumed / window_days, 6),
                "budget_ok": budget_ok,
                "ok": ok,
            }
        )

    return {
        "schema": SLO_SCHEMA,
        "bundle": bundle.name,
        "window_days": round(window_days, 6),
        "objectives": objectives,
        "breaches": breaches,
        "latency": latency,
    }


def slo_json(
    snapshot: dict, bundle: Optional[SloBundle] = None, window_days: float = 1.0
) -> str:
    return (
        json.dumps(
            evaluate_slos(snapshot, bundle, window_days), indent=2, sort_keys=True
        )
        + "\n"
    )


def study_window_days() -> float:
    """The study's virtual observation window in days.

    From firehose collection start through the feed-collection close —
    the span the error budgets amortise over.  A constant of the seeded
    schedule, so burn rates stay deterministic.
    """
    from repro.simulation.clock import US_PER_DAY
    from repro.simulation.config import (
        FEED_COLLECT_END_US,
        FIREHOSE_COLLECT_START_US,
    )

    return (FEED_COLLECT_END_US - FIREHOSE_COLLECT_START_US) / US_PER_DAY


def resolve_bundle(name: str) -> SloBundle:
    try:
        return BUNDLES[name]()
    except KeyError:
        raise ValueError(
            "unknown SLO bundle %r (have: %s)" % (name, ", ".join(sorted(BUNDLES)))
        )
