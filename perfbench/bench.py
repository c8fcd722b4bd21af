"""One benchmark run: untraced measurement, optional traced run, report.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` measures the
same workload untraced (for the overhead figure and the untraced
throughput/latency metrics) and then once more with :class:`Tracer`
installed, and prints every per-layer metric.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from perfbench import workloads
from perfbench.tracer import SPANS, Tracer, layer_of

# -- metric catalog (must match BENCHMARK.json) ------------------------------------

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

LAYERS = ("simulation", "atproto", "services", "collect", "report")
LOC_MODULES = ("atproto", "services", "simulation", "core", "obs")
# Untraced per-workload figures; zero on a workload without such operations.
WORKLOAD_METRICS = (
    ("events_per_s", "1/s", "higher"),
    ("repos_per_s", "1/s", "higher"),
    ("reads_per_s", "1/s", "higher"),
    ("read_p50_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("error_rate", "ratio", "lower"),
)


def _per_layer() -> tuple:
    metrics = []
    for span in SPANS:
        metrics.append(("%s.calls" % span, "count", "lower"))
        metrics.append(("%s.self_s" % span, "s", "lower"))
    metrics.append(("car.read.bytes", "B", "lower"))
    metrics.append(("xrpc.call.errors", "count", "lower"))
    metrics.extend(("layer.%s.self_s" % layer, "s", "lower") for layer in LAYERS)
    metrics.extend(
        ("cache.%s.hit_ratio" % cache, "ratio", "higher") for cache in workloads.CACHES
    )
    metrics.append(("trace.overhead_pct", "%", "lower"))
    metrics.append(("trace.unattributed_share", "ratio", "lower"))
    metrics.append(("frames.bytes_per_event", "B/event", "lower"))
    metrics.append(("repo.commit.calls_per_event", "1/event", "lower"))
    metrics.extend(("loc.%s" % module, "lines", "lower") for module in LOC_MODULES)
    metrics.extend(WORKLOAD_METRICS)
    return tuple(metrics)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# -- helpers --------------------------------------------------------------------------


def src_line_counts(src_root: Path) -> dict[str, int]:
    """Physical lines of ``src/repro/<module>/**/*.py`` per layer module."""
    counts = {}
    for module in LOC_MODULES:
        total = 0
        for path in sorted((src_root / "repro" / module).rglob("*.py")):
            with open(path, "rb") as handle:
                total += sum(1 for _ in handle)
        counts["loc.%s" % module] = total
    return counts


def host_facts() -> dict:
    return {"nproc": os.cpu_count() or 1, "python": platform.python_version()}


def check_equal_work(units: list, ledger: Optional[workloads.FingerprintLedger]) -> list[str]:
    """Fail each unit whose fingerprint disagrees with another run of it:
    in this run (a ``study`` world is studied twice) or, through
    ``ledger``, in an earlier run of the same program.  One line each."""
    lines = []
    seen: dict[str, set] = {}
    for unit in units:
        if not unit.failed:
            seen.setdefault(unit.key, set()).add(unit.fingerprint)
    for unit in units:
        fingerprints = seen.get(unit.key, set())
        if len(fingerprints) > 1:
            unit.failed = unit.attempted
            lines.append(
                "equal work: %s failed, its runs in this run differ: %s"
                % (unit.key, " ".join(sorted(f[:16] for f in fingerprints)))
            )
    if ledger is not None:
        for unit in units:
            expected = ledger.check(unit)
            if expected is not None:
                unit.failed = unit.attempted
                lines.append(
                    "equal work: %s failed, fingerprint %s differs from %s recorded "
                    "for this program in %s"
                    % (unit.key, unit.fingerprint[:16], expected[:16], ledger.path)
                )
    return lines


def request_shares(units: list) -> list[str]:
    """How ``serve``'s measured time splits between reads and writes."""
    reads = [us for unit in units for us in unit.read_us]
    writes = [us for unit in units for us in unit.write_us]
    total = sum(reads) + sum(writes)
    if not total:
        return []
    return [
        "requests: %d reads take %.1f%% of wall_s, %d writes %.1f%%"
        % (len(reads), 100 * sum(reads) / total, len(writes), 100 * sum(writes) / total)
    ]


@dataclass
class Traced:
    tracer: Tracer
    units: list

    @property
    def wall_s(self) -> float:
        """Traced wall time: every unit's set-up plus measured phase.

        The harness's own work between those windows (garbage collection
        of the previous world, hashing wire frames, drawing requests,
        fingerprinting) is left out, here and, through
        :func:`perfbench.tracer.untraced`, from the spans."""
        return sum(unit.setup_s + unit.elapsed_s for unit in self.units)


def traced_units(workload: str, seed: int, seconds: int, plan) -> Traced:
    with Tracer() as tracer:
        units = [make() for make in plan(workload, seed, seconds)]
    return Traced(tracer, units)


def per_layer_metrics(
    workload: str, untraced: workloads.RunResult, traced: Traced, src_root: Path
) -> dict:
    tracer = traced.tracer
    metrics: dict = {}
    for span, stats in tracer.stats.items():
        metrics["%s.calls" % span] = stats.calls
        metrics["%s.self_s" % span] = stats.self_s
    metrics["car.read.bytes"] = tracer.stats["car.read"].bytes
    metrics["xrpc.call.errors"] = tracer.stats["xrpc.call"].errors
    layers = tracer.layer_self_s()
    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = layers.get(layer, 0.0)
    units = untraced.units
    for cache in workloads.CACHES:
        hits = sum(unit.caches.get(cache, (0, 0))[0] for unit in units)
        misses = sum(unit.caches.get(cache, (0, 0))[1] for unit in units)
        metrics["cache.%s.hit_ratio" % cache] = hits / (hits + misses) if hits + misses else 0.0
    untraced_wall = untraced.metrics["wall_s"]
    traced_wall = workloads.summarize(traced.units).metrics["wall_s"]
    metrics["trace.overhead_pct"] = (traced_wall - untraced_wall) / untraced_wall * 100.0
    metrics["trace.unattributed_share"] = unattributed_s(traced) / traced.wall_s
    events = sum(unit.events for unit in units)
    metrics["frames.bytes_per_event"] = (
        sum(unit.frame_bytes for unit in units) / events if events else 0.0
    )
    traced_events = sum(unit.events for unit in traced.units)
    metrics["repo.commit.calls_per_event"] = (
        tracer.stats["repo.commit"].calls / traced_events if traced_events else 0.0
    )
    metrics.update(src_line_counts(src_root))
    metrics.update(workloads.workload_metrics(workload, untraced))
    return metrics


def unattributed_s(traced: Traced) -> float:
    """Traced wall time that falls in no span."""
    return max(0.0, traced.wall_s - traced.tracer.covered_s)


def attribution_report(traced: Traced, overhead_pct: float) -> list[str]:
    """Layers ranked by self time, then the unattributed part and the
    check that self times plus unattributed add up to the traced wall."""
    tracer = traced.tracer
    wall = traced.wall_s
    unattributed = unattributed_s(traced)
    lines = ["attribution of the traced run (%.3f s wall):" % wall]
    ranked = sorted(tracer.layer_self_s().items(), key=lambda item: -item[1])
    for layer, self_s in ranked:
        lines.append("  %-13s %9.3f s  %5.1f%%" % (layer, self_s, 100 * self_s / wall))
    lines.append("  %-13s %9.3f s  %5.1f%%" % ("unattributed", unattributed, 100 * unattributed / wall))
    total = tracer.self_total_s() + unattributed
    lines.append(
        "  self times + unattributed = %.3f s = %.2f%% of traced wall "
        "(outermost spans cover %.3f s)" % (total, 100 * total / wall, tracer.covered_s)
    )
    lines.append("  trace.overhead_pct = %+.2f%% on wall_s" % overhead_pct)
    lines.append("spans by self time:")
    spans = sorted(tracer.stats.items(), key=lambda item: -item[1].self_s)
    for name, stats in spans:
        if stats.calls:
            lines.append(
                "  %-22s %-10s %9d calls %9.3f s"
                % (name, layer_of(name), stats.calls, stats.self_s)
            )
    return lines


# -- one run ------------------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    lines: list  # human-readable output, printed before the JSON line
    units: list  # the untraced run's units
    traced: Optional[Traced] = None


def run_benchmark(
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    src_root: Path,
    ledger: Optional[workloads.FingerprintLedger] = None,
    plan: Callable = workloads.plan,
) -> Outcome:
    facts = host_facts()
    lines = [
        "perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d python=%s"
        % (workload, seed, seconds, int(trace), facts["nproc"], facts["python"])
    ]
    units = [make() for make in plan(workload, seed, seconds)]
    lines.extend(check_equal_work(units, ledger))
    result = workloads.summarize(units)
    failed = result.failed
    for unit in units:
        lines.append(
            "unit %-18s events=%d commits=%d ops=%d failed=%d setup=%.3fs wall=%.3fs fingerprint=%s"
            % (unit.key, unit.events, unit.commits, unit.ops, unit.failed,
               unit.setup_s, unit.wall_s, unit.fingerprint[:16])
        )
    if len(units) > 1:
        walls = [unit.wall_s for unit in units]
        low, _, high = statistics.quantiles(walls, n=4)
        lines.append(
            "unit wall_s: median %.3f s, quartiles %.3f..%.3f s over %d units"
            % (statistics.median(walls), low, high, len(walls))
        )
    lines.extend(request_shares(units))
    traced = None
    if not trace:
        metrics = dict(result.metrics)
    else:
        traced = traced_units(workload, seed, seconds, plan)
        for plain, shadow in zip(units, traced.units):
            # The traced run must do exactly the work the untraced one did.
            if shadow.fingerprint != plain.fingerprint:
                failed += plain.attempted - plain.failed
                plain.failed = plain.attempted
                lines.append("traced fingerprint differs for %s" % plain.key)
        result.failed = failed
        metrics = per_layer_metrics(workload, result, traced, src_root)
        lines.extend(attribution_report(traced, metrics["trace.overhead_pct"]))
    if ledger is not None:
        ledger.save()
    for name, value in metrics.items():
        lines.append("%-34s %16.6f %s" % (name, value, UNITS[name]))
    # The result line's keys are fixed, so each unit's work goes on the
    # line before it: runs of two commits compare there unit by unit.
    records = [
        {
            "key": unit.key,
            "events": unit.events,
            "commits": unit.commits,
            "failed": unit.failed,
            "fingerprint": unit.fingerprint,
        }
        for unit in units
    ]
    lines.append(json.dumps({"units": records}, sort_keys=True))
    return Outcome(
        correct=failed == 0,
        attempted=result.attempted,
        failed=failed,
        metrics=metrics,
        lines=lines,
        units=units,
        traced=traced,
    )


def result_json(outcome: Outcome) -> dict:
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in outcome.metrics.items()
        },
    }
