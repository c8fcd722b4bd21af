"""Render bench_comparison.json into the EXPERIMENTS.md comparison table.

Run after a benchmark session::

    pytest benchmarks/ --benchmark-only
    python benchmarks/render_comparison.py > comparison.md
"""

from __future__ import annotations

import json
import os
import sys

EXPERIMENT_TITLES = {
    "T1": "Table 1 — Firehose event types",
    "F1": "Figure 1 — Daily operations and active users",
    "F2": "Figure 2 — Language communities",
    "F3": "Figure 3 — Subdomain handles per registered domain",
    "F3/S5": "Figure 3 / §5 — Handle concentration",
    "T2": "Table 2 — Registrars",
    "F4": "Figure 4 — Label growth by source",
    "T3": "Table 3 — Top community labelers",
    "T4": "Table 4 — Label targets",
    "F5": "Figure 5 — Labels vs reaction time (per labeler)",
    "F6": "Figure 6 — Labels vs reaction time (per value)",
    "T6": "Table 6 — Labeler reaction times",
    "F7": "Figure 7 — Feed-generator growth",
    "F8": "Figure 8 — Feed description words",
    "F9": "Figure 9 — Labels on curated posts",
    "F10": "Figure 10 — Feed posts vs likes",
    "F11": "Figure 11 — Degree distributions",
    "F12": "Figure 12 — Feed hosting providers",
    "T5": "Table 5 — Feed-service features",
    "S4": "Section 4 — User activity",
    "S5": "Section 5 — Identity",
    "S6": "Section 6 — Moderation",
    "S7": "Section 7 — Recommendation",
    "S9": "Section 9 — Scalability",
    "pipeline": "End-to-end pipeline",
}


def render(path: str) -> str:
    with open(path) as handle:
        rows = json.load(handle)
    by_experiment: dict[str, list[dict]] = {}
    for row in rows:
        by_experiment.setdefault(row["experiment"], []).append(row)
    lines = []
    order = list(EXPERIMENT_TITLES)
    for experiment in sorted(by_experiment, key=lambda e: order.index(e) if e in order else 99):
        title = EXPERIMENT_TITLES.get(experiment, experiment)
        lines.append("### %s" % title)
        lines.append("")
        lines.append("| Metric | Paper | Measured |")
        lines.append("|---|---|---|")
        for row in by_experiment[experiment]:
            lines.append("| %s | %s | %s |" % (row["metric"], row["paper"], row["measured"]))
        lines.append("")
    perf = render_perf()
    if perf:
        lines.append(perf)
    return "\n".join(lines)


def render_perf(path: str | None = None) -> str:
    """Baseline-vs-optimized table from BENCH_perf.json (if it exists)."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")
    if not os.path.exists(path):
        return ""
    with open(path) as handle:
        document = json.load(handle)
    baseline = document.get("baseline", {})
    optimized = document.get("optimized", {})
    speedup = document.get("speedup", {})
    lines = [
        "### Commit-pipeline fast path (BENCH_perf.json)",
        "",
        "| Metric | Baseline | Optimized | Speedup |",
        "|---|---|---|---|",
    ]
    for key in baseline:
        if key not in optimized:
            continue
        factor = speedup.get(key)
        lines.append(
            "| %s | %s | %s | %s |"
            % (
                key,
                _fmt_perf(baseline[key]),
                _fmt_perf(optimized[key]),
                "%.2fx" % factor if factor is not None else "—",
            )
        )
    lines.append("")
    return "\n".join(lines)


def _fmt_perf(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "%.1f" % value if value >= 100 else "%.3f" % value


if __name__ == "__main__":
    default = os.path.join(os.path.dirname(__file__), "..", "bench_comparison.json")
    print(render(sys.argv[1] if len(sys.argv) > 1 else default))
