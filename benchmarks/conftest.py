"""Benchmark fixtures.

One bench-scale world + measurement pipeline is built per session (the
expensive part, a few minutes); each benchmark then times the analysis
that regenerates one table or figure, asserts the paper's qualitative
shape, and records paper-vs-measured values into
``bench_comparison.json`` for EXPERIMENTS.md.
"""

import json
import os

import pytest

from repro.core.pipeline import run_study
from repro.simulation.config import PAPER, SimulationConfig

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "bench_comparison.json")

# Scale used by the benchmark harness; override with REPRO_BENCH_SCALE.
_DENOM = float(os.environ.get("REPRO_BENCH_SCALE_DENOM", "4000"))  # repro: allow(env-read) -- bench-harness scale knob; never reaches simulation state


@pytest.fixture(scope="session")
def bench_study():
    config = SimulationConfig(seed=2024, scale=1 / _DENOM, feed_scale=1 / 250)
    world, datasets = run_study(config)
    return world, datasets


@pytest.fixture(scope="session")
def bench_world(bench_study):
    return bench_study[0]


@pytest.fixture(scope="session")
def bench_datasets(bench_study):
    return bench_study[1]


class ComparisonRecorder:
    """Collects (experiment, metric, paper value, measured value) rows."""

    def __init__(self):
        self.rows = []

    def record(self, experiment: str, metric: str, paper, measured):
        self.rows.append(
            {
                "experiment": experiment,
                "metric": metric,
                "paper": paper,
                "measured": measured,
            }
        )

    def paper(self, key: str):
        return PAPER[key]


@pytest.fixture(scope="session")
def recorder():
    rec = ComparisonRecorder()
    yield rec
    path = os.path.abspath(RESULTS_PATH)
    # Merge with any existing rows so a partial run (e.g. one benchmark
    # file) does not clobber the full comparison table.
    rows = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                rows = {(r["experiment"], r["metric"]): r for r in json.load(handle)}
        except (ValueError, KeyError, TypeError):
            rows = {}
    rows.update({(r["experiment"], r["metric"]): r for r in rec.rows})
    merged = sorted(rows.values(), key=lambda row: (row["experiment"], row["metric"]))
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2)
