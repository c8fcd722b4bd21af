"""End-to-end telemetry: determinism, resume-exactness, CLI artefacts.

* a same-seed rerun and a crash/resume chain write the reference's
  ``metrics.json`` byte for byte;
* the metrics snapshot carries the study's series and no wall-clock family;
* ``--trace-out`` produces a trace_event document that provably loads in
  chrome://tracing, and ``--metrics-out`` a valid snapshot;
* the ``telemetry`` report section renders.

The rerun and the chain are the clean runs of ``tests/test_equivalence.py``,
which also covers fault plans, adversaries and hash seeds.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.core import report
from repro.core.export import export_artefacts
from repro.obs.trace import validate_trace


class TestDeterminism:
    def test_same_seed_runs_byte_identical_metrics(self, study_datasets, clean_rerun):
        metrics = clean_rerun.datasets.telemetry.metrics_json()
        assert metrics == study_datasets.telemetry.metrics_json()

    def test_snapshot_reflects_study_series(self, study_datasets):
        snapshot = json.loads(study_datasets.telemetry.metrics_json())
        counters = snapshot["counters"]
        assert counters["sim_days_total"] > 0
        assert counters["sim_commits_total"] > 0
        assert any(key.startswith("firehose_events_total") for key in counters)
        assert any(key.startswith("xrpc_calls_total") for key in counters)
        assert any(key.startswith("phase_runs_total") for key in counters)
        # Wall-clock families never leak into the deterministic snapshot.
        assert not any(key.startswith("phase_wall_us_total") for key in counters)


@pytest.mark.slow
class TestResumeExactness:
    def test_resumed_metrics_equal_uninterrupted(self, study_datasets, clean_resumed):
        metrics = clean_resumed.datasets.telemetry.metrics_json()
        assert metrics == study_datasets.telemetry.metrics_json()


class TestPhaseProfile:
    def test_phase_rows_cover_the_pipeline(self, study_datasets):
        rows = {name: (runs, virtual, wall)
                for name, runs, virtual, wall in study_datasets.telemetry.phase_rows()}
        assert "simulation" in rows
        assert "post:active-probes" in rows
        assert rows["simulation"][0] == 1  # reset_phase: replay counted once
        for _name, (runs, _virtual, wall) in rows.items():
            assert runs >= 1
            assert wall >= 0

    def test_report_section_renders(self, study_datasets):
        section = report.render_telemetry(study_datasets)
        assert "phase" in section
        assert "simulation" in section
        assert "top hosts" in section
        assert "call outcomes" in section

    def test_health_section_names_failure_causes(self, study_datasets):
        section = report.render_collection_health(study_datasets)
        assert "failed calls by cause" in section


class TestExportArtefacts:
    def test_export_writes_metrics_snapshot(self, study_datasets, tmp_path):
        paths = export_artefacts(study_datasets, str(tmp_path))
        names = [os.path.basename(p) for p in paths]
        assert "metrics.json" in names
        assert "trace.json" not in names  # tracing was off for this study
        with open(tmp_path / "metrics.json") as fh:
            assert json.load(fh)["schema"] == "repro-metrics-v1"


class TestCli:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        metrics_path = str(tmp_path / "metrics.json")
        trace_path = str(tmp_path / "trace.json")
        exit_code = main(
            ["telemetry", "--scale", "60000", "--feed-scale", "1200", "--quiet",
             "--metrics-out", metrics_path, "--trace-out", trace_path]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Telemetry" in out and "phase" in out
        with open(metrics_path) as fh:
            assert json.load(fh)["schema"] == "repro-metrics-v1"
        with open(trace_path) as fh:
            document = json.load(fh)
        assert validate_trace(document) == []
        assert len(document["traceEvents"]) > 2
