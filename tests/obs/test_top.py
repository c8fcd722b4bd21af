"""Tests for the live dashboard (``python -m repro top``)."""

import json

from repro.core.checkpoint import CheckpointJournal, StudyCheckpointer
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.top import _current_phase, _load, _resolve_path, main, render_frame

GET_REPO = "com.atproto.sync.getRepo"


def seeded_registry(errors=0):
    """A registry shaped like a study's ``xrpc_calls_total``."""
    registry = MetricsRegistry()
    calls = registry.counter("xrpc_calls_total", ("host", "method", "outcome"))
    calls.inc(("pds.test", GET_REPO, "ok"), 200)
    calls.inc(("pds.test", GET_REPO, "error-500"), errors)
    calls.inc(("labeler.test", "com.atproto.label.queryLabels", "ok"), 3)
    calls.inc(("ghost.test", GET_REPO, "unknown-host"), 50)
    return registry


def status_document(errors=0):
    registry = seeded_registry(errors=errors)
    return {
        "schema": "repro-status-v1",
        "ticks": 1234,
        "done_actions": 7,
        "metrics": registry.snapshot(include_volatile=True),
        "open_phases": ["study", "repo-crawl"],
        "events_tail": [
            {"kind": "phase.start", "fields": {"phase": "study"}},
            {"kind": "phase.start", "fields": {"phase": "simulation"}},
            {"kind": "phase.end", "fields": {"phase": "simulation"}},
            {"kind": "phase.start", "fields": {"phase": "repo-crawl"}},
        ],
    }


class TestRenderFrame:
    def test_frame_shows_phase_counts_and_endpoints(self):
        frame = render_frame(status_document(), source="test-feed")
        assert "test-feed" in frame
        assert "phase: repo-crawl" in frame
        assert "ticks: 1234" in frame
        assert "xrpc calls: 253" in frame
        assert GET_REPO in frame
        assert "SLO" not in frame and "p99" not in frame

    def test_endpoint_errors_rendered(self):
        frame = render_frame(status_document(errors=40))
        row = next(line for line in frame.splitlines() if GET_REPO in line)
        # 200 ok + 40 error-500 + 50 unknown-host calls; 90 are errors.
        assert row.split()[1:] == ["290", "90"]

    def test_call_rate_delta(self):
        status = status_document()
        frame = render_frame(status, previous=status, interval_s=2.0)
        assert "(0 calls/s)" in frame

    def test_metrics_only_snapshot_renders(self):
        status = {
            "schema": "repro-status-v1",
            "metrics": seeded_registry().snapshot(),
        }
        frame = render_frame(status)
        assert "phase: (idle)" in frame
        assert "xrpc calls:" in frame


class TestCurrentPhase:
    def test_innermost_open_phase_wins(self):
        assert _current_phase(status_document()) == "repo-crawl"

    def test_idle_without_events(self):
        assert _current_phase({"open_phases": [], "events_tail": []}) == "(idle)"

    def test_open_phase_survives_event_tail_scroll(self, tmp_path):
        # The feed keeps only the newest 30 events, so the phase.start of a
        # long phase scrolls out; the open phase must still be reported.
        telemetry = Telemetry()
        checkpointer = StudyCheckpointer(
            CheckpointJournal(str(tmp_path)), telemetry=telemetry
        )
        checkpointer.bind(dict)
        with telemetry.phase("study"), telemetry.phase("simulation"):
            for index in range(40):
                telemetry.emit_event("fault.injected", fields={"n": index})
            checkpointer.save()
        status = _load(str(tmp_path / "status.json"))
        assert _current_phase(status) == "simulation"
        assert status["open_phases"] == ["study", "simulation"]


class TestFeedLoading:
    def test_metrics_json_wrapped_as_status(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(seeded_registry().snapshot()))
        status = _load(str(path))
        assert status["schema"] == "repro-status-v1"
        assert "metrics" in status

    def test_torn_or_missing_feed_returns_none(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert _load(str(missing)) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": "repro-status-v1", "metr')
        assert _load(str(torn)) is None

    def test_resolve_path_prefers_status_json(self, tmp_path):
        (tmp_path / "metrics.json").write_text("{}")
        (tmp_path / "status.json").write_text("{}")
        assert _resolve_path(str(tmp_path)).endswith("status.json")

    def test_resolve_path_empty_dir_is_none(self, tmp_path):
        assert _resolve_path(str(tmp_path)) is None


class TestMain:
    def test_once_renders_one_frame(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        path.write_text(json.dumps(status_document()))
        assert main([str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and GET_REPO in out

    def test_missing_feed_exits_nonzero(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json"), "--once"]) == 1
