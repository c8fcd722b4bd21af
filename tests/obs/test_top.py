"""Tests for the live dashboard (``python -m repro top``)."""

import json

from repro.obs.top import _current_phase, _load, _resolve_path, main, render_frame

from tests.obs.test_slo import seeded_registry


def status_document(errors=0):
    registry = seeded_registry(errors=errors)
    return {
        "schema": "repro-status-v1",
        "ticks": 1234,
        "done_actions": 7,
        "metrics": registry.snapshot(include_volatile=True),
        "events_tail": [
            {"kind": "phase.start", "fields": {"phase": "study"}},
            {"kind": "phase.start", "fields": {"phase": "simulation"}},
            {"kind": "phase.end", "fields": {"phase": "simulation"}},
            {"kind": "phase.start", "fields": {"phase": "repo-crawl"}},
        ],
    }


class TestRenderFrame:
    def test_frame_shows_phase_counts_and_slos(self):
        frame = render_frame(status_document(), source="test-feed")
        assert "test-feed" in frame
        assert "phase: repo-crawl" in frame
        assert "ticks: 1234" in frame
        assert "com.atproto.sync.getRepo" in frame
        assert "SLOs (default bundle)" in frame
        assert "xrpc-aggregate-p99" in frame

    def test_breach_rendered(self):
        frame = render_frame(status_document(errors=40))
        assert "BREACH" in frame

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
        assert _current_phase({"events_tail": []}) == "(idle)"


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
        assert "repro top" in out and "SLOs" in out

    def test_missing_feed_exits_nonzero(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json"), "--once"]) == 1
