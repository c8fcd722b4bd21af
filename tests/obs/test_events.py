"""Tests for the deterministic event log (``events.jsonl``)."""

import json

from repro.obs.events import (
    EVENTS_SCHEMA,
    EventLog,
    validate_events_lines,
)
from repro.obs.telemetry import Telemetry


class TestEmit:
    def test_sequences_and_shape(self):
        log = EventLog()
        first = log.emit("cache.flush", 1000, fields={"phase": "p"})
        second = log.emit("fault.injected", 2000, span="phase:p#1")
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["virtual_us"] == 1000
        assert first["span"] is None and second["span"] == "phase:p#1"
        assert first["fields"] == {"phase": "p"} and second["fields"] == {}
        assert isinstance(first["wall_us"], float)

    def test_volatile_events_use_their_own_sequence(self):
        log = EventLog()
        log.emit("cache.flush", 1)
        volatile = log.emit("checkpoint.save", 2, volatile=True)
        deterministic = log.emit("cache.flush", 3)
        assert volatile["seq"] == 1 and volatile["volatile"] is True
        assert deterministic["seq"] == 2
        assert "volatile" not in deterministic

    def test_cap_counts_drops(self):
        log = EventLog(max_events=2)
        assert log.emit("cache.flush", 1) is not None
        assert log.emit("cache.flush", 2) is not None
        assert log.emit("cache.flush", 3) is None
        assert log.dropped == 1
        assert log.stats()["events"] == 2


class TestPhaseSpans:
    def test_occurrence_based_ids(self):
        log = EventLog()
        assert log.phase_span("sim") == "phase:sim#1"
        log.emit("phase.start", 0, fields={"phase": "sim"}, span="phase:sim#1")
        log.emit("phase.end", 9, fields={"phase": "sim"}, span="phase:sim#1")
        assert log.phase_span("sim") == "phase:sim#2"

    def test_span_id_stable_across_resume(self):
        # A journal holding an unmatched start: the resumed process must
        # mint the SAME span id for the replayed occurrence, so its
        # suppressed start and re-emitted end join the journaled start.
        crashed = EventLog()
        span = crashed.phase_span("simulation")
        crashed.emit("phase.start", 0, fields={"phase": "simulation"}, span=span)

        resumed = EventLog()
        resumed.adopt(crashed.state())
        resumed.suppress_phase("simulation")
        assert resumed.phase_span("simulation") == span


class TestSuppressPhase:
    def test_unmatched_start_suppresses_next_start_only(self):
        log = EventLog()
        log.emit("phase.start", 0, fields={"phase": "sim"})
        log.suppress_phase("sim")
        assert log.emit("phase.start", 0, fields={"phase": "sim"}) is None
        end = log.emit("phase.end", 5, fields={"phase": "sim"})
        assert end is not None
        kinds = [e["kind"] for e in log.events]
        assert kinds == ["phase.start", "phase.end"]

    def test_matched_pair_suppresses_both(self):
        log = EventLog()
        log.emit("phase.start", 0, fields={"phase": "sim"})
        log.emit("phase.end", 5, fields={"phase": "sim"})
        log.suppress_phase("sim")
        assert log.emit("phase.start", 0, fields={"phase": "sim"}) is None
        assert log.emit("phase.end", 5, fields={"phase": "sim"}) is None
        # Replay done; a genuinely new occurrence records normally.
        assert log.emit("phase.start", 9, fields={"phase": "sim"}) is not None
        assert len(log.events) == 3

    def test_other_phases_untouched(self):
        log = EventLog()
        log.emit("phase.start", 0, fields={"phase": "sim"})
        log.suppress_phase("sim")
        assert log.emit("phase.start", 0, fields={"phase": "other"}) is not None


class TestStateAdopt:
    def test_round_trip_drops_volatile(self):
        log = EventLog()
        log.emit("cache.flush", 1, fields={"b": 2, "a": 1})
        log.emit("checkpoint.save", 2, volatile=True)
        log.emit("fault.injected", 3)

        fresh = EventLog()
        fresh.adopt(log.state())
        assert [e["kind"] for e in fresh.events] == ["cache.flush", "fault.injected"]
        # The deterministic sequence resumes where the journal left off.
        assert fresh.emit("cache.flush", 9)["seq"] == 3

    def test_adopt_none_is_noop(self):
        log = EventLog()
        log.adopt(None)
        log.adopt({})
        assert log.events == []


class TestJsonl:
    def test_fixed_key_order_and_sorted_fields(self):
        log = EventLog()
        log.emit("cache.flush", 5, fields={"zeta": 1, "alpha": 2})
        line = log.to_jsonl().strip()
        assert line.index('"seq"') < line.index('"virtual_us"') < line.index('"kind"')
        decoded = json.loads(line)
        assert list(decoded["fields"]) == ["alpha", "zeta"]

    def test_include_volatile_toggle(self):
        log = EventLog()
        log.emit("cache.flush", 1)
        log.emit("checkpoint.save", 2, volatile=True)
        assert len(log.to_jsonl().splitlines()) == 2
        assert len(log.to_jsonl(include_volatile=False).splitlines()) == 1

    def test_empty_log_renders_empty_string(self):
        assert EventLog().to_jsonl() == ""


class TestValidate:
    def _lines(self):
        log = EventLog()
        span = log.phase_span("sim")
        log.emit("phase.start", 0, fields={"phase": "sim"}, span=span)
        log.emit("fault.injected", 3, fields={"host": "h"}, span=span)
        log.emit("checkpoint.save", 4, volatile=True)
        log.emit("phase.end", 9, fields={"phase": "sim"}, span=span)
        return log.to_jsonl().splitlines()

    def test_valid_log_passes(self):
        assert validate_events_lines(self._lines()) == []

    def test_schema_name_is_versioned(self):
        assert EVENTS_SCHEMA == "repro-events-v1"

    def test_empty_log_fails(self):
        assert validate_events_lines([]) == ["event log is empty"]

    def test_bad_json_reported(self):
        problems = validate_events_lines(["not json"])
        assert any("not valid JSON" in p for p in problems)

    def test_missing_keys_reported(self):
        problems = validate_events_lines(['{"seq": 1}'])
        assert any("missing keys" in p for p in problems)

    def test_unknown_keys_reported(self):
        lines = self._lines()
        event = json.loads(lines[0])
        event["surprise"] = 1
        problems = validate_events_lines([json.dumps(event)])
        assert any("unknown keys" in p for p in problems)

    def test_non_increasing_seq_reported(self):
        lines = self._lines()
        problems = validate_events_lines([lines[0], lines[0]])
        assert any("not increasing" in p for p in problems)

    def test_volatile_sequence_space_is_separate(self):
        # det seq 1, vol seq 1, det seq 2: valid despite repeated "1".
        assert validate_events_lines(self._lines()) == []


class TestTelemetryIntegration:
    def test_phase_context_emits_start_end_with_shared_span(self):
        telemetry = Telemetry(trace=False)
        with telemetry.phase("analysis"):
            telemetry.emit_event("cache.flush", fields={"phase": "analysis"})
        kinds = [e["kind"] for e in telemetry.events.events]
        assert kinds == ["phase.start", "cache.flush", "phase.end"]
        spans = {e["span"] for e in telemetry.events.events}
        assert spans == {"phase:analysis#1"}

    def test_emit_event_outside_phase_has_null_span(self):
        telemetry = Telemetry(trace=False)
        telemetry.emit_event("cache.flush")
        assert telemetry.events.events[0]["span"] is None
