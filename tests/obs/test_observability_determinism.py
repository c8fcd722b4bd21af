"""The observability streams of a faulted study.

The study is the fault-seed-11 reference of the equivalence matrix
(``tests/conftest.py``).  That ``metrics.prom`` and the deterministic
event stream come out byte-identical across interpreter hash seeds and
crash/resume chains is checked by ``tests/test_equivalence.py``.
"""

import json

import pytest

from repro.obs.metrics import parse_series_key


@pytest.mark.slow
class TestFaultedRun:
    @pytest.fixture(scope="class")
    def telemetry(self, references):
        return references["faults-11"].datasets.telemetry

    def test_event_stream_nonempty_with_faults(self, telemetry):
        events = telemetry.events_jsonl(include_volatile=False).splitlines()
        kinds = {json.loads(line)["kind"] for line in events}
        assert "fault.injected" in kinds
        assert "phase.start" in kinds and "phase.end" in kinds

    def test_call_counters_record_injected_faults(self, telemetry):
        snapshot = telemetry.registry.snapshot()
        injected = 0
        for key, value in snapshot["counters"].items():
            name, labels = parse_series_key(key)
            if name == "xrpc_calls_total" and labels["outcome"].startswith("injected-"):
                injected += value
        assert injected > 0
        assert any(key.startswith("faults_injected") for key in snapshot["gauges"])
