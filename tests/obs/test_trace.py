"""Tests for the span tracer and trace_event export."""

from repro.obs.trace import (
    PID_VIRTUAL,
    PID_WALL,
    NullTracer,
    SpanTracer,
    validate_span_nesting,
    validate_trace,
    validate_wall_monotonic,
)


def _span(name, ts, dur, cat="phase", pid=PID_WALL):
    return {
        "name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 1,
        "ts": ts, "dur": dur, "args": {},
    }


class FakeClock:
    def __init__(self, now_us=0):
        self.now_us = now_us

    def __call__(self):
        return self.now_us


class TestSpans:
    def test_span_mirrors_wall_and_virtual(self):
        clock = FakeClock(1_000_000)
        tracer = SpanTracer(now_virtual=clock)
        with tracer.span("crawl", cat="collector", args={"host": "a.test"}):
            clock.now_us += 250_000
        wall = [e for e in tracer.events if e["pid"] == PID_WALL]
        virtual = [e for e in tracer.events if e["pid"] == PID_VIRTUAL]
        assert len(wall) == 1 and len(virtual) == 1
        assert wall[0]["name"] == virtual[0]["name"] == "crawl"
        assert wall[0]["args"]["host"] == "a.test"
        assert wall[0]["args"]["virtual_ts_us"] == 1_000_000
        assert wall[0]["args"]["virtual_dur_us"] == 250_000
        assert virtual[0]["dur"] == 250_000

    def test_nested_spans_both_recorded(self):
        tracer = SpanTracer(now_virtual=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in tracer.events if e["pid"] == PID_WALL]
        assert names == ["inner", "outer"]  # completion order

    def test_export_rebases_virtual_track_to_zero(self):
        # A span that *starts* at virtual 0 can complete after spans with
        # much later timestamps; the pid-2 track must still be >= 0.
        clock = FakeClock(0)
        tracer = SpanTracer(now_virtual=clock)
        outer = tracer.span("study")
        outer.__enter__()
        clock.now_us = 7_000_000
        with tracer.span("late"):
            clock.now_us += 1_000
        outer.__exit__(None, None, None)
        document = tracer.export()
        assert validate_trace(document) == []
        virtual_ts = [
            e["ts"]
            for e in document["traceEvents"]
            if e.get("pid") == PID_VIRTUAL and e["ph"] == "X"
        ]
        assert min(virtual_ts) == 0
        assert all(ts >= 0 for ts in virtual_ts)


class TestSamplingAndBounds:
    def test_one_in_n_sampling_per_category(self):
        tracer = SpanTracer(sample_every=4)
        hits = [tracer.sampled("xrpc") for _ in range(8)]
        assert hits == [True, False, False, False, True, False, False, False]
        assert tracer.sampled("other-cat")  # independent counter

    def test_sampled_spans_skip_recording(self):
        tracer = SpanTracer(now_virtual=FakeClock(), sample_every=2)
        for _ in range(4):
            with tracer.span("call", cat="xrpc", sample=True):
                pass
        wall = [e for e in tracer.events if e["pid"] == PID_WALL]
        assert len(wall) == 2

    def test_max_events_drops_and_counts(self):
        tracer = SpanTracer(max_events=3, sample_every=1)
        for index in range(10):
            tracer.instant("frame %d" % index, "firehose")
        assert len(tracer.events) == 3
        assert tracer.dropped == 7
        assert tracer.export()["otherData"]["events_dropped"] == 7


class TestExportDocument:
    def test_document_shape_and_metadata(self):
        tracer = SpanTracer(now_virtual=FakeClock(5))
        with tracer.span("phase"):
            pass
        tracer.instant("tick", "sim", sample=False)
        document = tracer.export()
        assert validate_trace(document) == []
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in metadata} == {PID_WALL, PID_VIRTUAL}
        assert document["otherData"]["generator"] == "repro.obs.trace"

    def test_validator_flags_problems(self):
        assert validate_trace({}) == ["traceEvents missing or not a list"]
        bad = {"traceEvents": [{"ph": "X", "name": "x", "cat": "c", "pid": 1,
                                "tid": 1, "ts": -5, "dur": 1}]}
        assert any("bad ts" in p for p in validate_trace(bad))


class TestSpanNesting:
    def test_contained_and_sequential_spans_pass(self):
        document = {"traceEvents": [
            _span("study", 0, 100, cat="study"),
            _span("simulation", 5, 40),
            _span("analysis", 50, 45),
        ]}
        assert validate_span_nesting(document) == []

    def test_straddling_span_flagged(self):
        document = {"traceEvents": [
            _span("simulation", 0, 50),
            _span("analysis", 40, 30),  # starts inside, ends outside
        ]}
        problems = validate_span_nesting(document)
        assert len(problems) == 1 and "straddles" in problems[0]

    def test_other_categories_and_tracks_exempt(self):
        document = {"traceEvents": [
            _span("shard.day", 0, 50, cat="shard"),
            _span("shard.day", 40, 30, cat="shard"),   # shard spans overlap: fine
            _span("simulation", 0, 50, pid=PID_VIRTUAL),
            _span("analysis", 40, 30, pid=PID_VIRTUAL),  # virtual track: fine
        ]}
        assert validate_span_nesting(document) == []

    def test_real_tracer_output_nests(self):
        tracer = SpanTracer(now_virtual=FakeClock())
        with tracer.span("study", cat="study"):
            with tracer.span("simulation", cat="phase"):
                pass
            with tracer.span("analysis", cat="phase"):
                pass
        assert validate_span_nesting(tracer.export()) == []


class TestWallMonotonic:
    def test_completion_order_passes(self):
        # Inner completes first: earlier array position, earlier end.
        document = {"traceEvents": [
            _span("inner", 10, 20),
            _span("outer", 0, 100),
            {"name": "tick", "cat": "c", "ph": "i", "s": "t",
             "pid": PID_WALL, "tid": 1, "ts": 150, "args": {}},
        ]}
        assert validate_wall_monotonic(document) == []

    def test_backwards_completion_flagged(self):
        document = {"traceEvents": [
            _span("outer", 0, 100),
            _span("late-appended", 10, 20),  # ends at 30, after 100: bad
        ]}
        problems = validate_wall_monotonic(document)
        assert len(problems) == 1 and "precedes" in problems[0]

    def test_virtual_track_exempt(self):
        document = {"traceEvents": [
            _span("a", 0, 100, pid=PID_VIRTUAL),
            _span("b", 10, 20, pid=PID_VIRTUAL),
        ]}
        assert validate_wall_monotonic(document) == []

    def test_real_tracer_output_monotone(self):
        tracer = SpanTracer(now_virtual=FakeClock())
        with tracer.span("study", cat="study"):
            with tracer.span("simulation", cat="phase"):
                pass
        tracer.instant("tick", "sim", sample=False)
        assert validate_wall_monotonic(tracer.export()) == []


class TestNullTracer:
    def test_all_noops(self):
        tracer = NullTracer()
        with tracer.span("x"):
            pass
        tracer.instant("y", "cat")
        tracer.complete("z", "cat", 0.0)
        assert tracer.events == []
        assert tracer.stats()["events"] == 0
        assert tracer.export()["traceEvents"] == []
