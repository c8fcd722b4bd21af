"""The telemetry facade the pipeline threads through every choke point.

One :class:`Telemetry` object bundles the metrics registry, the span
tracer, and the phase profiler.  There is one mode: a ``World()``
constructs one, and every service directory, service, collector and
checkpointer built without one gets its own, so every count lands in a
real registry.  Only the span tracer is opt-in (``--trace-out``),
because recording spans has a real cost.

Clock contract: ``now_virtual`` reads the study's virtual clock
(``ServiceDirectory.now_us``, advanced by the retry helper and the
engine's day loop).  Phase durations are recorded on both clocks; only
the virtual series persists into ``metrics.json`` — wall time is
volatile by definition and lives in the human-readable report.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, SpanTracer


class _Phase:
    """Context manager timing one pipeline phase on both clocks."""

    __slots__ = ("telemetry", "name", "_span", "_event_span", "_wall0", "_virtual0")

    def __init__(self, telemetry: "Telemetry", name: str):
        self.telemetry = telemetry
        self.name = name

    def __enter__(self):
        tel = self.telemetry
        self._event_span = tel.events.phase_span(self.name)
        self._span = tel.tracer.span(
            self.name, cat="phase", args={"span": self._event_span}
        )
        self._span.__enter__()
        tel._phase_spans.append(self._event_span)
        tel.events.emit(
            "phase.start",
            tel.now_virtual(),
            fields={"phase": self.name},
            span=self._event_span,
        )
        self._wall0 = time.perf_counter()
        self._virtual0 = tel.now_virtual()
        return self

    def __exit__(self, exc_type, exc, tb):
        tel = self.telemetry
        self._span.__exit__(exc_type, exc, tb)
        if tel._phase_spans:
            tel._phase_spans.pop()
        if exc_type is not None:
            # A crashed phase records nothing: the journal never saw it
            # either, so the redo after resume counts it exactly once.
            return False
        key = (self.name,)
        tel._phase_runs.inc(key)
        virtual_dur = tel.now_virtual() - self._virtual0
        if virtual_dur > 0:
            tel._phase_virtual.inc(key, virtual_dur)
        tel._phase_wall.inc(key, int((time.perf_counter() - self._wall0) * 1e6))
        tel.events.emit(
            "phase.end",
            tel.now_virtual(),
            fields={"phase": self.name},
            span=self._event_span,
        )
        return False


class Telemetry:
    """Registry + tracer + phase profiler, with checkpoint plumbing."""

    def __init__(
        self,
        now_virtual=None,
        trace: bool = False,
        trace_sample: int = 16,
        max_trace_events: Optional[int] = None,
    ):
        self._now_virtual = now_virtual
        self.registry = MetricsRegistry()
        if trace:
            kwargs = {} if max_trace_events is None else {"max_events": max_trace_events}
            self.tracer = SpanTracer(
                now_virtual=self.now_virtual, sample_every=trace_sample, **kwargs
            )
        else:
            self.tracer = NullTracer()
        self.events = EventLog()
        self._phase_spans: list = []
        self._phase_runs = self.registry.counter("phase_runs_total", ("phase",))
        self._phase_virtual = self.registry.counter("phase_virtual_us_total", ("phase",))
        self._phase_wall = self.registry.counter(
            "phase_wall_us_total", ("phase",), volatile=True
        )

    # -- clocks ---------------------------------------------------------------

    def bind_now_virtual(self, fn) -> None:
        self._now_virtual = fn
        self.tracer.bind_now_virtual(fn)

    def now_virtual(self) -> int:
        fn = self._now_virtual
        return fn() if fn is not None else 0

    # -- phases ---------------------------------------------------------------

    def phase(self, name: str):
        """Time one named pipeline phase (wall + virtual + trace span)."""
        return _Phase(self, name)

    def reset_phase(self, name: str) -> None:
        """Zero one phase's series (for phases recounted by full replay).

        The simulation phase re-executes from scratch in every resumed
        process (the engine deterministically replays the whole world),
        so its checkpointed series must be dropped before the replay
        recounts it — the same recount-from-zero contract the engine's
        ``sim_*`` families follow.  The event log takes the opposite
        tack: journaled ``phase.start``/``phase.end`` events *stay* (the
        stream is append-only) and the replay's re-emissions are
        suppressed instead, so a resumed run reproduces the exact event
        stream of an uninterrupted one.
        """
        key = (name,)
        for family in (self._phase_runs, self._phase_virtual, self._phase_wall):
            family._data.pop(key, None)
        self.events.suppress_phase(name)

    def phase_rows(self) -> list[tuple]:
        """(phase, runs, virtual_us, wall_us) rows for the report."""
        rows = []
        for (name,), runs in sorted(self._phase_runs.items()):
            rows.append(
                (
                    name,
                    runs,
                    self._phase_virtual.get((name,)),
                    self._phase_wall.get((name,)),
                )
            )
        return rows

    # -- events ---------------------------------------------------------------

    @property
    def current_span(self) -> Optional[str]:
        """The innermost open phase's correlation id (None outside)."""
        return self._phase_spans[-1] if self._phase_spans else None

    @property
    def open_phases(self) -> list[str]:
        """Names of the phases open right now, outermost first.

        Read from the span ids (``phase:<name>#<n>``, see
        ``EventLog.phase_span``), which is the one stack of open phases.
        """
        return [span[len("phase:") :].rpartition("#")[0] for span in self._phase_spans]

    def emit_event(
        self,
        kind: str,
        fields: Optional[dict] = None,
        span: Optional[str] = None,
        volatile: bool = False,
    ) -> None:
        """Record a structured event at the current virtual instant.

        Defaults the correlation id to the enclosing phase span, so an
        event in ``events.jsonl`` joins its phase in ``trace.json``.
        """
        self.events.emit(
            kind,
            self.now_virtual(),
            fields=fields,
            span=span if span is not None else self.current_span,
            volatile=volatile,
        )

    # -- artefacts ------------------------------------------------------------

    def metrics_json(self) -> str:
        return self.registry.snapshot_json()

    def metrics_openmetrics(self) -> str:
        return self.registry.render_openmetrics()

    def events_jsonl(self, include_volatile: bool = True) -> str:
        return self.events.to_jsonl(include_volatile=include_volatile)

    # -- checkpoint plumbing ---------------------------------------------------

    def state(self) -> dict:
        """What the study journal persists for this telemetry."""
        return {"metrics": self.registry.state(), "events": self.events.state()}

    def adopt(self, state: Optional[dict]) -> None:
        if not state:
            return
        metrics = state.get("metrics")
        if metrics is not None:
            self.registry.adopt(metrics)
        self.events.adopt(state.get("events"))
