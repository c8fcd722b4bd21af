"""Observability: metrics registry, span tracer, per-phase profiling.

``repro.obs`` is the always-on telemetry substrate of the study.  It has
one mode: the registry and the event log always record, and only the
span tracer is opt-in (``--trace-out``).


* :mod:`repro.obs.metrics` — counters and gauges with
  near-zero-allocation hot-path increments, a deterministic JSON
  snapshot (``metrics.json``) and its OpenMetrics rendering
  (``metrics.prom``);
* :mod:`repro.obs.trace` — a span tracer recording both wall time and
  virtual (simulation) time, exporting Chrome ``trace_event`` JSON
  viewable in ``chrome://tracing`` / Perfetto (``trace.json``);
* :mod:`repro.obs.telemetry` — the facade the pipeline wires through
  every choke point (``ServiceDirectory.call``, the collectors, the
  engine day loop, checkpoint save/resume);
* :mod:`repro.obs.profile` — report-side helpers: top-N hosts/NSIDs by
  calls and errors, call outcomes, and the finalize pass that derives
  retry/quarantine series from the datasets;
* :mod:`repro.obs.events` — the deterministic structured event log
  (``events.jsonl``);
* :mod:`repro.obs.top` — the live dashboard, ``python -m repro top``.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NullTracer, SpanTracer, validate_trace

__all__ = [
    "MetricsRegistry",
    "Telemetry",
    "NullTracer",
    "SpanTracer",
    "validate_trace",
]
