"""XRPC-style service addressing.

Real ATProto services expose XRPC methods (``com.atproto.sync.getRepo`` and
friends) over HTTPS.  In the simulator every service object registers under
its endpoint URL; callers dispatch ``call(url, nsid, **params)`` and the
directory routes to the service's ``xrpc_<name>`` method.  This keeps the
collector code shaped like a real crawler (endpoint URL + method NSID +
query params) while staying in-process.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.telemetry import Telemetry

#: Connection-error taxonomy carried on :class:`XrpcError.reason` so
#: telemetry and the health report can attribute status-0 failures.
REASON_UNKNOWN_HOST = "unknown-host"
REASON_INJECTED_OUTAGE = "injected-outage"
REASON_INJECTED_TIMEOUT = "injected-timeout"
REASON_INJECTED_FLAKY = "injected-flaky"


class XrpcError(Exception):
    """A failed XRPC call (unknown host, unknown method, upstream error).

    ``injected`` marks errors raised by the fault-injection gate rather
    than the service itself — transient by construction, so best-effort
    callers (:meth:`ServiceDirectory.try_call`) may treat them like
    connection failures instead of semantic errors.

    ``reason`` distinguishes the connection-error flavours that all share
    status 0 on the wire (unknown host vs host marked down vs injected
    outage); ``latency_us`` is virtual time the failed attempt still
    consumed (an injected timeout burns its full budget before failing).
    """

    def __init__(
        self,
        status: int,
        message: str,
        injected: bool = False,
        reason: Optional[str] = None,
        latency_us: int = 0,
    ):
        super().__init__("XRPC %d: %s" % (status, message))
        self.status = status
        self.injected = injected
        self.reason = reason
        self.latency_us = latency_us


class XrpcService:
    """Base class of a service: :meth:`ServiceDirectory.call` dispatches a
    method NSID to the service's ``xrpc_<name>`` method."""


class ServiceDirectory:
    """URL → service registry with reachability faults.

    A service that announces an endpoint but never registers it is
    unreachable — the paper finds 26% of announced Labelers and ~7% of
    Feed Generators unreachable, and the collectors must observe those
    failures the same way a real crawler does (as connection errors).

    ``fault_injector`` (a :class:`repro.netsim.faults.FaultInjector`) is
    consulted before every dispatch to a *reachable* host: it may raise
    transient or permanent :class:`XrpcError`\\ s and may charge latency,
    which callers that track virtual time read back from
    ``last_call_latency_us``.  Unreachable (unregistered) hosts fail
    before the fault gate — a connection that never opens cannot be
    slow.  ``now_us`` is the directory's notion of current virtual time;
    callers making timed calls set it so time-windowed faults (outages)
    apply correctly.

    Every dispatch attempt counts into the telemetry registry labelled by
    host, method NSID, and outcome; injected latency adds up in
    ``xrpc_injected_latency_us_total``.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None):
        self._services: dict[str, XrpcService] = {}
        self.fault_injector = None
        self.adversary = None
        self.now_us = 0
        self.last_call_latency_us = 0
        self.set_telemetry(telemetry if telemetry is not None else Telemetry())

    def set_telemetry(self, telemetry: Telemetry) -> None:
        """(Re)bind the registry families this directory counts into."""
        self.telemetry = telemetry
        registry = telemetry.registry
        self._m_calls = registry.counter("xrpc_calls_total", ("host", "method", "outcome"))
        self._m_injected = registry.counter("xrpc_injected_latency_us_total")

    def register(self, url: str, service: XrpcService) -> None:
        self._services[self._norm(url)] = service

    def is_reachable(self, url: str) -> bool:
        return self._norm(url) in self._services

    def call(self, url: str, method: str, **params: Any) -> Any:
        """Dispatch an XRPC call to the service behind ``url``."""
        normalized = self._norm(url)
        self.last_call_latency_us = 0
        tracer = self.telemetry.tracer
        trace_this = tracer.enabled and tracer.sampled("xrpc")
        wall0 = tracer.wall_us() if trace_this else 0.0
        outcome = "ok"
        try:
            service = self._services.get(normalized)
            if service is None:
                raise XrpcError(0, "unknown host %s" % url, reason=REASON_UNKNOWN_HOST)
            if self.fault_injector is not None:
                latency = self.fault_injector.before_call(normalized, method, self.now_us)
                if latency:
                    self.last_call_latency_us = latency
                    self._m_injected.inc((), latency)
            handler = getattr(service, "xrpc_" + method.rsplit(".", 1)[-1], None)
            if not callable(handler):
                raise XrpcError(
                    501, "%s not implemented by %s" % (method, type(service).__name__)
                )
            result = handler(**params)
            if self.adversary is not None:
                # Byzantine hosts answer, but may answer with tampered bytes;
                # the adversary rewrites responses in flight, after the honest
                # service produced them.
                result = self.adversary.after_call(normalized, method, params, result)
            return result
        except XrpcError as exc:
            if exc.latency_us:
                # A failed attempt can still consume virtual time (an
                # injected timeout burns its full budget before erroring).
                self.last_call_latency_us = exc.latency_us
                self._m_injected.inc((), exc.latency_us)
            outcome = exc.reason or ("error-%d" % exc.status)
            if exc.injected:
                # Structured record of every fault-gate hit, correlated
                # to the enclosing pipeline phase.  Deterministic: the
                # injector draws from the seeded plan on virtual time.
                self.telemetry.emit_event(
                    "fault.injected",
                    fields={
                        "host": normalized,
                        "method": method,
                        "reason": outcome,
                        "latency_us": exc.latency_us,
                    },
                )
            raise
        finally:
            self._m_calls.inc((normalized, method, outcome))
            if trace_this:
                tracer.complete(
                    method,
                    "xrpc",
                    wall0,
                    args={"host": normalized, "outcome": outcome},
                    virtual_ts_us=self.now_us,
                    virtual_dur_us=self.last_call_latency_us,
                )

    def try_call(self, url: str, method: str, **params: Any) -> Any:
        """Like :meth:`call` but returns None on transport failure.

        Transport errors (status 0) and injected transient faults both
        come back as None; semantic errors raised by the service itself
        (404, 500 from a handler body, ...) still propagate.
        """
        try:
            return self.call(url, method, **params)
        except XrpcError as exc:
            if exc.status == 0 or exc.injected:
                return None
            raise

    @staticmethod
    def _norm(url: str) -> str:
        return url.rstrip("/").lower()
