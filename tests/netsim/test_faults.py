"""Tests for the deterministic fault-injection subsystem."""

import pytest

from repro.netsim.faults import (
    DEFAULT_RETRY_POLICY,
    TARGET_DNS,
    TARGET_IDENTITY,
    TRANSIENT_STATUSES,
    Disconnect,
    FaultInjector,
    FaultPlan,
    FlakyRule,
    Outage,
    RetryPolicy,
    SlowHost,
    call_with_retries,
)
from repro.services.xrpc import ServiceDirectory, XrpcError, XrpcService

US = 1_000_000
HOUR = 3600 * US
RELAY = "https://relay.test"


class EchoService(XrpcService):
    """Answers every call; counts how many got through the fault gate."""

    def __init__(self):
        self.calls = 0

    def xrpc_ping(self, **params):
        self.calls += 1
        return {"ok": True, **params}


def injected_latency_us(services) -> int:
    family = services.telemetry.registry.family("xrpc_injected_latency_us_total")
    return family.get()


def wired(plan=None):
    services = ServiceDirectory()
    echo = EchoService()
    services.register(RELAY, echo)
    if plan is not None:
        services.fault_injector = FaultInjector(plan)
    return services, echo


class TestOutage:
    def test_calls_fail_inside_window_only(self):
        plan = FaultPlan(outages=(Outage(RELAY, start_us=HOUR, end_us=2 * HOUR),))
        services, echo = wired(plan)
        services.now_us = 0
        assert services.call(RELAY, "x.ping")["ok"]
        services.now_us = HOUR + 1
        with pytest.raises(XrpcError) as excinfo:
            services.call(RELAY, "x.ping")
        assert excinfo.value.status == 0
        services.now_us = 2 * HOUR  # end is exclusive: service is back
        assert services.call(RELAY, "x.ping")["ok"]
        assert echo.calls == 2

    def test_outage_matches_by_prefix(self):
        plan = FaultPlan(outages=(Outage("https://other.test", 0, HOUR),))
        services, echo = wired(plan)
        assert services.call(RELAY, "x.ping")["ok"]  # different host unaffected


class TestFlaky:
    def test_probability_zero_never_fires(self):
        plan = FaultPlan(flaky=(FlakyRule(url=RELAY, probability=0.0),))
        services, _ = wired(plan)
        for _ in range(50):
            assert services.call(RELAY, "x.ping")["ok"]

    def test_probability_one_always_fires_with_listed_status(self):
        plan = FaultPlan(flaky=(FlakyRule(url=RELAY, probability=1.0, statuses=(429,)),))
        services, echo = wired(plan)
        for _ in range(5):
            with pytest.raises(XrpcError) as excinfo:
                services.call(RELAY, "x.ping")
            assert excinfo.value.status == 429
        assert echo.calls == 0

    def test_stats_account_injections(self):
        plan = FaultPlan(flaky=(FlakyRule(url=RELAY, probability=1.0, statuses=(503,)),))
        services, _ = wired(plan)
        for _ in range(3):
            with pytest.raises(XrpcError):
                services.call(RELAY, "x.ping")
        stats = services.fault_injector.stats
        assert stats.injected_by_kind["flaky"] == 3
        assert stats.injected_by_status[503] == 3
        assert stats.calls_seen == 3

    def test_pseudo_target_raise_transient(self):
        plan = FaultPlan(
            flaky=(FlakyRule(url=TARGET_IDENTITY, probability=1.0, statuses=(500,)),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(XrpcError):
            injector.raise_transient(TARGET_IDENTITY, now_us=0)
        injector.raise_transient(TARGET_DNS, now_us=0)  # unmatched: no raise


class TestSlowHost:
    def test_latency_charged_and_readable(self):
        plan = FaultPlan(slow_hosts=(SlowHost(RELAY, base_latency_us=250_000),))
        services, _ = wired(plan)
        assert services.call(RELAY, "x.ping")["ok"]
        assert services.last_call_latency_us == 250_000
        assert injected_latency_us(services) == 250_000

    def test_guaranteed_timeout(self):
        plan = FaultPlan(
            slow_hosts=(SlowHost(RELAY, base_latency_us=100, timeout_probability=1.0),)
        )
        services, echo = wired(plan)
        with pytest.raises(XrpcError) as excinfo:
            services.call(RELAY, "x.ping")
        assert excinfo.value.status == 408
        assert echo.calls == 0

    def test_timeout_charges_its_wait(self):
        # A timed-out call still burned the timeout window: the error
        # carries that latency and the directory charges it.
        plan = FaultPlan(
            slow_hosts=(
                SlowHost(RELAY, base_latency_us=100, timeout_probability=1.0,
                         timeout_us=30 * US),
            )
        )
        services, _ = wired(plan)
        with pytest.raises(XrpcError) as excinfo:
            services.call(RELAY, "x.ping")
        assert excinfo.value.latency_us == 30 * US
        assert services.last_call_latency_us == 30 * US

    def test_unreachable_host_charges_no_fault_latency(self):
        # Reachability is decided before the fault gate: a connection
        # that never opens cannot be slow, and the injector never sees
        # the dispatch.
        down = "https://down.test"  # announced, but no service answers
        plan = FaultPlan(slow_hosts=(SlowHost(down, base_latency_us=250_000),))
        services, _ = wired(plan)
        with pytest.raises(XrpcError) as excinfo:
            services.call(down, "x.ping")
        assert excinfo.value.latency_us == 0
        assert services.last_call_latency_us == 0
        assert injected_latency_us(services) == 0
        assert services.fault_injector.stats.calls_seen == 0
        with pytest.raises(XrpcError):
            services.call("https://nowhere.test", "x.ping")
        assert services.last_call_latency_us == 0
        assert services.fault_injector.stats.calls_seen == 0


class TestDisconnectWindows:
    def test_plan_reports_disconnected(self):
        plan = FaultPlan(disconnects=(Disconnect(HOUR, 2 * HOUR),))
        assert not plan.is_disconnected(HOUR - 1)
        assert plan.is_disconnected(HOUR)
        assert plan.is_disconnected(2 * HOUR - 1)
        assert not plan.is_disconnected(2 * HOUR)


class TestRetryPolicy:
    def test_transient_statuses_retryable(self):
        policy = RetryPolicy()
        for status in TRANSIENT_STATUSES:
            assert policy.is_retryable(status)
        assert not policy.is_retryable(404)
        assert not policy.is_retryable(501)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_us=US, multiplier=2.0, max_backoff_us=5 * US)
        waits = [policy.backoff_us(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert waits == [US, 2 * US, 4 * US, 5 * US, 5 * US]

    def test_jitter_is_deterministic_per_seed(self):
        import random

        policy = RetryPolicy()
        a = [policy.backoff_us(i, random.Random(7)) for i in (1, 2, 3)]
        b = [policy.backoff_us(i, random.Random(7)) for i in (1, 2, 3)]
        assert a == b


class TestCallWithRetries:
    def test_transient_errors_absorbed(self):
        # Flaky with p=1 for the first window only; the retry clock walks
        # the call out of the window and it then succeeds.
        plan = FaultPlan(
            flaky=(FlakyRule(url=RELAY, probability=1.0, statuses=(503,), end_us=2 * US),)
        )
        services, echo = wired(plan)
        result, t = call_with_retries(
            services, RELAY, "x.ping", now_us=0, policy=DEFAULT_RETRY_POLICY
        )
        assert result["ok"]
        assert echo.calls == 1
        assert t >= 2 * US  # backoff time was accounted for

    def test_exhausted_retries_reraise(self):
        plan = FaultPlan(flaky=(FlakyRule(url=RELAY, probability=1.0, statuses=(503,)),))
        services, _ = wired(plan)
        from collections import Counter

        counters = Counter()
        with pytest.raises(XrpcError):
            call_with_retries(services, RELAY, "x.ping", now_us=0, counters=counters)
        assert counters["attempts"] == DEFAULT_RETRY_POLICY.max_attempts
        assert counters["retries"] == DEFAULT_RETRY_POLICY.max_attempts - 1

    def test_non_retryable_fails_fast(self):
        services, _ = wired()
        from collections import Counter

        counters = Counter()
        with pytest.raises(XrpcError):
            call_with_retries(
                services, RELAY, "x.nosuchmethod", now_us=0, counters=counters
            )
        assert counters["attempts"] == 1  # 501 is not transient

    def test_result_time_includes_injected_latency(self):
        plan = FaultPlan(slow_hosts=(SlowHost(RELAY, base_latency_us=300_000),))
        services, _ = wired(plan)
        _, t = call_with_retries(services, RELAY, "x.ping", now_us=1000)
        assert t == 1000 + 300_000


class TestPlanDeterminism:
    def test_recoverable_plan_reproducible(self):
        a = FaultPlan.recoverable(7, 0, 30 * 24 * HOUR)
        b = FaultPlan.recoverable(7, 0, 30 * 24 * HOUR)
        assert a == b
        c = FaultPlan.recoverable(8, 0, 30 * 24 * HOUR)
        assert a != c

    def test_recoverable_plan_is_recoverable(self):
        start, end = 0, 55 * 24 * HOUR
        plan = FaultPlan.recoverable(2024, start, end)
        for window in plan.disconnects:
            assert window.end_us - window.start_us <= 8 * HOUR  # « 3-day retention
            assert window.end_us < end
        for outage in plan.outages:
            assert outage.end_us < end

    def test_injector_draw_sequence_reproducible(self):
        plan = FaultPlan(flaky=(FlakyRule(url=RELAY, probability=0.5, statuses=(429, 503)),))

        def outcomes():
            services, _ = wired(plan)
            seen = []
            for _ in range(40):
                try:
                    services.call(RELAY, "x.ping")
                    seen.append("ok")
                except XrpcError as exc:
                    seen.append(exc.status)
            return seen

        assert outcomes() == outcomes()
