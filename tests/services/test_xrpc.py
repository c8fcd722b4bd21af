"""Tests for the XRPC service directory."""

import pytest

from repro.services.xrpc import (
    REASON_UNKNOWN_HOST,
    ServiceDirectory,
    XrpcError,
    XrpcService,
)


class EchoService(XrpcService):
    xrpc_version = "1.0"  # an xrpc_ attribute that is not a handler

    def xrpc_echo(self, value):
        return {"value": value}

    def xrpc_fail(self):
        raise XrpcError(500, "boom")


class TestDirectory:
    def test_register_and_call(self):
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        result = directory.call("https://svc.test", "com.example.echo", value=42)
        assert result == {"value": 42}

    def test_url_normalization(self):
        directory = ServiceDirectory()
        directory.register("https://SVC.test/", EchoService())
        assert directory.call("https://svc.test", "com.example.echo", value=1) == {"value": 1}

    def test_unknown_host(self):
        directory = ServiceDirectory()
        with pytest.raises(XrpcError) as info:
            directory.call("https://nowhere.test", "com.example.echo")
        assert info.value.status == 0

    @pytest.mark.parametrize(
        "method", ["com.example.missing", "com.example.version"], ids=["missing", "not-callable"]
    )
    def test_unknown_method(self, method):
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        with pytest.raises(XrpcError) as info:
            directory.call("https://svc.test", method)
        assert info.value.status == 501

    def test_down_service(self):
        # An announced endpoint that no service answers is unreachable.
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        assert directory.is_reachable("https://svc.test")
        assert not directory.is_reachable("https://down.test")
        with pytest.raises(XrpcError) as info:
            directory.call("https://down.test", "com.example.echo", value=1)
        assert info.value.status == 0

    def test_try_call_swallows_transport_errors_only(self):
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        assert directory.try_call("https://nowhere.test", "com.example.echo") is None
        with pytest.raises(XrpcError):
            directory.try_call("https://svc.test", "com.example.fail")

    def test_call_counting(self):
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        directory.call("https://svc.test", "com.example.echo", value=1)
        directory.try_call("https://other.test", "com.example.echo")
        calls = directory.telemetry.registry.family("xrpc_calls_total")
        assert sum(value for _, value in calls.items()) == 2

    def test_unreachable_reasons_are_distinct(self):
        # A connection failure carries its reason; a service's own error
        # carries none, and neither is an injected fault.
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        with pytest.raises(XrpcError) as missing:
            directory.call("https://svc.test", "com.example.missing")
        with pytest.raises(XrpcError) as unknown:
            directory.call("https://nowhere.test", "com.example.echo")
        assert unknown.value.reason == REASON_UNKNOWN_HOST
        assert missing.value.reason != unknown.value.reason
        assert not missing.value.injected
        assert not unknown.value.injected

    def test_per_host_outcome_metrics(self):
        directory = ServiceDirectory()
        directory.register("https://svc.test", EchoService())
        directory.call("https://svc.test", "com.example.echo", value=1)
        directory.call("https://svc.test", "com.example.echo", value=2)
        with pytest.raises(XrpcError):
            directory.call("https://svc.test", "com.example.fail")
        directory.try_call("https://gone.test", "com.example.echo")
        calls = directory.telemetry.registry.family("xrpc_calls_total")
        assert calls.get(("https://svc.test", "com.example.echo", "ok")) == 2
        assert calls.get(("https://svc.test", "com.example.fail", "error-500")) == 1
        assert calls.get(
            ("https://gone.test", "com.example.echo", REASON_UNKNOWN_HOST)
        ) == 1
