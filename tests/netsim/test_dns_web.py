"""Tests for the simulated DNS and web layers."""

import json

import pytest

from repro.netsim.dns import (
    DnsRecordType,
    DnsResolver,
    DnsZone,
    NxDomain,
    ServFail,
)
from repro.netsim.web import WebError, WebHostRegistry


class TestDns:
    def test_txt_lookup(self):
        zone = DnsZone()
        zone.add("_atproto.example.com", DnsRecordType.TXT, "did=did:plc:abc")
        resolver = DnsResolver(zone)
        assert resolver.lookup_txt("_atproto.example.com") == ["did=did:plc:abc"]

    def test_case_insensitive(self):
        zone = DnsZone()
        zone.add("Example.COM", DnsRecordType.A, "192.0.2.1")
        assert DnsResolver(zone).lookup("example.com.", DnsRecordType.A) == ["192.0.2.1"]

    def test_nxdomain(self):
        resolver = DnsResolver(DnsZone())
        with pytest.raises(NxDomain):
            resolver.lookup("missing.example.com", DnsRecordType.TXT)

    def test_multiple_records(self):
        zone = DnsZone()
        zone.set("multi.example.com", DnsRecordType.TXT, ["a", "b"])
        assert sorted(DnsResolver(zone).lookup_txt("multi.example.com")) == ["a", "b"]

    def test_cname_chasing(self):
        zone = DnsZone()
        zone.add("alias.example.com", DnsRecordType.CNAME, "target.example.com")
        zone.add("target.example.com", DnsRecordType.A, "192.0.2.9")
        assert DnsResolver(zone).lookup("alias.example.com", DnsRecordType.A) == ["192.0.2.9"]

    def test_cname_loop_detected(self):
        zone = DnsZone()
        zone.add("a.example.com", DnsRecordType.CNAME, "b.example.com")
        zone.add("b.example.com", DnsRecordType.CNAME, "a.example.com")
        with pytest.raises(ServFail):
            DnsResolver(zone).lookup("a.example.com", DnsRecordType.A)

    def test_servfail_injection(self):
        zone = DnsZone()
        zone.add("flaky.example.com", DnsRecordType.TXT, "x")
        zone.failing_names.add("flaky.example.com")
        with pytest.raises(ServFail):
            DnsResolver(zone).lookup_txt("flaky.example.com")

    def test_try_lookup_swallows_failures(self):
        resolver = DnsResolver(DnsZone())
        assert resolver.try_lookup_txt("missing.example.com") is None

    def test_remove(self):
        zone = DnsZone()
        zone.add("x.example.com", DnsRecordType.TXT, "v")
        zone.set("x.example.com", DnsRecordType.TXT, [])
        with pytest.raises(NxDomain):
            DnsResolver(zone).lookup_txt("x.example.com")


class TestWeb:
    def test_serve_and_get(self):
        web = WebHostRegistry()
        web.serve("example.com", "/.well-known/atproto-did", "did:plc:abc")
        assert web.get("example.com", "/.well-known/atproto-did") == "did:plc:abc"

    def test_host_case_insensitive(self):
        web = WebHostRegistry()
        web.serve("Example.COM", "/x", "body")
        assert web.get("example.com", "/x") == "body"

    def test_404(self):
        web = WebHostRegistry()
        web.serve("example.com", "/a", "x")
        with pytest.raises(WebError) as info:
            web.get("example.com", "/b")
        assert info.value.status == 404

    def test_unknown_host(self):
        with pytest.raises(WebError):
            WebHostRegistry().get("nowhere.com", "/")

    def test_host_down(self):
        web = WebHostRegistry()
        web.serve("example.com", "/a", "x")
        web.host("example.com").down = True
        with pytest.raises(WebError):
            web.get("example.com", "/a")
        web.host("example.com").down = False
        assert web.get("example.com", "/a") == "x"

    def test_json_round_trip(self):
        web = WebHostRegistry()
        web.serve_json("example.com", "/doc", {"k": [1, 2]})
        assert json.loads(web.get("example.com", "/doc")) == {"k": [1, 2]}

    def test_try_get(self):
        web = WebHostRegistry()
        assert web.try_get("nope.com", "/") is None

    def test_remove_path(self):
        web = WebHostRegistry()
        web.serve("example.com", "/a", "x")
        del web.host("example.com").paths["/a"]
        assert web.try_get("example.com", "/a") is None
