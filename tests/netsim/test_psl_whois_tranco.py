"""Tests for PSL, WHOIS/registrars, Tranco ranking, and hosting classes."""

import pytest

from repro.netsim.hosting import HostingClass, IpAllocator
from repro.netsim.psl import PslError, PublicSuffixList, default_psl
from repro.netsim.tranco import TrancoList
from repro.netsim.whois import (
    PAPER_REGISTRARS,
    Registrar,
    RegistrarDatabase,
    WhoisService,
    cctld_registrars,
    long_tail_registrars,
)


class TestPsl:
    def test_simple_tld(self):
        psl = default_psl()
        assert psl.registered_domain("alice.example.com") == "example.com"

    def test_multi_label_suffix(self):
        psl = default_psl()
        assert psl.registered_domain("shop.example.co.uk") == "example.co.uk"

    def test_domain_equal_to_suffix(self):
        psl = default_psl()
        assert psl.registered_domain("com") is None
        assert psl.registered_domain("co.uk") is None

    def test_unknown_tld_behaves_as_suffix(self):
        psl = default_psl()
        assert psl.registered_domain("foo.bar.unknowntld") == "bar.unknowntld"

    def test_private_section_excluded_by_default(self):
        # Paper counts github.io pages as subdomains of one registered domain.
        psl = default_psl()
        assert psl.registered_domain("alice.github.io") == "github.io"

    def test_private_section_opt_in(self):
        psl = default_psl()
        # With the private section, each user site is its own registrable name.
        assert (
            psl.registered_domain("alice.github.io", include_private=True)
            == "alice.github.io"
        )
        assert (
            psl.registered_domain("blog.alice.github.io", include_private=True)
            == "alice.github.io"
        )

    def test_wildcard_rule(self):
        psl = default_psl()
        assert psl.registered_domain("www.example.foo.ck") == "example.foo.ck"

    def test_exception_rule(self):
        psl = default_psl()
        assert psl.registered_domain("www.ck") == "www.ck"

    def test_empty_domain_raises(self):
        with pytest.raises(PslError):
            default_psl().registered_domain("")

    def test_empty_label_raises(self):
        with pytest.raises(PslError):
            default_psl().registered_domain("a..b.com")

    def test_normalization(self):
        psl = default_psl()
        assert psl.registered_domain("  Alice.Example.COM. ") == "example.com"


class TestRegistrars:
    def test_paper_registrars_have_real_iana_ids(self):
        by_name = {r.name: r for r in PAPER_REGISTRARS}
        assert by_name["NameCheap, Inc."].iana_id == 1068
        assert by_name["CloudFlare, Inc."].iana_id == 1910
        assert by_name["GoDaddy.com, LLC"].iana_id == 146

    def test_database(self):
        db = RegistrarDatabase()
        assert db.get("Porkbun, LLC").iana_id == 1861
        db.add(Registrar(9999, "Test Registrar"))
        assert len(db) == len(PAPER_REGISTRARS) + 1

    def test_long_tail_factory(self):
        tail = long_tail_registrars(10)
        assert len({r.iana_id for r in tail}) == 10

    def test_cctld_registrars_have_no_iana_id(self):
        for registrar in cctld_registrars(3):
            assert registrar.iana_id is None
            assert not registrar.icann_accredited


class TestWhois:
    def make_service(self):
        db = RegistrarDatabase()
        return WhoisService(db), db

    def test_register_and_query(self):
        service, db = self.make_service()
        service.register("example.com", db.get("NameCheap, Inc."))
        record = service.query("example.com")
        assert record.iana_id == 1068
        assert record.registrar_name == "NameCheap, Inc."

    def test_cctld_registrar_omits_iana_id(self):
        service, _ = self.make_service()
        cctld = cctld_registrars(1)[0]
        service.register("example.de", cctld)
        assert service.query("example.de").iana_id is None
        assert service.query("example.de").registrar_name == cctld.name

    def test_redaction_flag(self):
        service, db = self.make_service()
        service.register("hidden.com", db.get("GoDaddy.com, LLC"), redact_iana_id=True)
        assert service.query("hidden.com").iana_id is None

    def test_unresponsive_domain(self):
        service, db = self.make_service()
        service.register("slow.com", db.get("Porkbun, LLC"))
        service.mark_unresponsive("slow.com")
        assert service.query("slow.com") is None

    def test_unknown_domain(self):
        service, _ = self.make_service()
        assert service.query("unregistered.com") is None


class TestTranco:
    def test_seed_domains_ranked(self):
        ranking = TrancoList()
        assert ranking.in_top("cloudflare.com")
        assert ranking.rank("amazonaws.com") is not None

    def test_unranked_domain(self):
        assert TrancoList().rank("my-small-blog.example") is None

    def test_append_is_idempotent(self):
        ranking = TrancoList()
        first = ranking.append("newdomain.com")
        second = ranking.append("newdomain.com")
        assert first == second

    def test_rank_ordering(self):
        ranking = TrancoList(domains=["first.com", "second.com"])
        assert ranking.rank("first.com") < ranking.rank("second.com")

    def test_top_n_cut(self):
        ranking = TrancoList(domains=["a.com", "b.com", "c.com"])
        assert ranking.in_top("a.com", top_n=1)
        assert not ranking.in_top("c.com", top_n=1)

    def test_cap(self):
        ranking = TrancoList(domains=[], size_cap=2)
        ranking.append("a.com")
        ranking.append("b.com")
        with pytest.raises(ValueError):
            ranking.append("c.com")


class TestHosting:
    def test_allocation_and_classification(self):
        allocator = IpAllocator()
        address = allocator.allocate("labeler.example.com", HostingClass.CLOUD)
        assert IpAllocator.classify(address.ip) == HostingClass.CLOUD

    def test_allocation_is_stable(self):
        allocator = IpAllocator()
        first = allocator.allocate("x.com", HostingClass.RESIDENTIAL)
        second = allocator.allocate("x.com", HostingClass.RESIDENTIAL)
        assert first == second

    def test_distinct_hosts_distinct_ips(self):
        allocator = IpAllocator()
        a = allocator.allocate("a.com", HostingClass.PROXY)
        b = allocator.allocate("b.com", HostingClass.PROXY)
        assert a.ip != b.ip

    def test_unknown_ip_classifies_none(self):
        assert IpAllocator.classify("8.8.8.8") is None

    def test_address_of(self):
        # A host keeps the address it was first given.
        allocator = IpAllocator()
        first = allocator.allocate("ghost.com", HostingClass.CLOUD)
        assert allocator.allocate("ghost.com", HostingClass.CLOUD) == first
