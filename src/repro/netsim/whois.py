"""Registrars and WHOIS.

Models the behaviour the paper's registrar-concentration measurement
(Table 2) depends on:

* a registrar database keyed by IANA ID (Namecheap 1068, Cloudflare 1910,
  Squarespace 895, GoDaddy 146, Porkbun 1861, Tucows 69, GMO 81/1796, ...),
* per-domain WHOIS records,
* realistic failure modes — some domains return no WHOIS data at all
  (the paper reached 92%), and ccTLD registries often omit the IANA ID
  (IANA IDs were extracted for only 76% of scanned names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Registrar:
    iana_id: Optional[int]
    name: str
    icann_accredited: bool = True


# Registrars named in Table 2 of the paper, with their real IANA IDs, plus a
# long tail used to reach the paper's "249 registrars" diversity.
PAPER_REGISTRARS = (
    Registrar(1068, "NameCheap, Inc."),
    Registrar(1910, "CloudFlare, Inc."),
    Registrar(895, "Squarespace Domains"),
    Registrar(146, "GoDaddy.com, LLC"),
    Registrar(1861, "Porkbun, LLC"),
    Registrar(69, "Tucows Domains Inc."),
    Registrar(1796, "GMO Internet Group"),
)


def long_tail_registrars(count: int) -> list[Registrar]:
    """Synthetic small registrars filling out the distribution's tail."""
    out = []
    for index in range(count):
        out.append(Registrar(3000 + index, "Registrar %03d LLC" % index))
    return out


def cctld_registrars(count: int) -> list[Registrar]:
    """Locally accredited ccTLD registrars that expose no IANA ID."""
    out = []
    for index in range(count):
        out.append(
            Registrar(None, "ccTLD Registry Partner %02d" % index, icann_accredited=False)
        )
    return out


@dataclass
class WhoisRecord:
    domain: str
    registrar_name: Optional[str]
    iana_id: Optional[int]
    created: Optional[str] = None


class RegistrarDatabase:
    """All registrars known to the simulation."""

    def __init__(self, registrars: Optional[list[Registrar]] = None):
        self._by_name: dict[str, Registrar] = {}
        for registrar in registrars or list(PAPER_REGISTRARS):
            self.add(registrar)

    def add(self, registrar: Registrar) -> None:
        self._by_name[registrar.name] = registrar

    def get(self, name: str) -> Optional[Registrar]:
        return self._by_name.get(name)

    def __len__(self) -> int:
        return len(self._by_name)


class WhoisService:
    """Serves WHOIS records for registered domains.

    ``register`` assigns a domain to a registrar; ``query`` models the two
    data-quality failure modes the paper reports: domains with no WHOIS
    response, and responses without an IANA ID (non-ICANN ccTLD registrars
    never publish one; for others the caller can mark redaction).
    """

    def __init__(self, registrars: RegistrarDatabase):
        self.registrars = registrars
        self._records: dict[str, WhoisRecord] = {}
        self._unresponsive: set[str] = set()

    def register(
        self,
        domain: str,
        registrar: Registrar,
        created: Optional[str] = None,
        redact_iana_id: bool = False,
    ) -> None:
        iana_id = None if (redact_iana_id or not registrar.icann_accredited) else registrar.iana_id
        self._records[domain.lower()] = WhoisRecord(
            domain=domain.lower(),
            registrar_name=registrar.name,
            iana_id=iana_id,
            created=created,
        )

    def mark_unresponsive(self, domain: str) -> None:
        """The WHOIS server for this domain never answers (paper: ~8%)."""
        self._unresponsive.add(domain.lower())

    def query(self, domain: str) -> Optional[WhoisRecord]:
        """WHOIS lookup; None models a failed/timed-out query."""
        domain = domain.lower()
        if domain in self._unresponsive:
            return None
        return self._records.get(domain)
