"""A simulated DNS.

Supports the record types the measurement pipeline needs: TXT (handle
verification via ``_atproto.<handle>``), A (labeler IP analysis), and
CNAME.  Lookups are case-insensitive and return NXDOMAIN for absent names,
letting collector code handle failures exactly as against real DNS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional


class DnsRecordType(enum.Enum):
    A = "A"
    TXT = "TXT"
    CNAME = "CNAME"


class DnsError(Exception):
    """Base class for resolver failures."""


class NxDomain(DnsError):
    """The queried name does not exist."""


class ServFail(DnsError):
    """The authoritative server failed (used for fault injection)."""


def normalize_name(name: str) -> str:
    return name.rstrip(".").lower()


@dataclass
class DnsZone:
    """A flat record store; one global zone is enough for the simulator."""

    records: dict[tuple[str, DnsRecordType], list[str]] = field(default_factory=dict)
    failing_names: set = field(default_factory=set)

    def add(self, name: str, rtype: DnsRecordType, value: str) -> None:
        key = (normalize_name(name), rtype)
        self.records.setdefault(key, []).append(value)

    def set(self, name: str, rtype: DnsRecordType, values: Iterable[str]) -> None:
        self.records[(normalize_name(name), rtype)] = list(values)

class DnsResolver:
    """Resolver over a zone, with CNAME chasing."""

    MAX_CNAME_DEPTH = 8

    def __init__(self, zone: DnsZone):
        self.zone = zone

    def lookup(self, name: str, rtype: DnsRecordType) -> list[str]:
        """Resolve a name; raises NxDomain / ServFail like real DNS."""
        name = normalize_name(name)
        depth = 0
        while True:
            if name in self.zone.failing_names:
                raise ServFail(name)
            values = self.zone.records.get((name, rtype))
            if values:
                return list(values)
            cname = self.zone.records.get((name, DnsRecordType.CNAME))
            if cname:
                depth += 1
                if depth > self.MAX_CNAME_DEPTH:
                    raise ServFail("CNAME chain too long at %s" % name)
                name = normalize_name(cname[0])
                continue
            raise NxDomain(name)

    def lookup_txt(self, name: str) -> list[str]:
        return self.lookup(name, DnsRecordType.TXT)

    def try_lookup_txt(self, name: str) -> Optional[list[str]]:
        """TXT lookup returning None instead of raising on failure."""
        try:
            return self.lookup_txt(name)
        except DnsError:
            return None
