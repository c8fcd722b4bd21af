"""IP addressing and hosting classes.

Section 6.1 of the paper classifies labeler endpoints by their IP
addresses: 65% on cloud/reverse-proxied infrastructure, 10% on residential
ISP addresses, and 26% unreachable.  This module provides the address
allocator and classifier that analysis runs against.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass
from typing import Optional


class HostingClass(enum.Enum):
    CLOUD = "cloud"
    RESIDENTIAL = "residential"
    PROXY = "proxy"  # reverse-proxied (CDN front); grouped with cloud in §6.1


# Allocation pools per hosting class (documentation/test ranges, so the
# simulated addresses can never collide with real infrastructure).
_POOLS = {
    HostingClass.CLOUD: ipaddress.ip_network("198.51.100.0/24"),
    HostingClass.PROXY: ipaddress.ip_network("203.0.113.0/24"),
    HostingClass.RESIDENTIAL: ipaddress.ip_network("192.0.2.0/24"),
}


@dataclass(frozen=True)
class HostAddress:
    ip: str
    hosting_class: HostingClass


class IpAllocator:
    """Hands out addresses from per-class pools and remembers assignments."""

    def __init__(self):
        self._next_index = {cls: 1 for cls in HostingClass}
        self._by_host: dict[str, HostAddress] = {}

    def allocate(self, hostname: str, hosting_class: HostingClass) -> HostAddress:
        existing = self._by_host.get(hostname)
        if existing is not None:
            return existing
        pool = _POOLS[hosting_class]
        index = self._next_index[hosting_class]
        if index >= pool.num_addresses - 1:
            # Wrap around: the simulation only needs class membership, and
            # pools are /24s while labeler counts are in the dozens.
            index = 1
        self._next_index[hosting_class] = index + 1
        address = HostAddress(str(pool[index]), hosting_class)
        self._by_host[hostname] = address
        return address

    @staticmethod
    def classify(ip: str) -> Optional[HostingClass]:
        """Classify an IP back into its hosting class (the measurement side)."""
        address = ipaddress.ip_address(ip)
        for hosting_class, pool in _POOLS.items():
            if address in pool:
                return hosting_class
        return None
