"""A simulated HTTPS surface.

Hosts map paths to response bodies.  Used for ``did:web`` documents
(``/.well-known/did.json``) and the well-known handle-verification file
(``/.well-known/atproto-did``).  Hosts can be marked down to exercise the
collectors' error handling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

WELL_KNOWN_ATPROTO_DID = "/.well-known/atproto-did"
WELL_KNOWN_DID_JSON = "/.well-known/did.json"


class WebError(Exception):
    """A failed HTTPS fetch (connection refused, 404, 5xx...)."""

    def __init__(self, status: int, message: str = ""):
        super().__init__("HTTP %d %s" % (status, message))
        self.status = status


@dataclass
class _Host:
    paths: dict[str, str] = field(default_factory=dict)
    down: bool = False


class WebHostRegistry:
    """All simulated HTTPS hosts, addressed by lowercase FQDN."""

    def __init__(self):
        self._hosts: dict[str, _Host] = {}

    def host(self, fqdn: str) -> _Host:
        return self._hosts.setdefault(fqdn.lower(), _Host())

    def serve(self, fqdn: str, path: str, body: str) -> None:
        self.host(fqdn).paths[path] = body

    def serve_json(self, fqdn: str, path: str, payload: dict) -> None:
        self.serve(fqdn, path, json.dumps(payload, sort_keys=True))

    def get(self, fqdn: str, path: str) -> str:
        """Fetch https://<fqdn><path>; raises WebError on any failure."""
        host = self._hosts.get(fqdn.lower())
        if host is None or host.down:
            raise WebError(0, "connection failed to %s" % fqdn)
        body = host.paths.get(path)
        if body is None:
            raise WebError(404, "%s%s" % (fqdn, path))
        return body

    def try_get(self, fqdn: str, path: str) -> Optional[str]:
        try:
            return self.get(fqdn, path)
        except WebError:
            return None
