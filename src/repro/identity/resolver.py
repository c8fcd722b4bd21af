"""Unified DID resolution across the two supported methods.

``did:plc`` documents come from the (centralised) PLC directory;
``did:web`` documents from ``https://<fqdn>/.well-known/did.json``.
The resolver also exposes the bulk-download entry point the DID-document
collector uses for its weekly snapshot.
"""

from __future__ import annotations

from typing import Optional

from repro.identity.did import DidDocument, DidError, did_method, did_web_to_fqdn
from repro.identity.plc import PlcDirectory
from repro.netsim.web import WELL_KNOWN_DID_JSON, WebHostRegistry


class DidResolver:
    """Resolves any supported DID to its document."""

    def __init__(self, plc: PlcDirectory, web: WebHostRegistry):
        self.plc = plc
        self.web = web

    def resolve(self, did: str) -> Optional[DidDocument]:
        try:
            method = did_method(did)
        except DidError:
            return None
        if method == "plc":
            return self.plc.resolve(did)
        if method == "web":
            return self._resolve_web(did)
        return None

    def _resolve_web(self, did: str) -> Optional[DidDocument]:
        fqdn = did_web_to_fqdn(did)
        body = self.web.try_get(fqdn, WELL_KNOWN_DID_JSON)
        if body is None:
            return None
        import json

        try:
            doc = DidDocument.from_json(json.loads(body))
        except ValueError:  # not JSON, or DidError: not a DID document
            return None
        if doc.did != did:
            return None  # document must self-identify
        return doc


def publish_did_web_document(web: WebHostRegistry, doc: DidDocument) -> None:
    """Host a did:web document at its well-known location."""
    fqdn = did_web_to_fqdn(doc.did)
    web.serve_json(fqdn, WELL_KNOWN_DID_JSON, doc.to_json())
