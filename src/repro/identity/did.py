"""DIDs and DID documents.

A DID document carries everything needed to interact with an account:

* ``alsoKnownAs`` — the handle, as an ``at://`` URI,
* ``verificationMethod`` — the atproto signing key (did:key form),
* ``service`` — endpoints, notably the PDS (``#atproto_pds``) and, for
  labeler accounts, the labeler endpoint (``#atproto_labeler``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

_DID_RE = re.compile(r"^did:(plc|web|key):[a-zA-Z0-9._:%-]+$")
_PLC_SUFFIX_RE = re.compile(r"^[a-z2-7]{24}$")

PDS_SERVICE_ID = "#atproto_pds"
LABELER_SERVICE_ID = "#atproto_labeler"


class DidError(ValueError):
    """Raised on malformed DIDs or documents."""


def is_valid_did(did: str) -> bool:
    """Syntactic check for the DID methods this codebase recognises."""
    if not _DID_RE.match(did):
        return False
    if did.startswith("did:plc:"):
        return bool(_PLC_SUFFIX_RE.match(did[len("did:plc:") :]))
    return True


def did_method(did: str) -> str:
    if not is_valid_did(did):
        raise DidError("invalid DID %r" % did)
    return did.split(":", 2)[1]


def did_web_to_fqdn(did: str) -> str:
    """Extract the FQDN of a did:web (percent-decoded, lowercase)."""
    if not did.startswith("did:web:"):
        raise DidError("not a did:web: %r" % did)
    body = did[len("did:web:") :]
    # did:web allows path components separated by ':'; Bluesky only uses the
    # bare-domain form, and the paper only observed those.
    if ":" in body:
        raise DidError("did:web with path components is not supported")
    return body.replace("%3A", ":").lower()


@dataclass(frozen=True)
class ServiceEndpoint:
    """One ``service`` entry in a DID document."""

    id: str  # fragment, e.g. "#atproto_pds"
    type: str  # e.g. "AtprotoPersonalDataServer"
    endpoint: str  # URL


@dataclass
class DidDocument:
    """A DID document, as served by plc.directory or a did:web host."""

    did: str
    handle: Optional[str] = None
    signing_key: Optional[str] = None  # did:key form
    rotation_keys: tuple[str, ...] = ()
    services: list[ServiceEndpoint] = field(default_factory=list)

    def __post_init__(self):
        if not is_valid_did(self.did):
            raise DidError("invalid DID %r" % self.did)

    @property
    def also_known_as(self) -> list[str]:
        return ["at://" + self.handle] if self.handle else []

    def service(self, service_id: str) -> Optional[ServiceEndpoint]:
        for entry in self.services:
            if entry.id == service_id:
                return entry
        return None

    @property
    def pds_endpoint(self) -> Optional[str]:
        entry = self.service(PDS_SERVICE_ID)
        return entry.endpoint if entry else None

    @property
    def labeler_endpoint(self) -> Optional[str]:
        entry = self.service(LABELER_SERVICE_ID)
        return entry.endpoint if entry else None

    def set_service(self, service: ServiceEndpoint) -> None:
        self.services = [s for s in self.services if s.id != service.id]
        self.services.append(service)

    def to_json(self) -> dict:
        """Render in the W3C DID-document JSON shape."""
        doc: dict = {
            "@context": [
                "https://www.w3.org/ns/did/v1",
                "https://w3id.org/security/multikey/v1",
            ],
            "id": self.did,
            "alsoKnownAs": self.also_known_as,
            "verificationMethod": [],
            "service": [
                {
                    "id": self.did + entry.id,
                    "type": entry.type,
                    "serviceEndpoint": entry.endpoint,
                }
                for entry in self.services
            ],
        }
        if self.signing_key:
            doc["verificationMethod"].append(
                {
                    "id": self.did + "#atproto",
                    "type": "Multikey",
                    "controller": self.did,
                    "publicKeyMultibase": self.signing_key.rsplit(":", 1)[-1],
                }
            )
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "DidDocument":
        """Parse a DID document; every shape :meth:`to_json` does not write
        (a field of the wrong type, a service entry without a string id or
        endpoint) raises :class:`DidError`.  Absent or null lists are empty,
        and aliases that are not strings are skipped."""
        if not isinstance(doc, dict):
            raise DidError("DID document is not a JSON object")
        did = doc.get("id")
        if not isinstance(did, str):
            raise DidError("DID document missing id")
        handle = None
        for alias in _json_list(doc, "alsoKnownAs"):
            if isinstance(alias, str) and alias.startswith("at://"):
                handle = alias[len("at://") :]
                break
        signing_key = None
        methods = _json_list(doc, "verificationMethod")
        if methods:
            if not isinstance(methods[0], dict):
                raise DidError("verificationMethod entry is not an object")
            multibase = methods[0].get("publicKeyMultibase")
            if multibase is not None and not isinstance(multibase, str):
                raise DidError("publicKeyMultibase is not a string")
            if multibase:
                signing_key = "did:key:" + multibase
        services = []
        for entry in _json_list(doc, "service"):
            if not isinstance(entry, dict):
                raise DidError("service entry is not an object")
            fragment = entry.get("id")
            kind = entry.get("type", "")
            endpoint = entry.get("serviceEndpoint")
            if not (
                isinstance(fragment, str) and isinstance(kind, str) and isinstance(endpoint, str)
            ):
                raise DidError("service entry needs string id, type and serviceEndpoint")
            if fragment.startswith(did):
                fragment = fragment[len(did) :]
            services.append(ServiceEndpoint(fragment, kind, endpoint))
        return cls(did=did, handle=handle, signing_key=signing_key, services=services)


def _json_list(doc: dict, name: str) -> list:
    value = doc.get(name)
    if value is None:
        return []
    if not isinstance(value, list):
        raise DidError("%s is not a list" % name)
    return value
