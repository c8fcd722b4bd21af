"""The PLC directory (``plc.directory``).

``did:plc`` identifiers are derived from their *genesis operation*: the DID
suffix is the first 24 characters of the base32-encoded SHA-256 of the
signed genesis operation.  Every later change (new handle, new PDS, new
keys) is a new signed operation appended to the DID's audit log; tombstone
operations deactivate the account.  Bluesky PBC operates the single public
directory, which is exactly the centralization the paper studies.

Operations are signed by a *rotation key*; the directory verifies that each
update is signed by a rotation key listed in the previous operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.atproto.cbor import cbor_encode
from repro.atproto.keys import Keypair, public_key_from_did_key
from repro.atproto.multibase import base32_encode
from repro.identity.did import (
    LABELER_SERVICE_ID,
    PDS_SERVICE_ID,
    DidDocument,
    ServiceEndpoint,
)


class PlcError(ValueError):
    """Raised on invalid PLC operations."""


@dataclass
class PlcOperation:
    """One signed operation in a DID's audit log."""

    type: str  # "plc_operation" | "plc_tombstone"
    rotation_keys: tuple[str, ...]
    verification_methods: dict  # {"atproto": did:key}
    also_known_as: tuple[str, ...]
    services: dict  # {"atproto_pds": {"type":..., "endpoint":...}, ...}
    prev: Optional[str]  # CID-ish hash of previous op, None for genesis
    sig: bytes = b""

    def unsigned_payload(self) -> dict:
        return {
            "type": self.type,
            "rotationKeys": list(self.rotation_keys),
            "verificationMethods": dict(self.verification_methods),
            "alsoKnownAs": list(self.also_known_as),
            "services": {k: dict(v) for k, v in self.services.items()},
            "prev": self.prev,
        }

    def signed_bytes(self) -> bytes:
        payload = self.unsigned_payload()
        payload["sig"] = self.sig
        return cbor_encode(payload)

    def op_hash(self) -> str:
        """Base32 sha256 of the signed operation (used for prev links)."""
        return base32_encode(hashlib.sha256(self.signed_bytes()).digest())


def sign_operation(op: PlcOperation, rotation_keypair: Keypair) -> PlcOperation:
    op.sig = rotation_keypair.sign(cbor_encode(op.unsigned_payload()))
    return op


def did_for_genesis(op: PlcOperation) -> str:
    """Derive the did:plc from the genesis operation's hash."""
    digest = hashlib.sha256(op.signed_bytes()).digest()
    return "did:plc:" + base32_encode(digest)[:24]


@dataclass
class _PlcEntry:
    operations: list = field(default_factory=list)
    tombstoned: bool = False


class PlcDirectory:
    """The central did:plc registry with audit logs and document export."""

    def __init__(self):
        self._entries: dict[str, _PlcEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, did: str) -> bool:
        return did in self._entries

    # -- writes ---------------------------------------------------------------

    def create(
        self,
        rotation_keypair: Keypair,
        signing_key: str,
        handle: str,
        pds_endpoint: str,
        extra_services: Optional[dict] = None,
    ) -> str:
        """Register a new did:plc; returns the DID."""
        services = {
            "atproto_pds": {
                "type": "AtprotoPersonalDataServer",
                "endpoint": pds_endpoint,
            }
        }
        if extra_services:
            services.update(extra_services)
        op = PlcOperation(
            type="plc_operation",
            rotation_keys=(rotation_keypair.did_key(),),
            verification_methods={"atproto": signing_key},
            also_known_as=("at://" + handle,),
            services=services,
            prev=None,
        )
        sign_operation(op, rotation_keypair)
        did = did_for_genesis(op)
        if did in self._entries:
            raise PlcError("DID already registered: %s" % did)
        self._entries[did] = _PlcEntry(operations=[op])
        return did

    def update(
        self,
        did: str,
        rotation_keypair: Keypair,
        handle: Optional[str] = None,
        pds_endpoint: Optional[str] = None,
        signing_key: Optional[str] = None,
        labeler_endpoint: Optional[str] = None,
    ) -> PlcOperation:
        """Append an update operation, signed by a current rotation key."""
        entry = self._require(did)
        last = entry.operations[-1]
        if last.type == "plc_tombstone":
            raise PlcError("cannot update a tombstoned DID")
        services = {k: dict(v) for k, v in last.services.items()}
        if pds_endpoint is not None:
            services["atproto_pds"] = {
                "type": "AtprotoPersonalDataServer",
                "endpoint": pds_endpoint,
            }
        if labeler_endpoint is not None:
            services["atproto_labeler"] = {
                "type": "AtprotoLabeler",
                "endpoint": labeler_endpoint,
            }
        methods = dict(last.verification_methods)
        if signing_key is not None:
            methods["atproto"] = signing_key
        aka = ("at://" + handle,) if handle is not None else last.also_known_as
        op = PlcOperation(
            type="plc_operation",
            rotation_keys=last.rotation_keys,
            verification_methods=methods,
            also_known_as=aka,
            services=services,
            prev=last.op_hash(),
        )
        sign_operation(op, rotation_keypair)
        self._verify_and_append(did, entry, op, rotation_keypair.did_key())
        return op

    def tombstone(self, did: str, rotation_keypair: Keypair) -> None:
        """Deactivate a DID (account deletion)."""
        entry = self._require(did)
        last = entry.operations[-1]
        op = PlcOperation(
            type="plc_tombstone",
            rotation_keys=(),
            verification_methods={},
            also_known_as=(),
            services={},
            prev=last.op_hash(),
        )
        sign_operation(op, rotation_keypair)
        self._verify_and_append(did, entry, op, rotation_keypair.did_key())
        entry.tombstoned = True

    def _verify_and_append(
        self, did: str, entry: _PlcEntry, op: PlcOperation, signer_did_key: str
    ) -> None:
        last = entry.operations[-1]
        if signer_did_key not in last.rotation_keys:
            raise PlcError("operation not signed by a current rotation key")
        public = public_key_from_did_key(signer_did_key)
        if not public.verify(cbor_encode(op.unsigned_payload()), op.sig):
            raise PlcError("operation signature invalid")
        if op.prev != last.op_hash():
            raise PlcError("operation prev hash does not match log head")
        entry.operations.append(op)

    # -- reads ------------------------------------------------------------------

    def _require(self, did: str) -> _PlcEntry:
        entry = self._entries.get(did)
        if entry is None:
            raise PlcError("unknown DID %s" % did)
        return entry

    def audit_log(self, did: str) -> list[PlcOperation]:
        return list(self._require(did).operations)

    def resolve(self, did: str) -> Optional[DidDocument]:
        """Export the current DID document, or None if unknown/tombstoned."""
        entry = self._entries.get(did)
        if entry is None or entry.tombstoned:
            return None
        op = entry.operations[-1]
        handle = None
        for alias in op.also_known_as:
            if alias.startswith("at://"):
                handle = alias[len("at://") :]
                break
        doc = DidDocument(
            did=did,
            handle=handle,
            signing_key=op.verification_methods.get("atproto"),
            rotation_keys=op.rotation_keys,
        )
        type_by_service = {
            "atproto_pds": (PDS_SERVICE_ID, "AtprotoPersonalDataServer"),
            "atproto_labeler": (LABELER_SERVICE_ID, "AtprotoLabeler"),
        }
        for name, info in op.services.items():
            service_id, default_type = type_by_service.get(name, ("#" + name, info.get("type", "")))
            doc.set_service(
                ServiceEndpoint(service_id, info.get("type", default_type), info["endpoint"])
            )
        return doc
