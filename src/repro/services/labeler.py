"""Labelers — the moderation services of Section 6.

A Labeler is a regular account that (1) publishes an
``app.bsky.labeler.service`` record describing the label values it emits,
(2) lists a labeler endpoint in its DID document, and (3) streams signed
labels from that endpoint (``com.atproto.label.subscribeLabels``).

Labels are short strings attached to *subjects*: post URIs, whole accounts
(DIDs), or profile blobs (avatar/banner).  A label is rescinded by emitting
the same value for the same subject with the negation flag set.  Some
values are reserved (``!``-prefixed) and only honoured from the official
Bluesky Labeler; ``porn`` / ``sexual`` / ``graphic-media`` have hardcoded
client behaviour but may come from anyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.services.xrpc import XrpcService

# Subject target classes (Table 4 of the paper).
TARGET_POST = "post"
TARGET_ACCOUNT = "account"
TARGET_PROFILE_MEDIA = "banner/avatar"
TARGET_OTHER = "other"

# The globally defined label values. '!'-prefixed ones are reserved for the
# official Bluesky labeler; the others have hardcoded client behaviour.
RESERVED_LABELS = ("!hide", "!warn", "!takedown", "!no-promote", "!no-unauthenticated")
HARDCODED_BEHAVIOUR_LABELS = ("porn", "sexual", "graphic-media", "nudity")


def classify_subject(uri: str) -> str:
    """Map a label subject to the paper's target classes."""
    if uri.startswith("did:"):
        return TARGET_ACCOUNT
    if "/app.bsky.feed.post/" in uri:
        return TARGET_POST
    if "/app.bsky.actor.profile/" in uri:
        return TARGET_PROFILE_MEDIA
    return TARGET_OTHER


@dataclass(frozen=True)
class Label:
    """One label event, as carried on a labeler's stream."""

    seq: int  # per-labeler stream sequence
    src: str  # labeler DID
    uri: str  # subject: at:// URI or bare DID
    val: str  # label value, e.g. "porn"
    neg: bool  # True = rescind a previous application
    cts: int  # creation timestamp, simulation microseconds
    sig: bytes = b""  # labeler signature over the payload (may be empty)

    @property
    def target_type(self) -> str:
        return classify_subject(self.uri)

    def signed_payload(self) -> bytes:
        """The canonical bytes a labeler signs (and verifiers check)."""
        from repro.atproto.cbor import cbor_encode

        return cbor_encode(
            {
                "src": self.src,
                "uri": self.uri,
                "val": self.val,
                "neg": self.neg,
                "cts": self.cts,
            }
        )


@dataclass(frozen=True)
class LabelerPolicies:
    """The service record payload: declared label values + descriptions."""

    label_values: tuple[str, ...]
    descriptions: dict


class LabelerService(XrpcService):
    """A running labeler endpoint with a replayable label stream.

    When constructed with a ``signing_keypair`` every emitted label is
    signed over its canonical payload, and any consumer holding the
    labeler's DID document can verify the stream end-to-end.
    """

    def __init__(self, did: str, endpoint: str, policies: LabelerPolicies, signing_keypair=None):
        self.did = did
        self.endpoint = endpoint.rstrip("/")
        self.policies = policies
        self.signing_keypair = signing_keypair
        self._labels: list[Label] = []

    # -- emission ---------------------------------------------------------------

    def emit(self, uri: str, val: str, now_us: int, neg: bool = False) -> Label:
        """Emit a label (or a negation of one)."""
        label = Label(
            seq=len(self._labels) + 1,
            src=self.did,
            uri=uri,
            val=val,
            neg=neg,
            cts=now_us,
        )
        if self.signing_keypair is not None:
            label = Label(
                seq=label.seq,
                src=label.src,
                uri=label.uri,
                val=label.val,
                neg=label.neg,
                cts=label.cts,
                sig=self.signing_keypair.sign(label.signed_payload()),
            )
        self._labels.append(label)
        return label

    def verify_label(self, label: Label, public_key) -> bool:
        """Check a label's signature against the labeler's public key."""
        if not label.sig:
            return False
        return public_key.verify(label.signed_payload(), label.sig)

    def rescind(self, uri: str, val: str, now_us: int) -> Label:
        return self.emit(uri, val, now_us, neg=True)

    def service_record(self, created_at: str) -> dict:
        """The ``app.bsky.labeler.service`` record for the labeler's repo."""
        return {
            "$type": "app.bsky.labeler.service",
            "policies": {
                "labelValues": list(self.policies.label_values),
                "labelValueDefinitions": dict(self.policies.descriptions),
            },
            "createdAt": created_at,
        }

    # -- stream (XRPC) -------------------------------------------------------------

    def xrpc_subscribeLabels(self, cursor: int = 0, limit: Optional[int] = None) -> list[Label]:
        """Replay the label stream from a cursor.

        Unlike the Firehose, labeler streams retain their full history —
        which is how the paper's collectors obtained labels emitted before
        their measurement window.
        """
        events = [label for label in self._labels if label.seq > cursor]
        if limit is not None:
            events = events[:limit]
        return events
