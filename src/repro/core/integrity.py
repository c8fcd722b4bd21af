"""Data-integrity verification and quarantine for every collector.

Byzantine hosts can serve data that *parses* but lies: blocks whose bytes
do not hash to their CID, commits signed by a key the DID document never
published, garbage firehose frames, DID documents claiming the wrong PDS,
and handles whose forward resolution names a DID that does not point
back.  The :class:`IntegrityMonitor` sits between every collector and the
data it ingests — each check either admits the item or *quarantines* it:
the item is dropped from the dataset and accounted against the host that
served it, per corruption kind, so the study completes with its clean
data untouched and a full ledger of what was rejected and why.

Quarantine kinds:

====================  =====================================================
``block-digest``      CAR block payload does not hash to its claimed CID
``car-malformed``     structurally invalid CAR (truncation, bad varints,
                      trailing garbage, undecodable commit)
``mst-invalid``       imported MST violates ordering/fanout invariants
``commit-signature``  commit signature fails against the DID doc's key
``frame``             firehose frame that does not decode
``diddoc-pds``        DID document names a PDS that does not host the DID
``handle-bidi``       handle → DID → handle round-trip fails
``label-signature``   label signature fails against the labeler's key
``identifier``        listRepos row with an unparseable head CID / rev TID
``record-uri``        malformed ``at://`` record URI
====================  =====================================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.atproto.car import BlockDigestError, CarError
from repro.atproto.cid import Cid
from repro.atproto.mst import MstError
from repro.atproto.repo import RepoSnapshot, SignatureError, import_car
from repro.atproto.tid import Tid

KIND_BLOCK_DIGEST = "block-digest"
KIND_CAR_MALFORMED = "car-malformed"
KIND_MST_INVALID = "mst-invalid"
KIND_COMMIT_SIGNATURE = "commit-signature"
KIND_FRAME = "frame"
KIND_DIDDOC_PDS = "diddoc-pds"
KIND_HANDLE_BIDI = "handle-bidi"
KIND_LABEL_SIGNATURE = "label-signature"
KIND_IDENTIFIER = "identifier"
KIND_RECORD_URI = "record-uri"

UNKNOWN_HOST = "(unknown)"


@dataclass(frozen=True)
class QuarantinedItem:
    """One rejected item: where it came from, what failed, which item."""

    host: str
    kind: str
    item: str
    detail: str = ""


@dataclass
class IntegrityReport:
    """Aggregate ledger of verification outcomes across all collectors."""

    quarantined: list[QuarantinedItem] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # (host, kind) -> n
    checked: Counter = field(default_factory=Counter)  # kind -> n

    def total_quarantined(self) -> int:
        return len(self.quarantined)

    def by_kind(self) -> Counter:
        out: Counter = Counter()
        for (_, kind), count in self.counts.items():
            out[kind] += count
        return out

    def to_jsonable(self) -> dict:
        """A stable (sorted) JSON rendering for the exported artefact.

        Only the quarantine ledger is included: the ``checked`` counters
        tally verification *work*, which a crash/resume chain may
        legitimately redo (work lost after the last journal write), while
        the quarantine ledger is exactly-once by construction and must be
        byte-identical across resumed and uninterrupted runs.
        """
        return {
            "quarantined_total": self.total_quarantined(),
            "quarantined_by_host_kind": [
                {"host": host, "kind": kind, "count": count}
                for (host, kind), count in sorted(self.counts.items())
            ],
            "quarantined_items": [
                {"host": q.host, "kind": q.kind, "item": q.item, "detail": q.detail}
                for q in sorted(
                    self.quarantined, key=lambda q: (q.host, q.kind, q.item, q.detail)
                )
            ],
        }


class IntegrityMonitor:
    """Runtime verification gate shared by every collector.

    ``directory`` (a :class:`~repro.services.xrpc.ServiceDirectory`) is
    used for the DID-document cross-check: the claimed PDS endpoint is
    asked, once per distinct endpoint, for its full ``listRepos``
    membership, and documents naming a PDS that does not host their DID
    are quarantined.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self.report = IntegrityReport()
        self._pds_members: dict[str, Optional[frozenset]] = {}
        self._seen: set[tuple[str, str, str]] = set()

    # -- bookkeeping ---------------------------------------------------------

    def quarantine(self, host: Optional[str], kind: str, item: str, detail: str = "") -> None:
        host = host or UNKNOWN_HOST
        key = (host, kind, item)
        if key in self._seen:
            # Idempotent: on a checkpoint-resumed run the same poisoned
            # item may be re-encountered while redoing work lost after
            # the last journal write; it must be accounted exactly once.
            return
        self._seen.add(key)
        self.report.quarantined.append(QuarantinedItem(host, kind, item, detail))
        self.report.counts[(host, kind)] += 1
        if self.directory is not None:
            # Behind the idempotence guard, so the event stream is
            # exactly-once across crash/resume like the ledger itself.
            self.directory.telemetry.emit_event(
                "integrity.quarantine",
                fields={"host": host, "kind": kind, "item": item},
            )

    def _checked(self, kind: str) -> None:
        self.report.checked[kind] += 1

    def adopt_report(self, report: IntegrityReport) -> None:
        """Install a checkpointed report, rebuilding the idempotence set."""
        self.report = report
        self._seen = {(q.host, q.kind, q.item) for q in report.quarantined}

    def members_state(self) -> dict:
        """The PDS-membership cache, for the checkpoint journal.

        Without this a resumed run would re-crawl ``listRepos`` for
        endpoints an earlier completed action already verified, skewing
        the call counts telemetry persists.
        """
        return dict(self._pds_members)

    def adopt_members(self, state: Optional[dict]) -> None:
        if state:
            self._pds_members = dict(state)

    # -- repository CARs -----------------------------------------------------

    def verify_repo_car(
        self, host: str, did: str, car: bytes, verify_key=None, *, read_record
    ) -> Optional[RepoSnapshot]:
        """Fully verify a ``getRepo`` response; None means quarantined.

        Runs the complete self-certification stack — per-block digests,
        MST invariants, and (when the DID document's key is supplied) the
        commit signature — then hands each record, in key order, to
        ``read_record(path, block)``, and classifies the first failure into
        its quarantine kind: a missing record block, or one the reader
        refuses, is ``car-malformed``.
        """
        self._checked("repo")
        try:
            snapshot = import_car(car, verify_key=verify_key)
            for path, _, block in snapshot.records():
                read_record(path, block)
        except BlockDigestError as exc:
            self.quarantine(host, KIND_BLOCK_DIGEST, did, str(exc))
            return None
        except SignatureError as exc:
            self.quarantine(host, KIND_COMMIT_SIGNATURE, did, str(exc))
            return None
        except MstError as exc:
            self.quarantine(host, KIND_MST_INVALID, did, str(exc))
            return None
        except (CarError, ValueError) as exc:
            self.quarantine(host, KIND_CAR_MALFORMED, did, str(exc))
            return None
        if snapshot.did != did:
            self.quarantine(host, KIND_CAR_MALFORMED, did, "commit did %r" % snapshot.did)
            return None
        return snapshot

    # -- firehose frames -----------------------------------------------------

    def check_frame_bytes(self, host: str, seq: int, data: bytes) -> bool:
        """True when raw wire bytes decode into an event frame."""
        from repro.atproto.frames import decode_event_frame

        self._checked("frame")
        try:
            decode_event_frame(data)
        except ValueError as exc:
            self.quarantine(host, KIND_FRAME, "seq:%d" % seq, str(exc))
            return False
        return True

    # -- DID documents -------------------------------------------------------

    def check_diddoc(self, host: str, did: str, doc) -> bool:
        """Cross-check that the document's claimed PDS really hosts the DID."""
        self._checked("diddoc")
        endpoint = getattr(doc, "pds_endpoint", None)
        if not endpoint:
            self.quarantine(host, KIND_DIDDOC_PDS, did, "document names no PDS")
            return False
        members = self._pds_membership(endpoint)
        if members is None:
            # The claimed endpoint is unreachable/unknown: the claim is
            # unverifiable, which for a crawler equals unverified.
            self.quarantine(host, KIND_DIDDOC_PDS, did, "claimed PDS %s unreachable" % endpoint)
            return False
        if did not in members:
            self.quarantine(host, KIND_DIDDOC_PDS, did, "not hosted by %s" % endpoint)
            return False
        return True

    def _pds_membership(self, endpoint: str) -> Optional[frozenset]:
        """The DID set a PDS claims to host (one paginated crawl, cached)."""
        if endpoint in self._pds_members:
            return self._pds_members[endpoint]
        members: Optional[frozenset] = None
        if self.directory is not None and self.directory.is_reachable(endpoint):
            dids: set[str] = set()
            cursor = None
            while True:
                page = self.directory.try_call(
                    endpoint, "com.atproto.sync.listRepos", cursor=cursor, limit=500
                )
                if page is None:
                    dids = None  # transport failure mid-crawl: unverifiable
                    break
                dids.update(entry["did"] for entry in page.get("repos", ()))
                cursor = page.get("cursor")
                if cursor is None:
                    break
            if dids is not None:
                members = frozenset(dids)
        self._pds_members[endpoint] = members
        return members

    # -- handles -------------------------------------------------------------

    def check_handle_bidi(self, host: str, handle: str, did: Optional[str], doc) -> bool:
        """Bidirectional handle check: handle → DID → document → handle.

        ``host`` is the domain whose DNS TXT / ``.well-known`` answer
        named the DID — the party a forged answer is attributed to.
        """
        self._checked("handle")
        if not did:
            self.quarantine(host, KIND_HANDLE_BIDI, handle, "forward resolution failed")
            return False
        if doc is None:
            self.quarantine(host, KIND_HANDLE_BIDI, handle, "DID %s has no document" % did)
            return False
        if getattr(doc, "handle", None) != handle:
            self.quarantine(
                host,
                KIND_HANDLE_BIDI,
                handle,
                "DID %s points back at %r" % (did, getattr(doc, "handle", None)),
            )
            return False
        return True

    # -- labels --------------------------------------------------------------

    def check_label(self, host: str, uri: str, signature_ok: bool) -> bool:
        self._checked("label")
        if not signature_ok:
            self.quarantine(host, KIND_LABEL_SIGNATURE, uri, "label signature failed")
            return False
        return True

    # -- listRepos rows ------------------------------------------------------

    def check_identifier(self, host: str, did: str, head: str, rev: str) -> bool:
        """Validate one listRepos row (parseable head CID, valid rev TID)."""
        self._checked("identifier")
        try:
            Cid.parse(head)
        except ValueError as exc:
            self.quarantine(host, KIND_IDENTIFIER, did, "bad head: %s" % exc)
            return False
        if not isinstance(rev, str) or not Tid.is_valid(rev):
            self.quarantine(host, KIND_IDENTIFIER, did, "bad rev: %r" % (rev,))
            return False
        return True

    # -- record URIs ---------------------------------------------------------

    def check_record_uri(self, host: str, uri: str) -> bool:
        self._checked("record-uri")
        if not isinstance(uri, str) or not uri.startswith("at://"):
            self.quarantine(host, KIND_RECORD_URI, str(uri), "not an at:// URI")
            return False
        rest = uri[len("at://") :]
        parts = rest.split("/")
        if len(parts) != 3 or not all(parts):
            self.quarantine(host, KIND_RECORD_URI, uri, "URI must be did/collection/rkey")
            return False
        return True
