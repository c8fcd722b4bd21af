"""Firehose event frames.

``com.atproto.sync.subscribeRepos`` streams four event kinds, matching the
rows of Table 1 in the paper:

* ``#commit`` — a repository update (record create/update/delete),
* ``#identity`` — a DID document change (cache invalidation),
* ``#handle`` — a handle change (legacy event, still emitted),
* ``#tombstone`` — an account deletion.

Events carry a relay-assigned sequence number and a microsecond timestamp.
The payloads mirror the real lexicon closely enough that a consumer written
against the real stream maps 1:1 onto these classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.atproto.cid import Cid

KIND_COMMIT = "#commit"
KIND_IDENTITY = "#identity"
KIND_HANDLE = "#handle"
KIND_TOMBSTONE = "#tombstone"
# Stream-status frame (not a repo event, and not a Table 1 row): the relay
# sends ``#info`` with name ``OutdatedCursor`` when a subscriber resumes
# from a cursor that predates the retention window.
KIND_INFO = "#info"

INFO_OUTDATED_CURSOR = "OutdatedCursor"

# The four repo-event kinds of Table 1 (#info frames are excluded: they
# describe the subscription itself, not the network).
ALL_KINDS = (KIND_COMMIT, KIND_IDENTITY, KIND_HANDLE, KIND_TOMBSTONE)


class CommitOp(NamedTuple):
    """One record-level operation of a commit, from the repo to the firehose.

    The same tuple is returned by :meth:`Repo.apply_writes` in
    ``CommitMeta.ops`` and carried unchanged in ``CommitEvent.ops``.
    ``record`` is the written record body (None for deletes): the real
    firehose ships the new blocks inside each commit frame.
    """

    action: str  # "create" | "update" | "delete"
    path: str  # "collection/rkey"
    cid: Optional[Cid]  # None for deletes
    record: Optional[dict] = None

    @property
    def collection(self) -> str:
        return self.path.split("/", 1)[0]

    @property
    def rkey(self) -> str:
        return self.path.split("/", 1)[1]


@dataclass(frozen=True)
class FirehoseEvent:
    """Base frame: sequence number, repo DID, event time.

    Events carry structured data only; the CBOR wire frame is encoded
    lazily (and cached) via :meth:`wire_frame`, since only consumers that
    measure bandwidth — the Section 9 analysis — need actual bytes.
    """

    seq: int
    did: str
    time_us: int

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def wire_frame(self) -> bytes:
        """The event's two-item DAG-CBOR wire frame, encoded on demand.

        The frame is cached on the (frozen) instance so that multiple
        subscribers measuring the same stream share one encoding.
        """
        cached = self.__dict__.get("_wire_frame")
        if cached is None:
            from repro.atproto.frames import encode_event_frame

            cached = encode_event_frame(self)
            object.__setattr__(self, "_wire_frame", cached)
        return cached

    def wire_size(self) -> int:
        """Exact byte size of :meth:`wire_frame` (cached alongside it)."""
        return len(self.wire_frame())


@dataclass(frozen=True)
class CommitEvent(FirehoseEvent):
    rev: str = ""
    commit_cid: Optional[Cid] = None
    ops: tuple[CommitOp, ...] = ()
    too_big: bool = False

    @property
    def kind(self) -> str:
        return KIND_COMMIT


@dataclass(frozen=True)
class IdentityEvent(FirehoseEvent):
    """Signals that the DID document changed and caches must refresh."""

    handle: Optional[str] = None

    @property
    def kind(self) -> str:
        return KIND_IDENTITY


@dataclass(frozen=True)
class HandleEvent(FirehoseEvent):
    """Legacy handle-change notification; carries only the *new* handle."""

    handle: str = ""

    @property
    def kind(self) -> str:
        return KIND_HANDLE


@dataclass(frozen=True)
class TombstoneEvent(FirehoseEvent):
    """The account was deleted and its repo removed."""

    @property
    def kind(self) -> str:
        return KIND_TOMBSTONE


@dataclass(frozen=True)
class InfoEvent(FirehoseEvent):
    """Out-of-band subscription status frame.

    ``OutdatedCursor`` reports that the requested cursor predates the
    retention window: ``oldest_seq`` is the first sequence number still
    buffered and ``dropped`` counts the events that can never be replayed.
    Info frames carry no sequence number on the real wire; here ``seq`` is
    always 0 and ``did`` empty so consumers can tell them apart.
    """

    name: str = INFO_OUTDATED_CURSOR
    message: str = ""
    oldest_seq: Optional[int] = None
    dropped: int = 0

    @property
    def kind(self) -> str:
        return KIND_INFO
