"""Signed user data repositories.

A repository is the per-user key-value store of *records* (posts, likes,
follows, ...), organised as ``collection/rkey`` paths in a Merkle Search
Tree and advanced through *signed commits*.  This module implements the v3
commit format::

    {"did": ..., "version": 3, "data": <MST root CID>, "rev": <TID>,
     "prev": None, "sig": <64 bytes>}

plus record CRUD, batched writes, and CAR export/import (the wire format of
``com.atproto.sync.getRepo``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.atproto.car import read_car, write_car
from repro.atproto.cbor import _encode_head, _encode_text, cbor_decode, cbor_encode
from repro.atproto.cid import Cid, cid_for_dag_cbor_bytes
from repro.atproto.events import CommitOp
from repro.atproto.keys import Keypair, PublicKey
from repro.atproto.mst import Mst, MstError, is_valid_mst_key, load_mst
from repro.atproto.tid import Tid, TidClock

COMMIT_VERSION = 3

# Fixed pieces of a commit block, in canonical DAG-CBOR key order
# (did, rev, sig, data, prev, version).
_UNSIGNED_HEAD = b"\xa5"  # 5-entry map
_SIGNED_HEAD = b"\xa6"  # 6-entry map
_DID_KEY = b"\x63did"
_REV_KEY = b"\x63rev"
_SIG_KEY = b"\x63sig"
_DATA_KEY = b"\x64data"
_PREV_VERSION = b"\x64prev\xf6\x67version" + bytes((COMMIT_VERSION,))


def encode_commit(did: str, rev: str, data: Cid, keypair: Keypair) -> tuple[bytes, bytes]:
    """The unsigned and signed v3 commit blocks for one commit.

    Both share the ``did``/``rev`` and ``data``/``prev``/``version``
    fragments; the signed block adds ``sig``, the signature over the
    unsigned block.  Byte-for-byte equal to ``cbor_encode`` of the commit
    dict without and with ``sig`` (pinned by a test).
    """
    did_rev = _DID_KEY + _encode_text(did) + _REV_KEY + _encode_text(rev)
    tail = _DATA_KEY + data.cbor_link() + _PREV_VERSION
    unsigned = _UNSIGNED_HEAD + did_rev + tail
    sig = keypair.sign(unsigned)
    sig_head = bytearray()
    _encode_head(2, len(sig), sig_head)
    signed = b"".join((_SIGNED_HEAD, did_rev, _SIG_KEY, sig_head, sig, tail))
    return unsigned, signed


class RepoError(ValueError):
    """Raised on invalid repository operations."""


class SignatureError(RepoError):
    """The commit signature does not verify against the expected key."""


@dataclass(frozen=True)
class WriteOp:
    """One write in a commit: create, update, or delete a record."""

    action: str  # "create" | "update" | "delete"
    collection: str
    rkey: str
    record: Optional[dict] = None

    def __post_init__(self):
        if self.action not in ("create", "update", "delete"):
            raise RepoError("unknown write action %r" % self.action)
        if self.action == "delete" and self.record is not None:
            raise RepoError("delete ops carry no record")
        if self.action != "delete" and not isinstance(self.record, dict):
            raise RepoError("%s ops require a record dict" % self.action)

    @property
    def path(self) -> str:
        return "%s/%s" % (self.collection, self.rkey)


@dataclass(frozen=True)
class CommitMeta:
    """One applied commit, as returned to the writer and surfaced on the
    firehose.

    ``ops`` holds one :class:`~repro.atproto.events.CommitOp` per write,
    with its record body (None for deletes); the relay puts the tuple in
    the ``#commit`` event unchanged.  The repo keeps no reference to it.
    """

    did: str
    rev: str
    commit_cid: Cid
    ops: tuple[CommitOp, ...]
    time_us: int


@dataclass(slots=True)
class _RecordEntry:
    block: bytes
    refs: int = 1


class Repo:
    """A single user's signed repository."""

    def __init__(self, did: str, keypair: Keypair, clock_id: int = 0):
        self.did = did
        self.keypair = keypair
        self.mst = Mst()
        self._blocks: dict[Cid, _RecordEntry] = {}
        self._tid_clock = TidClock(clock_id)
        self.head: Optional[Cid] = None
        self.rev: Optional[str] = None
        self._head_block: Optional[bytes] = None  # signed commit block cache

    # -- record access -------------------------------------------------------

    def get_record_cid(self, collection: str, rkey: str) -> Optional[Cid]:
        return self.mst.get("%s/%s" % (collection, rkey))

    def list_records(self, collection: Optional[str] = None) -> Iterator[tuple[str, dict]]:
        """Yield (path, record) pairs, optionally restricted to a collection."""
        prefix = collection + "/" if collection else None
        for path, cid in self.mst.items():
            if prefix is None or path.startswith(prefix):
                yield path, cbor_decode(self._blocks[cid].block)

    def collections(self) -> list[str]:
        seen: dict[str, None] = {}
        for path in self.mst.keys():
            seen.setdefault(path.split("/", 1)[0], None)
        return list(seen)

    # -- writes ---------------------------------------------------------------

    def next_tid(self, now_us: int) -> Tid:
        return self._tid_clock.next_tid(now_us)

    def create_record(
        self, collection: str, record: dict, now_us: int, rkey: Optional[str] = None
    ) -> CommitMeta:
        if rkey is None:
            rkey = str(self.next_tid(now_us))
        return self.apply_writes([WriteOp("create", collection, rkey, record)], now_us)

    def apply_writes(self, writes: list[WriteOp], now_us: int) -> CommitMeta:
        """Apply a batch of writes as a single signed commit.

        The whole batch is checked, and every record encoded, before the
        first write touches the tree or the block store, so a refused
        batch leaves the repository as it was."""
        if not writes:
            raise RepoError("empty write batch")
        staged = []
        current: dict[str, Optional[Cid]] = {}  # paths the batch has written
        for write in writes:
            path = write.path
            existing = current[path] if path in current else self.mst.get(path)
            if write.action == "create" and existing is not None:
                raise RepoError("record %s already exists" % path)
            if write.action != "create" and existing is None:
                raise RepoError("record %s does not exist" % path)
            block = cid = None
            if write.action != "delete":
                block = cbor_encode(write.record)
                if not is_valid_mst_key(path):
                    raise MstError("invalid MST key %r" % path)
                cid = cid_for_dag_cbor_bytes(block)
            current[path] = cid
            staged.append((write, path, existing, block, cid))
        ops: list[CommitOp] = []
        for write, path, existing, block, cid in staged:
            if cid is None:
                self.mst.delete(path)
                ops.append(CommitOp("delete", path, None))
            else:
                entry = self._blocks.get(cid)
                if entry is None:
                    self._blocks[cid] = _RecordEntry(block)
                else:
                    entry.refs += 1
                self.mst.set(path, cid)
                ops.append(CommitOp(write.action, path, cid, write.record))
            if existing is not None:
                self._release_block(existing)
        return self._commit(tuple(ops), now_us)

    def _release_block(self, cid: Cid) -> None:
        entry = self._blocks[cid]
        entry.refs -= 1
        if entry.refs == 0:
            del self._blocks[cid]

    def _commit(self, ops: tuple[CommitOp, ...], now_us: int) -> CommitMeta:
        rev = str(self.next_tid(now_us))
        # The signed block serves as both the stored block and the input
        # to the commit CID.
        _, block = encode_commit(self.did, rev, self.mst.root_cid(), self.keypair)
        commit_cid = cid_for_dag_cbor_bytes(block)
        self.head = commit_cid
        self.rev = rev
        self._head_block = block
        return CommitMeta(self.did, rev, commit_cid, ops, now_us)

    # -- export / import -------------------------------------------------------

    def signed_commit_block(self) -> tuple[Cid, bytes]:
        if self.head is None:
            raise RepoError("repository has no commits")
        # The block is cached by _commit; every export reuses it instead
        # of re-signing and re-encoding the head.
        return self.head, self._head_block

    def export_car(self) -> bytes:
        """Export the current state as a CAR file rooted at the commit."""
        commit_cid, commit_block = self.signed_commit_block()
        blocks: list[tuple[Cid, bytes]] = [(commit_cid, commit_block)]
        blocks.extend(self.mst.blocks().items())
        blocks.extend((cid, entry.block) for cid, entry in self._blocks.items())
        return write_car(commit_cid, blocks)


@dataclass
class RepoSnapshot:
    """A verified, read-only view of an imported repository: its commit,
    its records' paths and CIDs in key order, and the block map that holds
    the record blocks."""

    did: str
    rev: str
    commit_cid: Cid
    items: list[tuple[str, Cid]]
    blocks: dict[Cid, bytes]

    def records(self) -> Iterator[tuple[str, Cid, bytes]]:
        """Each record as ``(path, cid, block)``, in key order; a missing
        block raises :class:`RepoError` when its turn comes."""
        blocks = self.blocks
        for path, cid in self.items:
            block = blocks.get(cid)
            if block is None:
                raise RepoError("record block %s missing from CAR" % cid)
            yield path, cid, block

    def list_records(self) -> Iterator[tuple[str, dict]]:
        return ((path, cbor_decode(block)) for path, _, block in self.records())


def import_car(data: bytes, verify_key: Optional[PublicKey] = None) -> RepoSnapshot:
    """Parse and check a repo CAR export, verifying the commit signature
    when ``verify_key`` is given.

    One pass over the CAR: :func:`~repro.atproto.car.read_car` hashes
    every block against its CID, and :func:`load_mst` reads the tree from
    the commit's ``data`` link, checking node arity, key layers, key order
    and child layers.  No tree is built and no record decoded: the
    snapshot hands each record block over in key order.  Failure kinds
    stay distinguishable: :class:`~repro.atproto.car.BlockDigestError`,
    :class:`~repro.atproto.car.CarError`, :class:`~repro.atproto.mst.MstError`
    and :class:`SignatureError`.  A missing or malformed node wins over an
    invariant violation.  A missing commit block is a :class:`RepoError`
    and a missing tree node, the root included, an :class:`MstError`: a
    CAR cut short never reads as a smaller repo.
    """
    roots, blocks = read_car(data)
    if len(roots) != 1:
        raise RepoError("repo CAR must have exactly one root")
    commit_block = blocks.get(roots[0])
    if commit_block is None:
        raise RepoError("root block %s missing from CAR" % roots[0])
    commit = cbor_decode(commit_block)
    if not isinstance(commit, dict) or commit.get("version") != COMMIT_VERSION:
        raise RepoError("root block is not a v%d commit" % COMMIT_VERSION)
    if not isinstance(commit.get("did"), str) or not isinstance(commit.get("rev"), str):
        raise RepoError("commit is missing did/rev fields")
    if not isinstance(commit.get("data"), Cid):
        raise RepoError("commit has no data link")
    if verify_key is not None:
        sig = commit.get("sig")
        unsigned = {k: v for k, v in commit.items() if k != "sig"}
        if sig.__class__ is not bytes or not verify_key.verify(cbor_encode(unsigned), sig):
            raise SignatureError("commit signature verification failed")
    items = load_mst(blocks, commit["data"])
    return RepoSnapshot(commit["did"], commit["rev"], roots[0], items, blocks)
