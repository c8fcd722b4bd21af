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

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.atproto.car import read_car, write_car
from repro.atproto.cbor import _encode_head, cbor_decode, cbor_encode
from repro.atproto.cid import Cid, cid_for_dag_cbor_bytes
from repro.atproto.keys import Keypair, PublicKey
from repro.atproto.mst import Mst, load_mst
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


def _cbor_text(text: str) -> bytes:
    out = bytearray()
    encoded = text.encode("utf-8")
    _encode_head(3, len(encoded), out)
    out += encoded
    return bytes(out)


def encode_commit(did: str, rev: str, data: Cid, keypair: Keypair) -> tuple[bytes, bytes]:
    """The unsigned and signed v3 commit blocks for one commit.

    Both share the ``did``/``rev`` and ``data``/``prev``/``version``
    fragments; the signed block adds ``sig``, the signature over the
    unsigned block.  Byte-for-byte equal to ``cbor_encode`` of the commit
    dict without and with ``sig`` (pinned by a test).
    """
    did_rev = _DID_KEY + _cbor_text(did) + _REV_KEY + _cbor_text(rev)
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
    """Metadata of one applied commit, as surfaced on the firehose.

    ``records`` carries the record bodies parallel to ``ops`` (None for
    deletes) — the real firehose likewise ships the written blocks with
    each commit frame so consumers need not fetch them separately.
    """

    did: str
    rev: str
    commit_cid: Cid
    ops: tuple[tuple[str, str, Optional[Cid]], ...]  # (action, path, cid)
    time_us: int
    records: tuple[Optional[dict], ...] = ()


@dataclass
class _RecordEntry:
    cid: Cid
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
        self.commits: list[CommitMeta] = []
        self.head: Optional[Cid] = None
        self.rev: Optional[str] = None
        self._head_block: Optional[bytes] = None  # signed commit block cache
        # (head cid, {str(cid): block}) — batched block lookup, valid for
        # exactly one head; rebuilt lazily on the first block fetch after
        # a commit (see block_map / block_map_cached).
        self._block_map: Optional[tuple[Cid, dict]] = None

    # -- record access -------------------------------------------------------

    def get_record(self, collection: str, rkey: str) -> Optional[dict]:
        cid = self.mst.get("%s/%s" % (collection, rkey))
        if cid is None:
            return None
        return cbor_decode(self._blocks[cid].block)

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

    def record_count(self) -> int:
        return len(self.mst)

    # -- writes ---------------------------------------------------------------

    def next_tid(self, now_us: int) -> Tid:
        return self._tid_clock.next_tid(now_us)

    def create_record(
        self, collection: str, record: dict, now_us: int, rkey: Optional[str] = None
    ) -> CommitMeta:
        if rkey is None:
            rkey = str(self.next_tid(now_us))
        return self.apply_writes([WriteOp("create", collection, rkey, record)], now_us)

    def update_record(self, collection: str, rkey: str, record: dict, now_us: int) -> CommitMeta:
        return self.apply_writes([WriteOp("update", collection, rkey, record)], now_us)

    def delete_record(self, collection: str, rkey: str, now_us: int) -> CommitMeta:
        return self.apply_writes([WriteOp("delete", collection, rkey)], now_us)

    def apply_writes(self, writes: list[WriteOp], now_us: int) -> CommitMeta:
        """Apply a batch of writes as a single signed commit."""
        if not writes:
            raise RepoError("empty write batch")
        op_meta: list[tuple[str, str, Optional[Cid]]] = []
        op_records: list[Optional[dict]] = []
        for write in writes:
            path = write.path
            existing = self.mst.get(path)
            if write.action == "create" and existing is not None:
                raise RepoError("record %s already exists" % path)
            if write.action in ("update", "delete") and existing is None:
                raise RepoError("record %s does not exist" % path)
            if write.action == "delete":
                self.mst.delete(path)
                self._release_block(existing)
                op_meta.append(("delete", path, None))
                op_records.append(None)
            else:
                cid = self._store_record(write.record)
                if existing is not None:
                    self._release_block(existing)
                self.mst.set(path, cid)
                op_meta.append((write.action, path, cid))
                op_records.append(write.record)
        return self._commit(op_meta, op_records, now_us)

    def _store_record(self, record: dict) -> Cid:
        block = cbor_encode(record)
        cid = cid_for_dag_cbor_bytes(block)
        entry = self._blocks.get(cid)
        if entry is None:
            self._blocks[cid] = _RecordEntry(cid, block)
        else:
            entry.refs += 1
        return cid

    def _release_block(self, cid: Cid) -> None:
        entry = self._blocks[cid]
        entry.refs -= 1
        if entry.refs == 0:
            del self._blocks[cid]

    def _commit(
        self,
        ops: list[tuple[str, str, Optional[Cid]]],
        records: list[Optional[dict]],
        now_us: int,
    ) -> CommitMeta:
        rev = str(self.next_tid(now_us))
        # The signed block serves as both the stored block and the input
        # to the commit CID.
        _, block = encode_commit(self.did, rev, self.mst.root_cid(), self.keypair)
        commit_cid = cid_for_dag_cbor_bytes(block)
        self.head = commit_cid
        self.rev = rev
        self._head_block = block
        meta = CommitMeta(self.did, rev, commit_cid, tuple(ops), now_us, tuple(records))
        self.commits.append(meta)
        return meta

    # -- export / import -------------------------------------------------------

    def signed_commit_block(self) -> tuple[Cid, bytes]:
        if self.head is None:
            raise RepoError("repository has no commits")
        # The block is cached by _commit; every export / verifiable read
        # reuses it instead of re-signing and re-encoding the head.
        return self.head, self._head_block

    def export_car(self) -> bytes:
        """Export the current state as a CAR file rooted at the commit."""
        commit_cid, commit_block = self.signed_commit_block()
        blocks: list[tuple[Cid, bytes]] = [(commit_cid, commit_block)]
        blocks.extend(self.mst.blocks().items())
        blocks.extend((cid, entry.block) for cid, entry in self._blocks.items())
        return write_car(commit_cid, blocks)

    def block_map_cached(self) -> Optional[dict]:
        """The batched block lookup if it is still valid for the current
        head, else None (the caller decides whether to rebuild)."""
        cached = self._block_map
        if cached is not None and cached[0] == self.head:
            return cached[1]
        return None

    def block_map(self) -> dict:
        """``str(cid) -> block bytes`` over every block reachable from the
        current head (signed commit + MST nodes + record blocks).

        One build serves an entire ``getBlocks`` batch — and every later
        batch at the same head — instead of resolving each CID with its
        own tree walk."""
        cached = self.block_map_cached()
        if cached is not None:
            return cached
        commit_cid, commit_block = self.signed_commit_block()
        mapping = {str(commit_cid): commit_block}
        for cid, block in self.mst.blocks().items():
            mapping[str(cid)] = block
        for cid, entry in self._blocks.items():
            mapping[str(cid)] = entry.block
        self._block_map = (commit_cid, mapping)
        return mapping


@dataclass
class RepoSnapshot:
    """A verified, read-only view of an imported repository."""

    did: str
    rev: str
    commit_cid: Cid
    records: dict[str, dict] = field(default_factory=dict)
    record_cids: dict[str, Cid] = field(default_factory=dict)

    def get_record(self, collection: str, rkey: str) -> Optional[dict]:
        return self.records.get("%s/%s" % (collection, rkey))

    def list_records(self, collection: Optional[str] = None) -> Iterator[tuple[str, dict]]:
        prefix = collection + "/" if collection else None
        for path, record in self.records.items():
            if prefix is None or path.startswith(prefix):
                yield path, record

    def collections(self) -> list[str]:
        seen: dict[str, None] = {}
        for path in self.records:
            seen.setdefault(path.split("/", 1)[0], None)
        return list(seen)


def import_car(
    data: bytes,
    verify_key: Optional[PublicKey] = None,
    verify_digests: bool = True,
    check_mst: bool = False,
) -> RepoSnapshot:
    """Parse a repo CAR export, optionally verifying the commit signature.

    ``verify_digests`` hashes every block against its claimed CID (see
    :func:`repro.atproto.car.read_car`); ``check_mst`` additionally runs
    the reconstructed tree through :meth:`Mst.check_invariants`, so an
    import with both enabled plus a ``verify_key`` is a full
    self-certification of the snapshot.  Failure kinds stay
    distinguishable: digest mismatches raise
    :class:`~repro.atproto.car.BlockDigestError`, structural garbage
    :class:`~repro.atproto.car.CarError`, tree violations
    :class:`~repro.atproto.mst.MstError`, and bad signatures
    :class:`SignatureError`.
    """
    roots, blocks = read_car(data, verify_digests=verify_digests)
    if len(roots) != 1:
        raise RepoError("repo CAR must have exactly one root")
    commit = cbor_decode(blocks[roots[0]])
    if not isinstance(commit, dict) or commit.get("version") != COMMIT_VERSION:
        raise RepoError("root block is not a v%d commit" % COMMIT_VERSION)
    if not isinstance(commit.get("did"), str) or not isinstance(commit.get("rev"), str):
        raise RepoError("commit is missing did/rev fields")
    if verify_key is not None:
        sig = commit.get("sig")
        unsigned = {k: v for k, v in commit.items() if k != "sig"}
        if not isinstance(sig, bytes) or not verify_key.verify(cbor_encode(unsigned), sig):
            raise SignatureError("commit signature verification failed")
    mst = load_mst(blocks, commit["data"]) if commit["data"] in blocks else Mst()
    if check_mst:
        mst.check_invariants()
    snapshot = RepoSnapshot(did=commit["did"], rev=commit["rev"], commit_cid=roots[0])
    for path, cid in mst.items():
        if cid not in blocks:
            raise RepoError("record block %s missing from CAR" % cid)
        snapshot.records[path] = cbor_decode(blocks[cid])
        snapshot.record_cids[path] = cid
    return snapshot
