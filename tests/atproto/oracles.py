"""Reference codecs the production fast paths are checked against.

These are the straightforward forms of code that ``repro.atproto`` now
runs through cached fragments, flat functions, lookup tables or the
standard library.  Only tests use them.
"""

import datetime
import hashlib
import hmac
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.atproto.car import read_car
from repro.atproto.cbor import _MAX_NESTING, CborError, _map_key_sort_key, cbor_decode, cbor_encode
from repro.atproto.cid import Cid
from repro.atproto.events import (
    CommitEvent,
    FirehoseEvent,
    HandleEvent,
    IdentityEvent,
    InfoEvent,
)
from repro.atproto.mst import MAX_LAYER, Mst, MstError, MstNode, _node_entries, key_layer
from repro.atproto.lexicon import (
    BLOCK,
    FEED_GENERATOR,
    FOLLOW,
    LABELER_SERVICE,
    LIKE,
    POST,
    PROFILE,
    REPOST,
    Field,
    LexiconError,
    RecordSchema,
)
from repro.atproto.repo import COMMIT_VERSION, RepoError, SignatureError
from repro.atproto.nsid import Nsid
from repro.atproto.tid import SORTABLE_ALPHABET, Tid
from repro.core.collect.repos import (
    FeedGenRow,
    PostRow,
    RepositoriesDataset,
    SubjectRow,
    parse_created_at_us,
)

BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
VALID_KEY_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:~-/")


def oracle_to_data(node: MstNode) -> dict:
    """An MST node in the wire data model, keys prefix-compressed against
    their left neighbour; ``cbor_encode`` of it is the node block."""
    entries = []
    previous = b""
    for index, (key, value) in enumerate(node.entries):
        encoded = key.encode("utf-8")
        prefix_len = 0
        limit = min(len(previous), len(encoded))
        while prefix_len < limit and previous[prefix_len] == encoded[prefix_len]:
            prefix_len += 1
        right = node.subtrees[index + 1]
        entries.append(
            {
                "p": prefix_len,
                "k": encoded[prefix_len:],
                "v": value,
                "t": right.cid() if right is not None else None,
            }
        )
        previous = encoded
    left = node.subtrees[0]
    return {"l": left.cid() if left is not None else None, "e": entries}


def build_canonical(items: dict[str, Cid]) -> Mst:
    """The canonical MST for a key→CID mapping, built from scratch layer
    by layer rather than by the production tree's insertions."""
    if not items:
        return Mst()
    keyed = sorted(items.items())
    layers = {key: key_layer(key) for key, _ in keyed}
    top = max(layers.values())

    def build(segment: list[tuple[str, Cid]], layer: int) -> Optional[MstNode]:
        if not segment:
            return None
        if layer < 0:
            raise MstError("internal error: negative layer during build")
        entries = [(k, v) for k, v in segment if layers[k] == layer]
        if not entries and layer > 0:
            # No keys at this layer in this range: the node is elided and the
            # child takes its place conceptually; but atproto trees always
            # step one layer per level, so we create a pass-through node only
            # at the root.  Within build, elide by recursing directly.
            return _wrap(build(segment, layer - 1), layer)
        chunk: list[tuple[str, Cid]] = []
        node_entries: list[tuple[str, Cid]] = []
        subtrees: list[Optional[MstNode]] = []
        for key, value in segment:
            if layers[key] == layer:
                subtrees.append(build(chunk, layer - 1))
                node_entries.append((key, value))
                chunk = []
            else:
                chunk.append((key, value))
        subtrees.append(build(chunk, layer - 1))
        return MstNode(layer, node_entries, subtrees)

    def _wrap(child: Optional[MstNode], layer: int) -> Optional[MstNode]:
        if child is None:
            return None
        return MstNode(layer, [], [child])

    root = build(keyed, top)
    assert root is not None
    return Mst(root)


def oracle_base32_encode(data: bytes) -> str:
    """Unpadded lowercase RFC 4648 base32, five bits at a time."""
    bits = 0
    bit_count = 0
    out = []
    for byte in data:
        bits = (bits << 8) | byte
        bit_count += 8
        while bit_count >= 5:
            bit_count -= 5
            out.append(BASE32_ALPHABET[(bits >> bit_count) & 0x1F])
    if bit_count:
        out.append(BASE32_ALPHABET[(bits << (5 - bit_count)) & 0x1F])
    return "".join(out)


def oracle_is_valid_mst_key(key: str) -> bool:
    """``collection/rkey`` with both parts non-empty, at most 1024
    characters, from the MST key charset."""
    if not key or len(key) > 1024:
        return False
    if key.count("/") != 1:
        return False
    collection, _, rkey = key.partition("/")
    if not collection or not rkey:
        return False
    return all(c in VALID_KEY_CHARS for c in key)


# The DAG-CBOR decoder as a class with one method call per head and slice.
class _Decoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CborError("truncated CBOR input")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def _read_head(self) -> tuple[int, int]:
        byte = self._take(1)[0]
        major = byte >> 5
        info = byte & 0x1F
        if info < 24:
            return major, info
        if info == 24:
            value = self._take(1)[0]
            if value < 24:
                raise CborError("non-minimal integer encoding")
            return major, value
        if info == 25:
            value = int.from_bytes(self._take(2), "big")
            if value < 0x100:
                raise CborError("non-minimal integer encoding")
            return major, value
        if info == 26:
            value = int.from_bytes(self._take(4), "big")
            if value < 0x10000:
                raise CborError("non-minimal integer encoding")
            return major, value
        if info == 27:
            value = int.from_bytes(self._take(8), "big")
            if value < 0x100000000:
                raise CborError("non-minimal integer encoding")
            return major, value
        raise CborError("indefinite-length items are forbidden in DAG-CBOR")

    def decode_value(self, depth: int = 0) -> Any:
        if depth > _MAX_NESTING:
            raise CborError("input nests deeper than %d levels" % _MAX_NESTING)
        byte = self.data[self.pos] if self.pos < len(self.data) else None
        if byte is None:
            raise CborError("truncated CBOR input")
        # Simple values and floats share major type 7 but have non-integer
        # heads, so handle them before _read_head's minimality checks.
        if byte >> 5 == 7:
            self.pos += 1
            info = byte & 0x1F
            if info == 20:
                return False
            if info == 21:
                return True
            if info == 22:
                return None
            if info == 27:
                value = struct.unpack(">d", self._take(8))[0]
                if math.isnan(value) or math.isinf(value):
                    raise CborError("DAG-CBOR forbids NaN and infinities")
                return value
            raise CborError("unsupported simple/float head 0x%02x" % byte)
        major, arg = self._read_head()
        if major == 0:
            return arg
        if major == 1:
            return -1 - arg
        if major == 2:
            return self._take(arg)
        if major == 3:
            raw = self._take(arg)
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CborError("invalid UTF-8 in text string") from exc
        if major == 4:
            return [self.decode_value(depth + 1) for _ in range(arg)]
        if major == 5:
            result: dict[str, Any] = {}
            previous: tuple[int, bytes] | None = None
            for _ in range(arg):
                key = self.decode_value(depth + 1)
                if not isinstance(key, str):
                    raise CborError("DAG-CBOR map keys must be strings")
                sort_key = _map_key_sort_key(key)
                if previous is not None and sort_key <= previous:
                    raise CborError("map keys out of canonical order")
                previous = sort_key
                result[key] = self.decode_value(depth + 1)
            return result
        if major == 6:
            if arg != 42:
                raise CborError("only tag 42 (CID) is allowed, got %d" % arg)
            payload = self.decode_value(depth + 1)
            if not isinstance(payload, bytes) or not payload.startswith(b"\x00"):
                raise CborError("tag 42 payload must be identity-multibase CID bytes")
            return Cid.from_bytes(payload[1:])
        raise CborError("unsupported major type %d" % major)


def oracle_cbor_decode(data: bytes) -> Any:
    """Decode DAG-CBOR bytes, requiring the input be a single complete item."""
    decoder = _Decoder(data)
    value = decoder.decode_value()
    if decoder.pos != len(data):
        raise CborError("%d trailing bytes after CBOR item" % (len(data) - decoder.pos))
    return value


# ---------------------------------------------------------------------------
# Record write path
# ---------------------------------------------------------------------------


def oracle_check_field(schema: RecordSchema, spec: Field, value: Any) -> None:
    """One field's checks, with the checker table rebuilt per call."""
    checkers: dict[str, Callable[[Any], bool]] = {
        "string": lambda v: isinstance(v, str),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "boolean": lambda v: isinstance(v, bool),
        "bytes": lambda v: isinstance(v, bytes) and not isinstance(v, Cid),
        "cid": lambda v: isinstance(v, Cid),
        "dict": lambda v: isinstance(v, dict),
        "list": lambda v: isinstance(v, list),
        "ref": lambda v: isinstance(v, dict) and "uri" in v,
    }
    check = checkers.get(spec.type)
    if check is None:
        raise LexiconError("unknown field type %r in schema" % spec.type)
    if not check(value):
        raise LexiconError(
            "%s: field %r must be %s, got %r"
            % (schema.nsid, spec.name, spec.type, type(value).__name__)
        )
    if spec.max_length is not None and isinstance(value, str) and len(value) > spec.max_length:
        raise LexiconError(
            "%s: field %r longer than %d" % (schema.nsid, spec.name, spec.max_length)
        )
    if spec.known_values is not None and value not in spec.known_values:
        raise LexiconError("%s: field %r has unknown value %r" % (schema.nsid, spec.name, value))


def oracle_schema_validate(schema: RecordSchema, record: dict) -> None:
    """``RecordSchema.validate`` with its field map rebuilt per record."""
    if record.get("$type") != schema.nsid:
        raise LexiconError(
            "record $type %r does not match collection %r" % (record.get("$type"), schema.nsid)
        )
    by_name = {f.name: f for f in schema.fields}
    for spec in schema.fields:
        if spec.required and spec.name not in record:
            raise LexiconError("%s: missing required field %r" % (schema.nsid, spec.name))
    for name, value in record.items():
        if name == "$type":
            continue
        spec = by_name.get(name)
        if spec is None:
            if schema.allow_extra:
                continue
            raise LexiconError("%s: unknown field %r" % (schema.nsid, name))
        oracle_check_field(schema, spec, value)


def oracle_registry_validate(schemas: dict, collection: str, record: dict) -> None:
    """``LexiconRegistry.validate`` that parses the NSID on every call."""
    if not Nsid.is_valid(collection):
        raise LexiconError("invalid collection NSID %r" % collection)
    schema = schemas.get(collection)
    if schema is not None:
        oracle_schema_validate(schema, record)


def oracle_tid_str(tid: Tid) -> str:
    """A TID's 13 characters, five bits at a time."""
    value = tid.to_int()
    return "".join(SORTABLE_ALPHABET[(value >> shift) & 0x1F] for shift in range(60, -1, -5))


def oracle_hmac_sig(secret: bytes, message: bytes) -> bytes:
    """The 64-byte simulator signature from two ``hmac.new`` objects."""
    first = hmac.new(secret, message, hashlib.sha256).digest()
    second = hmac.new(secret, first + message, hashlib.sha256).digest()
    return first + second


def oracle_iso_timestamp(time_us: int) -> str:
    """ISO-8601 with millisecond precision through ``datetime`` and
    ``strftime`` (whose ``%Y`` is not zero-padded below year 1000 on every
    platform, so compare from year 1000 on)."""
    moment = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc) + datetime.timedelta(
        microseconds=time_us
    )
    return moment.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def oracle_encode_event_frame(event: FirehoseEvent) -> bytes:
    """A firehose frame from header and payload dicts through ``cbor_encode``."""
    header = {"op": 1, "t": event.kind}
    payload: dict = {
        "seq": event.seq,
        "repo": event.did,
        "time": oracle_iso_timestamp(event.time_us),
    }
    payload["timeUs"] = event.time_us
    if isinstance(event, CommitEvent):
        payload["rev"] = event.rev
        payload["commit"] = event.commit_cid
        payload["tooBig"] = event.too_big
        payload["ops"] = [
            {
                "action": op.action,
                "path": op.path,
                "cid": op.cid,
                "record": op.record,
            }
            for op in event.ops
        ]
    elif isinstance(event, (HandleEvent, IdentityEvent)):
        if getattr(event, "handle", None):
            payload["handle"] = event.handle
    elif isinstance(event, InfoEvent):
        payload["name"] = event.name
        payload["message"] = event.message
        if event.oldest_seq is not None:
            payload["oldestSeq"] = event.oldest_seq
        payload["dropped"] = event.dropped
    return cbor_encode(header) + cbor_encode(payload)


def oracle_load_mst(blocks: dict[Cid, bytes], root_cid: Cid) -> Mst:
    """The tree under ``root_cid``, every node block read through
    ``cbor_decode`` and :func:`_node_entries`."""

    def load(cid: Cid, layer_hint: Optional[int], depth: int) -> MstNode:
        block = blocks.get(cid)
        if block is None:
            raise MstError("missing MST block %s" % cid)
        entries, links = _node_entries(cid, cbor_decode(block))
        if entries:
            layer = key_layer(entries[0][0])
        elif layer_hint is not None:
            layer = layer_hint
        else:
            layer = 0
        subtrees = []
        for link in links:
            if link is not None and depth == MAX_LAYER:
                raise MstError("MST deeper than %d levels at %s" % (MAX_LAYER + 1, link))
            subtrees.append(None if link is None else load(link, layer - 1, depth + 1))
        return MstNode(layer, entries, subtrees)

    return Mst(load(root_cid, None, 0))


def check_invariants(mst: Mst) -> None:
    """Validate an in-memory tree's layer assignment, ordering, and pointer
    structure; :func:`~repro.atproto.mst.load_mst` makes the same checks
    on a stored tree, in the same order."""

    def visit(node: MstNode, lo: Optional[str], hi: Optional[str]) -> None:
        if len(node.subtrees) != len(node.entries) + 1:
            raise MstError("subtree/entry arity mismatch")
        for index, (key, _) in enumerate(node.entries):
            if key_layer(key) != node.layer:
                raise MstError("key %r stored at wrong layer" % key)
            if lo is not None and key <= lo:
                raise MstError("key %r out of range" % key)
            if hi is not None and key >= hi:
                raise MstError("key %r out of range" % key)
            if index and key <= node.entries[index - 1][0]:
                raise MstError("entries out of order at %r" % key)
        for index, subtree in enumerate(node.subtrees):
            if subtree is None:
                continue
            if subtree.layer != node.layer - 1:
                raise MstError("child layer must be parent layer - 1")
            if subtree.is_empty():
                raise MstError("empty non-root node")
            sub_lo = node.entries[index - 1][0] if index > 0 else lo
            sub_hi = node.entries[index][0] if index < len(node.entries) else hi
            visit(subtree, sub_lo, sub_hi)

    visit(mst.root, None, None)


@dataclass
class OracleSnapshot:
    """An imported repository with every record decoded: ``records`` and
    ``record_cids`` map each path, in key order, to its record and CID."""

    did: str
    rev: str
    commit_cid: Cid
    records: dict = field(default_factory=dict)
    record_cids: dict = field(default_factory=dict)


def oracle_import_car(data: bytes, verify_key=None) -> OracleSnapshot:
    """A repo CAR import that builds the tree: :func:`read_car`, then
    :func:`oracle_load_mst`, :func:`check_invariants`, the tree's
    items in key order and one ``cbor_decode`` per record."""
    roots, blocks = read_car(data)
    if len(roots) != 1:
        raise RepoError("repo CAR must have exactly one root")
    if roots[0] not in blocks:
        raise RepoError("root block %s missing from CAR" % roots[0])
    commit = cbor_decode(blocks[roots[0]])
    if not isinstance(commit, dict) or commit.get("version") != COMMIT_VERSION:
        raise RepoError("root block is not a v%d commit" % COMMIT_VERSION)
    if not isinstance(commit.get("did"), str) or not isinstance(commit.get("rev"), str):
        raise RepoError("commit is missing did/rev fields")
    if not isinstance(commit.get("data"), Cid):
        raise RepoError("commit has no data link")
    if verify_key is not None:
        sig = commit.get("sig")
        unsigned = {k: v for k, v in commit.items() if k != "sig"}
        if type(sig) is not bytes or not verify_key.verify(cbor_encode(unsigned), sig):
            raise SignatureError("commit signature verification failed")
    mst = oracle_load_mst(blocks, commit["data"])
    check_invariants(mst)
    snapshot = OracleSnapshot(did=commit["did"], rev=commit["rev"], commit_cid=roots[0])
    for path, cid in mst.items():
        if cid not in blocks:
            raise RepoError("record block %s missing from CAR" % cid)
        snapshot.records[path] = cbor_decode(blocks[cid])
        snapshot.record_cids[path] = cid
    return snapshot


# ---------------------------------------------------------------------------
# Repositories dataset rows
# ---------------------------------------------------------------------------


def oracle_ingest(data: RepositoriesDataset, did: str, path: str, record: dict) -> None:
    """One decoded record into its dataset row, read field by field with
    ``dict.get``.  Fields are assumed to have their lexicon types."""
    collection, _, rkey = path.partition("/")
    created = record.get("createdAt", "")
    created_us = parse_created_at_us(created)
    if collection == POST:
        year = int(created[:4]) if created[:4].isdigit() else 0
        langs = record.get("langs") or []
        data.posts.append(
            PostRow(
                did=did,
                rkey=rkey,
                created_us=created_us,
                created_year=year,
                lang=langs[0] if langs else None,
                has_media="images" in (record.get("embed") or {}),
            )
        )
    elif collection == LIKE:
        subject = (record.get("subject") or {}).get("uri", "")
        data.likes.append(SubjectRow(did, created_us, subject))
    elif collection == FOLLOW:
        data.follows.append(SubjectRow(did, created_us, record.get("subject", "")))
    elif collection == REPOST:
        subject = (record.get("subject") or {}).get("uri", "")
        data.reposts.append(SubjectRow(did, created_us, subject))
    elif collection == BLOCK:
        data.blocks.append(SubjectRow(did, created_us, record.get("subject", "")))
    elif collection == FEED_GENERATOR:
        data.feed_generators.append(
            FeedGenRow(
                did=did,
                rkey=rkey,
                created_us=created_us,
                service_did=record.get("did", ""),
                display_name=record.get("displayName", ""),
                description=record.get("description", ""),
            )
        )
    elif collection == LABELER_SERVICE:
        data.labeler_services.append((did, created_us))
    elif collection == PROFILE:
        data.profiles[did] = record.get("displayName", "")
    else:
        data.other_collections[collection] += 1


def oracle_repositories(cars) -> RepositoriesDataset:
    """The rows of ``(did, car)`` repositories through
    :func:`oracle_import_car` and :func:`oracle_ingest`; a CAR the import
    refuses adds no row."""
    data = RepositoriesDataset()
    for did, car in cars:
        try:
            snapshot = oracle_import_car(car)
        except ValueError:
            continue
        data.repo_count += 1
        for path, record in snapshot.records.items():
            oracle_ingest(data, did, path, record)
        data.records_per_repo[did] = len(snapshot.records)
    return data
