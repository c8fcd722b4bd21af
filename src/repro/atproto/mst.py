"""Merkle Search Tree (MST).

ATProto repositories map ``collection/rkey`` paths to record CIDs through an
MST: a deterministic, history-independent search tree.  Each key is assigned
a *layer* — the number of leading zero bits of ``sha256(key)``, counted in
2-bit groups (fanout 4).  A node at layer *h* holds the keys of layer *h*
in sorted order, with subtree pointers (at layer *h-1*) between them.  The
tree shape is a pure function of the key set, so two implementations that
store the same records always agree on the root CID.

The implementation here supports incremental insert/delete (splitting and
merging subtrees as the original algorithm requires) with per-node block,
CID and key-fragment caching, plus a canonical batch builder used by the
property tests to check that incremental maintenance always converges to
the canonical shape.

Node serialization follows the atproto ``com.atproto.repo`` data model::

    {"l": Optional[CID], "e": [{"p": int, "k": bytes, "v": CID, "t": Optional[CID]}]}

where ``p`` is the number of prefix bytes shared with the previous key in
the node and ``k`` is the remaining key suffix.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from typing import Iterator, Optional

from repro.atproto.cbor import _encode_head
from repro.atproto.cid import Cid, cid_for_dag_cbor_bytes


class MstError(ValueError):
    """Raised on invalid MST operations."""


# Layer memo: the same ``collection/rkey`` keys get their layer recomputed
# on every canonical build, invariant check, and proof — one sha256 each.
# Bounded so pathological key churn cannot grow it without limit.
_LAYER_CACHE: dict[str, int] = {}
_LAYER_CACHE_MAX = 1 << 20


def key_layer(key: str) -> int:
    """Layer of a key: count of leading zero 2-bit groups of sha256(key)."""
    layer = _LAYER_CACHE.get(key)
    if layer is None:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        # Leading zero bits of the 256-bit digest, counted in 2-bit groups.
        layer = (256 - int.from_bytes(digest, "big").bit_length()) // 2
        if len(_LAYER_CACHE) >= _LAYER_CACHE_MAX:
            _LAYER_CACHE.clear()
        _LAYER_CACHE[key] = layer
    return layer


# ``collection/rkey``: exactly one ``/``, both sides non-empty, and only
# these characters.  Keys are also capped at 1024 characters.
_VALID_KEY = re.compile(r"[a-zA-Z0-9._:~-]+/[a-zA-Z0-9._:~-]+")


def is_valid_mst_key(key: str) -> bool:
    """MST keys are ``collection/rkey`` paths with a restricted charset."""
    return len(key) <= 1024 and _VALID_KEY.fullmatch(key) is not None


# Fixed pieces of a node block.  Map keys are written in canonical
# (len, bytes) order: ``e`` before ``l`` at the top, ``k``/``p``/``t``/``v``
# in each entry.
_V_KEY = b"\x61\x76"  # "v"
_L_KEY = b"\x61\x6c"  # "l"
_NULL = b"\xf6"


def _key_fragment(previous: bytes, encoded: bytes) -> bytes:
    """The bytes of one entry that depend only on keys: the 4-entry map
    head, ``k`` (the suffix after the prefix shared with the left
    neighbour ``previous``), ``p`` (the shared length) and the ``t`` key."""
    prefix_len = 0
    limit = min(len(previous), len(encoded))
    while prefix_len < limit and previous[prefix_len] == encoded[prefix_len]:
        prefix_len += 1
    out = bytearray(b"\xa4\x61\x6b")  # "k"
    _encode_head(2, len(encoded) - prefix_len, out)
    out += encoded[prefix_len:]
    out += b"\x61\x70"  # "p"
    _encode_head(0, prefix_len, out)
    out += b"\x61\x74"  # "t"
    return bytes(out)


def _key_fragments(entries: list[tuple[str, Cid]]) -> list[bytes]:
    fragments = []
    previous = b""
    for key, _ in entries:
        encoded = key.encode("utf-8")
        fragments.append(_key_fragment(previous, encoded))
        previous = encoded
    return fragments


class MstNode:
    """A mutable MST node.  ``entries`` holds (key, value_cid) pairs and
    ``subtrees`` the child pointers: ``subtrees[i]`` sits left of
    ``entries[i]``, and ``subtrees[-1]`` right of the last entry, so
    ``len(subtrees) == len(entries) + 1``.

    ``_fragments[i]`` caches the key-dependent bytes of ``entries[i]``
    (see :func:`_key_fragment`), or is None until the node is first
    encoded.  A fragment depends only on its key and the key to its left,
    so the tree's mutators keep the list in step with ``entries`` and
    recompute only the fragments next to a change.
    """

    __slots__ = ("layer", "entries", "subtrees", "_fragments", "_cid", "_cbor")

    def __init__(
        self,
        layer: int,
        entries: Optional[list[tuple[str, Cid]]] = None,
        subtrees: Optional[list[Optional["MstNode"]]] = None,
        fragments: Optional[list[bytes]] = None,
    ):
        self.layer = layer
        self.entries: list[tuple[str, Cid]] = entries if entries is not None else []
        if subtrees is None:
            subtrees = [None] * (len(self.entries) + 1)
        if len(subtrees) != len(self.entries) + 1:
            raise MstError("subtrees must have len(entries)+1 slots")
        self.subtrees: list[Optional[MstNode]] = subtrees
        self._fragments = fragments
        self._cid: Optional[Cid] = None
        self._cbor: Optional[bytes] = None

    # -- serialization ------------------------------------------------------

    def to_cbor(self) -> bytes:
        """Serialized node block; cached until the node is invalidated, so
        unchanged subtrees are never re-encoded across inserts/exports.

        Node blocks are the single hottest encode in the commit loop (every
        record write re-serializes the root path), so the block is joined
        from the cached key fragments and the children's and values' cached
        link bytes: re-encoding an ancestor whose only change is one child
        CID computes no key bytes.  The bytes are identical to the generic
        encoder's for the ``{"l": ..., "e": [{"p", "k", "v", "t"}, ...]}``
        data model (pinned by a test).
        """
        cached = self._cbor
        if cached is None:
            entries = self.entries
            fragments = self._fragments
            if fragments is None:
                fragments = self._fragments = _key_fragments(entries)
            subtrees = self.subtrees
            head = bytearray(b"\xa2\x61\x65")  # 2-entry map, "e"
            _encode_head(4, len(entries), head)
            parts = [bytes(head)]
            append = parts.append
            for index in range(len(entries)):
                append(fragments[index])
                right = subtrees[index + 1]
                append(_NULL if right is None else right.cid().cbor_link())
                append(_V_KEY)
                append(entries[index][1].cbor_link())
            append(_L_KEY)
            left = subtrees[0]
            append(_NULL if left is None else left.cid().cbor_link())
            cached = self._cbor = b"".join(parts)
        return cached

    def cid(self) -> Cid:
        if self._cid is None:
            # Fused path: one encode, one sha256 — the cbor bytes are kept
            # so exports (blocks(), proofs, CARs) reuse them for free.
            self._cid = cid_for_dag_cbor_bytes(self.to_cbor())
        return self._cid

    def invalidate(self) -> None:
        self._cid = None
        self._cbor = None

    # -- entry edits (keep ``_fragments`` in step) ---------------------------

    def _refresh_fragment(self, index: int) -> None:
        """Recompute the fragment of ``entries[index]`` after its left
        neighbour changed (no-op past the end or before the first encode)."""
        fragments = self._fragments
        entries = self.entries
        if fragments is not None and index < len(entries):
            previous = entries[index - 1][0].encode("utf-8") if index else b""
            fragments[index] = _key_fragment(previous, entries[index][0].encode("utf-8"))

    def _insert_entry(self, index: int, entry: tuple[str, Cid]) -> None:
        self.entries.insert(index, entry)
        if self._fragments is not None:
            self._fragments.insert(index, b"")
            self._refresh_fragment(index)
            self._refresh_fragment(index + 1)

    def _delete_entry(self, index: int) -> None:
        del self.entries[index]
        if self._fragments is not None:
            del self._fragments[index]
            self._refresh_fragment(index)

    # -- queries ------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.entries and all(s is None for s in self.subtrees)

    def walk(self) -> Iterator[tuple[str, Cid]]:
        """Yield all (key, value) pairs in sorted key order."""
        for index, entry in enumerate(self.entries):
            subtree = self.subtrees[index]
            if subtree is not None:
                yield from subtree.walk()
            yield entry
        last = self.subtrees[-1]
        if last is not None:
            yield from last.walk()

    def walk_nodes(self) -> Iterator["MstNode"]:
        """Yield every node in the tree (pre-order)."""
        yield self
        for subtree in self.subtrees:
            if subtree is not None:
                yield from subtree.walk_nodes()

    def _gap_for(self, key: str) -> int:
        """Index of the subtree gap whose key range contains ``key``."""
        # ``(key,)`` sorts before ``(key, cid)``, so no CIDs are compared.
        return bisect_left(self.entries, (key,))

    def get(self, key: str) -> Optional[Cid]:
        gap = self._gap_for(key)
        if gap < len(self.entries) and self.entries[gap][0] == key:
            return self.entries[gap][1]
        subtree = self.subtrees[gap]
        if subtree is None:
            return None
        return subtree.get(key)


class Mst:
    """The mutable tree wrapper with insert/update/delete and invariants."""

    def __init__(self, root: Optional[MstNode] = None):
        self.root = root if root is not None else MstNode(0)

    # -- basic operations ---------------------------------------------------

    def get(self, key: str) -> Optional[Cid]:
        return self.root.get(key)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[tuple[str, Cid]]:
        return self.root.walk()

    def keys(self) -> Iterator[str]:
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def root_cid(self) -> Cid:
        return self.root.cid()

    def blocks(self) -> dict[Cid, bytes]:
        """All node blocks of the current tree, keyed by CID."""
        out: dict[Cid, bytes] = {}
        for node in self.root.walk_nodes():
            out[node.cid()] = node.to_cbor()
        return out

    # -- insertion ----------------------------------------------------------

    def set(self, key: str, value: Cid) -> None:
        """Insert a new key or replace the value of an existing one."""
        if not is_valid_mst_key(key):
            raise MstError("invalid MST key %r" % key)
        layer = key_layer(key)
        while layer > self.root.layer:
            old_root = self.root
            child = None if old_root.is_empty() else old_root
            self.root = MstNode(old_root.layer + 1, [], [child])
        self._insert(self.root, key, value, layer)

    def _insert(self, node: MstNode, key: str, value: Cid, layer: int) -> None:
        """Put ``key`` into the node at its layer on the search path,
        replacing the value if the key is already there."""
        node.invalidate()
        gap = node._gap_for(key)
        if layer == node.layer:
            if gap < len(node.entries) and node.entries[gap][0] == key:
                node.entries[gap] = (key, value)
                return
            left_split, right_split = self._split(node.subtrees[gap], key)
            node._insert_entry(gap, (key, value))
            node.subtrees[gap : gap + 1] = [left_split, right_split]
            return
        if layer > node.layer:
            raise MstError("internal error: descended past the key's layer")
        child = node.subtrees[gap]
        if child is None:
            child = MstNode(node.layer - 1)
            node.subtrees[gap] = child
        self._insert(child, key, value, layer)

    def _split(
        self, node: Optional[MstNode], key: str
    ) -> tuple[Optional[MstNode], Optional[MstNode]]:
        """Split a subtree into parts strictly left and right of ``key``."""
        if node is None:
            return None, None
        gap = node._gap_for(key)
        if gap < len(node.entries) and node.entries[gap][0] == key:
            raise MstError("key already present below its own layer")
        left_child, right_child = self._split(node.subtrees[gap], key)
        fragments = node._fragments
        left = MstNode(
            node.layer,
            node.entries[:gap],
            node.subtrees[:gap] + [left_child],
            fragments[:gap] if fragments is not None else None,
        )
        right = MstNode(
            node.layer,
            node.entries[gap:],
            [right_child] + node.subtrees[gap + 1 :],
            fragments[gap:] if fragments is not None else None,
        )
        right._refresh_fragment(0)
        return (
            left if not left.is_empty() else None,
            right if not right.is_empty() else None,
        )

    # -- deletion -----------------------------------------------------------

    def delete(self, key: str) -> None:
        """Remove a key; raises :class:`KeyError` if absent."""
        if not self._delete(self.root, key):
            raise KeyError(key)
        # Collapse a root that has no entries and a single child chain.
        while (
            not self.root.entries
            and self.root.layer > 0
            and self.root.subtrees[0] is not None
        ):
            self.root = self.root.subtrees[0]
        if not self.root.entries and self.root.subtrees[0] is None and self.root.layer > 0:
            self.root = MstNode(0)

    def _delete(self, node: MstNode, key: str) -> bool:
        gap = node._gap_for(key)
        if gap < len(node.entries) and node.entries[gap][0] == key:
            merged = self._merge(node.subtrees[gap], node.subtrees[gap + 1])
            node._delete_entry(gap)
            node.subtrees[gap : gap + 2] = [merged]
            node.invalidate()
            return True
        subtree = node.subtrees[gap]
        if subtree is None:
            return False
        if not self._delete(subtree, key):
            return False
        if subtree.is_empty():
            node.subtrees[gap] = None
        node.invalidate()
        return True

    def _merge(
        self, left: Optional[MstNode], right: Optional[MstNode]
    ) -> Optional[MstNode]:
        """Merge two sibling subtrees; every key in ``left`` < keys in ``right``."""
        if left is None:
            return right
        if right is None:
            return left
        middle = self._merge(left.subtrees[-1], right.subtrees[0])
        fragments = None
        if left._fragments is not None and right._fragments is not None:
            fragments = left._fragments + right._fragments
        merged = MstNode(
            left.layer,
            left.entries + right.entries,
            left.subtrees[:-1] + [middle] + right.subtrees[1:],
            fragments,
        )
        merged._refresh_fragment(len(left.entries))
        return merged

    # -- verification -------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate layer assignment, ordering, and pointer structure."""

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

        visit(self.root, None, None)


def build_canonical(items: dict[str, Cid]) -> Mst:
    """Build the canonical MST for a key→CID mapping from scratch.

    Used both as a reference implementation for property tests and as a
    fast path when materialising a whole repository at once.
    """
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
        node = MstNode(layer, [], [child])
        return node

    root = build(keyed, top)
    assert root is not None
    return Mst(root)


def prove_inclusion(tree: Mst, key: str) -> list[bytes]:
    """Merkle inclusion proof: the serialized nodes on the path to ``key``.

    The proof is the chain of MST node blocks from the root down to the
    node holding the key.  :func:`verify_inclusion` checks it against a
    root CID without needing the rest of the tree — the mechanism that
    lets ATProto serve verifiable single records (``sync.getRecord``).
    """
    path: list[bytes] = []

    def descend(node: MstNode) -> bool:
        path.append(node.to_cbor())
        gap = node._gap_for(key)
        if gap < len(node.entries) and node.entries[gap][0] == key:
            return True
        child = node.subtrees[gap]
        if child is None:
            return False
        return descend(child)

    if not descend(tree.root):
        raise KeyError(key)
    return path


def verify_inclusion(
    root_cid: Cid, key: str, value: Cid, proof: list[bytes]
) -> bool:
    """Check an inclusion proof against a trusted MST root CID."""
    from repro.atproto.cbor import cbor_decode

    expected = root_cid
    for block in proof:
        if Cid(1, expected.codec, hashlib.sha256(block).digest()) != expected:
            return False
        data = cbor_decode(block)
        # Reconstruct this node's entries (prefix-compressed keys).
        previous = b""
        next_cid: Optional[Cid] = data.get("l")
        for entry in data.get("e", []):
            entry_key = (previous[: entry["p"]] + entry["k"]).decode("utf-8")
            previous = previous[: entry["p"]] + entry["k"]
            if entry_key == key:
                return entry["v"] == value
            if entry_key < key:
                next_cid = entry.get("t")
            else:
                break
        if next_cid is None:
            return False
        expected = next_cid
    return False


def mst_diff(old: Mst, new: Mst) -> dict[str, tuple[Optional[Cid], Optional[Cid]]]:
    """Key-level diff between two trees: key → (old_value, new_value)."""
    old_items = dict(old.items())
    new_items = dict(new.items())
    out: dict[str, tuple[Optional[Cid], Optional[Cid]]] = {}
    # Sorted so the result dict's insertion order (and anything derived
    # from iterating it) is independent of PYTHONHASHSEED.
    for key in sorted(old_items.keys() | new_items.keys()):
        before = old_items.get(key)
        after = new_items.get(key)
        if before != after:
            out[key] = (before, after)
    return out


def load_mst(blocks: dict[Cid, bytes], root_cid: Cid) -> Mst:
    """Reconstruct an MST from a block map (e.g. parsed from a CAR file)."""
    from repro.atproto.cbor import cbor_decode

    def load(cid: Cid, layer_hint: Optional[int]) -> MstNode:
        if cid not in blocks:
            raise MstError("missing MST block %s" % cid)
        data = cbor_decode(blocks[cid])
        entries: list[tuple[str, Cid]] = []
        subtree_cids: list[Optional[Cid]] = [data.get("l")]
        previous = b""
        for entry in data.get("e", []):
            encoded = previous[: entry["p"]] + entry["k"]
            entries.append((encoded.decode("utf-8"), entry["v"]))
            subtree_cids.append(entry.get("t"))
            previous = encoded
        if entries:
            layer = key_layer(entries[0][0])
        elif layer_hint is not None:
            layer = layer_hint
        else:
            layer = 0
        subtrees: list[Optional[MstNode]] = []
        for child_cid in subtree_cids:
            if child_cid is None:
                subtrees.append(None)
            else:
                subtrees.append(load(child_cid, layer - 1))
        node = MstNode(layer, entries, subtrees)
        return node

    return Mst(load(root_cid, None))
