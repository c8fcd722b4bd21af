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
CID and key-fragment caching.  The property tests check it against a
layer-by-layer construction of the canonical tree, kept with the test
oracles.

Node serialization follows the atproto ``com.atproto.repo`` data model::

    {"l": Optional[CID], "e": [{"p": int, "k": bytes, "v": CID, "t": Optional[CID]}]}

where ``p`` is the number of prefix bytes shared with the previous key in
the node and ``k`` is the remaining key suffix.

Reading goes the other way.  :func:`read_node` parses one node block.
Its fast path walks, byte by byte, the one layout :meth:`MstNode.to_cbor`
writes: shortest-form heads, map keys in canonical order, and links that
are CIDv1 dag-cbor sha2-256.  Any other block goes to the generic
decoder and the field-by-field check of :func:`_node_entries`, so both
paths accept the same blocks and raise the same errors.  :func:`load_mst`
reads a stored tree for import: it checks that every node has one more
subtree link than entries, every key sits at its layer, keys rise within
a node and stay inside the range their parent's keys allow, and every
child is a non-empty node one layer down.  It returns the ``(key,
value)`` pairs in key order, without building :class:`MstNode` objects.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from typing import Iterator, Optional

from repro.atproto.cbor import _encode_head, cbor_decode
from repro.atproto.cid import Cid, cid_for_dag_cbor_bytes, cid_from_binary


class MstError(ValueError):
    """Raised on invalid MST operations."""


# The largest layer a key can have: a sha256 digest has 128 2-bit groups.
MAX_LAYER = 128

# Layer memo: the same ``collection/rkey`` keys get their layer recomputed
# on every insert, invariant check and import walk — one sha256 each.
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
            # so exports (blocks(), CARs) reuse them for free.
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


def _node_entries(cid: Cid, data) -> tuple[list[tuple[str, Cid]], list[Optional[Cid]]]:
    """A decoded node block's ``(key, value)`` entries and its subtree
    links (``links[i]`` left of ``entries[i]``, the last one right of the
    last entry), with every field checked against the node data model."""
    if data.__class__ is not dict:
        raise MstError("MST node %s is not a map" % cid)
    left = data.get("l")
    raw_entries = data.get("e", [])
    if left is not None and left.__class__ is not Cid:
        raise MstError("MST node %s has a non-CID left link" % cid)
    if raw_entries.__class__ is not list:
        raise MstError("MST node %s entries are not a list" % cid)
    entries: list[tuple[str, Cid]] = []
    links: list[Optional[Cid]] = [left]
    previous = b""
    for entry in raw_entries:
        if entry.__class__ is not dict:
            raise MstError("MST node %s has a non-map entry" % cid)
        prefix_len = entry.get("p")
        suffix = entry.get("k")
        value = entry.get("v")
        right = entry.get("t")
        if prefix_len.__class__ is not int or not 0 <= prefix_len <= len(previous):
            raise MstError("MST node %s has an invalid prefix length" % cid)
        if suffix.__class__ is not bytes:
            raise MstError("MST node %s has a non-bytes key suffix" % cid)
        if value.__class__ is not Cid or (right is not None and right.__class__ is not Cid):
            raise MstError("MST node %s has a non-CID value or subtree link" % cid)
        encoded = previous[:prefix_len] + suffix
        try:
            key = encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MstError("MST node %s has a non-UTF-8 key" % cid) from exc
        entries.append((key, value))
        links.append(right)
        previous = encoded
    return entries, links


# Fixed pieces of the canonical node layout, as :meth:`MstNode.to_cbor`
# writes it: the node head with its ``e`` key, each entry's head with its
# ``k`` key, the ``p``, ``t``, ``v`` and ``l`` keys, and the link prefix
# (tag 42, a 37-byte string, the identity byte, CIDv1 dag-cbor sha2-256).
_NODE_HEAD = b"\xa2\x61\x65"
_ENTRY_HEAD = b"\xa4\x61\x6b"
_P_KEY = b"\x61\x70"
_T_KEY = b"\x61\x74"
_LINK = b"\xd8\x2a\x58\x25\x00\x01\x71\x12\x20"
_V_LINK = _V_KEY + _LINK
_LINK_LEN = len(_LINK) + 32


def _read_canonical_node(block: bytes):
    """``(entries, links)`` of a block in the canonical node layout, or
    None for any other block.

    Only shortest-form heads are read, so a block this accepts is one the
    generic decoder reads to the same value.  A prefix length past the
    previous key or a key that is not UTF-8 also gives None: the generic
    path then raises its own error for it."""
    if not block.startswith(_NODE_HEAD):
        return None
    try:
        head = block[3]
        if 0x80 <= head < 0x98:
            count, pos = head - 0x80, 4
        elif head == 0x98 and block[4] >= 24:
            count, pos = block[4], 5
        else:
            return None
        entries: list[tuple[str, Cid]] = []
        links: list[Optional[Cid]] = [None]
        previous = b""
        for _ in range(count):
            if not block.startswith(_ENTRY_HEAD, pos):
                return None
            head = block[pos + 3]
            if 0x40 <= head < 0x58:
                start = pos + 4
                end = start + head - 0x40
            elif head == 0x58 and block[pos + 4] >= 24:
                start = pos + 5
                end = start + block[pos + 4]
            else:
                return None
            if not block.startswith(_P_KEY, end):
                return None
            prefix_len = block[end + 2]
            if prefix_len < 24:
                pos = end + 3
            elif prefix_len == 24 and block[end + 3] >= 24:
                prefix_len = block[end + 3]
                pos = end + 4
            else:
                return None
            if prefix_len > len(previous) or not block.startswith(_T_KEY, pos):
                return None
            if block[pos + 2] == 0xF6:
                right = None
                pos += 3
            elif block.startswith(_LINK, pos + 2):
                pos += 2 + _LINK_LEN
                right = cid_from_binary(block[pos - 36 : pos])
            else:
                return None
            if not block.startswith(_V_LINK, pos):
                return None
            pos += 2 + _LINK_LEN
            value = cid_from_binary(block[pos - 36 : pos])
            encoded = previous[:prefix_len] + block[start:end]
            entries.append((encoded.decode("utf-8"), value))
            links.append(right)
            previous = encoded
        if not block.startswith(_L_KEY, pos):
            return None
        if block[pos + 2] == 0xF6:
            pos += 3
        elif block.startswith(_LINK, pos + 2):
            pos += 2 + _LINK_LEN
            links[0] = cid_from_binary(block[pos - 36 : pos])
        else:
            return None
    except (IndexError, ValueError):
        # Read past the end, or a key that is not UTF-8.  A link cut short
        # by the end leaves ``pos`` past it, so the next fragment or the
        # final length check refuses the block.
        return None
    return (entries, links) if pos == len(block) else None


def read_node(cid: Cid, block: bytes) -> tuple[list[tuple[str, Cid]], list[Optional[Cid]]]:
    """A node block's ``(key, value)`` entries and subtree links, as
    :func:`_node_entries` gives them: the canonical layout is read in
    place, any other block through :func:`cbor_decode`."""
    parsed = _read_canonical_node(block)
    if parsed is None:
        return _node_entries(cid, cbor_decode(block))
    return parsed


def load_mst(blocks: dict[Cid, bytes], root_cid: Cid) -> list[tuple[str, Cid]]:
    """The ``(key, value)`` pairs of the tree stored under ``root_cid`` in a
    block map (e.g. parsed from a CAR file), in key order, from one walk
    that builds no nodes.

    The walk checks the tree's invariants (see the module docstring):
    node arity, each key's layer, key order within a node and against
    the parent's range, and non-empty children one layer down.  A
    missing block, or a node block without the node shape (see the module
    docstring), raises :class:`MstError` as soon as the walk reaches it,
    so it wins over any invariant violation.  So does a link out of a
    node :data:`MAX_LAYER` levels below the root: a key's layer is at most
    ``MAX_LAYER``, so no valid tree is deeper, and a chain of nodes (each
    digest valid) cannot take the walk past the recursion limit.  A
    violation is held until the whole tree is read and then raised: the
    first one met in a left-to-right depth-first walk that checks a node's
    keys, then each child's layer and emptiness before entering it.
    """
    items: list[tuple[str, Cid]] = []
    violation: Optional[str] = None  # the first invariant violation

    def read(cid: Cid):
        block = blocks.get(cid)
        if block is None:
            raise MstError("missing MST block %s" % cid)
        return read_node(cid, block)

    def visit(entries, links, layer: int, lo: Optional[str], hi: Optional[str], depth: int):
        nonlocal violation
        if violation is None:
            previous = None
            for key, _ in entries:
                if key_layer(key) != layer:
                    violation = "key %r stored at wrong layer" % key
                elif (lo is not None and key <= lo) or (hi is not None and key >= hi):
                    violation = "key %r out of range" % key
                elif previous is not None and key <= previous:
                    violation = "entries out of order at %r" % key
                else:
                    previous = key
                    continue
                break
        last = len(entries)
        for index, link in enumerate(links):
            if link is not None:
                if depth == MAX_LAYER:
                    raise MstError("MST deeper than %d levels at %s" % (MAX_LAYER + 1, link))
                child_entries, child_links = read(link)
                child_layer = key_layer(child_entries[0][0]) if child_entries else layer - 1
                if violation is None:
                    if child_layer != layer - 1:
                        violation = "child layer must be parent layer - 1"
                    elif not child_entries and child_links[0] is None:
                        violation = "empty non-root node"
                visit(
                    child_entries,
                    child_links,
                    child_layer,
                    entries[index - 1][0] if index else lo,
                    entries[index][0] if index < last else hi,
                    depth + 1,
                )
            if index < last:
                items.append(entries[index])

    entries, links = read(root_cid)
    visit(entries, links, key_layer(entries[0][0]) if entries else 0, None, None, 0)
    if violation is not None:
        raise MstError(violation)
    return items
