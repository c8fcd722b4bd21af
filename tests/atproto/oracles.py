"""Reference codecs the production fast paths are checked against.

These are the straightforward forms of code that ``repro.atproto`` now
runs through cached fragments, flat functions or the standard library.
Only tests use them.
"""

import math
import struct
from typing import Any

from repro.atproto.cbor import _MAX_NESTING, CborError, _map_key_sort_key
from repro.atproto.cid import Cid
from repro.atproto.mst import MstNode

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
