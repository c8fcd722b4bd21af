"""DAG-CBOR codec.

Implements the subset of RFC 8949 required by the IPLD DAG-CBOR spec, which
is what ATProto uses to encode repository records, commits, and MST nodes:

* unsigned / negative integers (major types 0 and 1),
* byte strings and text strings (major types 2 and 3),
* arrays and maps (major types 4 and 5),
* tag 42 for CID links (major type 6),
* ``false`` / ``true`` / ``null`` and 64-bit floats (major type 7).

DAG-CBOR is strict: map keys must be strings and are sorted by their UTF-8
encoding (length first, then lexicographic), integers use the shortest
possible encoding, floats are always 64-bit, and indefinite-length items are
forbidden.  The decoder enforces these rules so that every encodable value
round-trips to exactly one byte sequence.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.atproto.cid import Cid

_MAX_NESTING = 128


class CborError(ValueError):
    """Raised on values or bytes that are not valid DAG-CBOR."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encode_head(major: int, value: int, out: bytearray) -> None:
    if value < 24:
        out.append((major << 5) | value)
    elif value < 0x100:
        out.append((major << 5) | 24)
        out.append(value)
    elif value < 0x10000:
        out.append((major << 5) | 25)
        out.extend(value.to_bytes(2, "big"))
    elif value < 0x100000000:
        out.append((major << 5) | 26)
        out.extend(value.to_bytes(4, "big"))
    elif value < 0x10000000000000000:
        out.append((major << 5) | 27)
        out.extend(value.to_bytes(8, "big"))
    else:
        raise CborError("integer too large for CBOR: %d" % value)


def _map_key_sort_key(key: str) -> tuple[int, bytes]:
    encoded = key.encode("utf-8")
    return (len(encoded), encoded)


# Map-shape cache: most encoded maps are records/commits/MST nodes sharing a
# handful of key tuples, so the canonical key order is memoised per shape
# (bounded; a shape is the tuple of keys in insertion order).
_SHAPE_CACHE: dict[tuple, tuple] = {}
_SHAPE_CACHE_MAX = 4096


def _map_key_order(value: dict) -> tuple:
    shape = tuple(value)
    order = _SHAPE_CACHE.get(shape)
    if order is None:
        for key in shape:
            if not isinstance(key, str):
                raise CborError("DAG-CBOR map keys must be strings, got %r" % (key,))
        order = tuple(sorted(shape, key=_map_key_sort_key))
        if len(_SHAPE_CACHE) < _SHAPE_CACHE_MAX:
            _SHAPE_CACHE[shape] = order
    return order


def _encode_value(value: Any, out: bytearray, depth: int) -> None:
    # Hot path: dispatch on the exact type (the common case by far); exotic
    # values (subclasses, unknown types) fall back to _encode_value_slow,
    # which replicates the full isinstance ladder.
    if depth > _MAX_NESTING:
        raise CborError("value nests deeper than %d levels" % _MAX_NESTING)
    t = value.__class__
    if t is str:
        encoded = value.encode("utf-8")
        size = len(encoded)
        if size < 24:
            out.append(0x60 | size)
        else:
            _encode_head(3, size, out)
        out.extend(encoded)
    elif t is dict:
        size = len(value)
        if size < 24:
            out.append(0xA0 | size)
        else:
            _encode_head(5, size, out)
        for key in _map_key_order(value):
            encoded = key.encode("utf-8")
            key_size = len(encoded)
            if key_size < 24:
                out.append(0x60 | key_size)
            else:
                _encode_head(3, key_size, out)
            out.extend(encoded)
            _encode_value(value[key], out, depth + 1)
    elif t is int:
        if 0 <= value < 24:
            out.append(value)
        elif value >= 0:
            _encode_head(0, value, out)
        else:
            _encode_head(1, -1 - value, out)
    elif value is None:
        out.append(0xF6)
    elif t is bool:
        out.append(0xF5 if value else 0xF4)
    elif t is bytes:
        _encode_head(2, len(value), out)
        out.extend(value)
    elif t is Cid:
        # Tag 42, with the CID bytes prefixed by the multibase identity byte.
        out.extend(value.cbor_link())
    elif t is list or t is tuple:
        size = len(value)
        if size < 24:
            out.append(0x80 | size)
        else:
            _encode_head(4, size, out)
        for item in value:
            _encode_value(item, out, depth + 1)
    elif t is float:
        if math.isnan(value) or math.isinf(value):
            raise CborError("DAG-CBOR forbids NaN and infinities")
        out.append(0xFB)
        out.extend(struct.pack(">d", value))
    else:
        _encode_value_slow(value, out, depth)


def _encode_value_slow(value: Any, out: bytearray, depth: int) -> None:
    """Fallback for subclasses of the supported types (and the error case)."""
    if depth > _MAX_NESTING:
        raise CborError("value nests deeper than %d levels" % _MAX_NESTING)
    if value is False:
        out.append(0xF4)
    elif value is True:
        out.append(0xF5)
    elif isinstance(value, int):
        if value >= 0:
            _encode_head(0, value, out)
        else:
            _encode_head(1, -1 - value, out)
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise CborError("DAG-CBOR forbids NaN and infinities")
        out.append(0xFB)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, bytes):
        _encode_head(2, len(value), out)
        out.extend(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        _encode_head(3, len(encoded), out)
        out.extend(encoded)
    elif isinstance(value, Cid):
        out.extend(value.cbor_link())
    elif isinstance(value, (list, tuple)):
        _encode_head(4, len(value), out)
        for item in value:
            _encode_value(item, out, depth + 1)
    elif isinstance(value, dict):
        _encode_head(5, len(value), out)
        for key in value:
            if not isinstance(key, str):
                raise CborError("DAG-CBOR map keys must be strings, got %r" % (key,))
        for key in sorted(value.keys(), key=_map_key_sort_key):
            _encode_value(key, out, depth + 1)
            _encode_value(value[key], out, depth + 1)
    else:
        raise CborError("cannot encode %r as DAG-CBOR" % type(value).__name__)


def cbor_encode(value: Any) -> bytes:
    """Encode a Python value as canonical DAG-CBOR bytes."""
    out = bytearray()
    _encode_value(value, out, 0)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


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


def cbor_decode(data: bytes) -> Any:
    """Decode DAG-CBOR bytes, requiring the input be a single complete item."""
    decoder = _Decoder(data)
    value = decoder.decode_value()
    if decoder.pos != len(data):
        raise CborError("%d trailing bytes after CBOR item" % (len(data) - decoder.pos))
    return value
