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

Encoding dispatches on the exact type of each value.  Maps go through a
shape cache: the tuple of a map's keys, in insertion order, maps to the
keys in canonical order, each with its encoded head and bytes, so a map
of a known shape sorts and encodes no key.  Text strings of up to 255
bytes get their one- or two-byte head inline.

Decoding is one recursive function, ``_decode(data, pos, depth)``, which
reads each item in place by offset and returns it with the offset where it
ends: no decoder object, no per-slice method call, one bounds check per
item, and map-key order checked on the raw key bytes.  :func:`cbor_decode`
wraps it for one complete item; the firehose frame reader calls it twice
for the header and payload.  Every rule above raises :class:`CborError`,
as do truncation, trailing bytes and nesting deeper than 128 levels.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.atproto.cid import Cid

_MAX_NESTING = 128

# Heads with ``info`` 24..27 carry a 1-, 2-, 4- or 8-byte argument, which
# DAG-CBOR requires to be the shortest form: at least the given minimum.
_ARG_WIDTH = {24: 1, 25: 2, 26: 4, 27: 8}
_ARG_MIN = {24: 24, 25: 0x100, 26: 0x10000, 27: 0x100000000}
_unpack_double = struct.Struct(">d").unpack_from
_LINK_PAYLOAD = b"\x58\x25\x00"  # byte-string head (37 bytes), identity prefix


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


def _encode_text(text: str) -> bytes:
    """A text string with its head; one-byte and two-byte heads inline."""
    encoded = text.encode("utf-8")
    size = len(encoded)
    if size < 24:
        return bytes((0x60 | size,)) + encoded
    if size < 0x100:
        return bytes((0x78, size)) + encoded
    out = bytearray()
    _encode_head(3, size, out)
    return bytes(out) + encoded


# Map-shape cache: most encoded maps are records/commits/MST nodes sharing a
# handful of key tuples, so each shape (the tuple of keys in insertion
# order) maps to its keys in canonical order, each paired with its encoded
# head and bytes.  Bounded; shapes past the bound are ordered and encoded
# on every call.
_SHAPE_CACHE: dict[tuple, tuple] = {}
_SHAPE_CACHE_MAX = 4096


def _map_key_order(value: dict) -> tuple:
    """``((key, encoded key), ...)`` in canonical order for a map's keys."""
    shape = tuple(value)
    order = _SHAPE_CACHE.get(shape)
    if order is None:
        for key in shape:
            if not isinstance(key, str):
                raise CborError("DAG-CBOR map keys must be strings, got %r" % (key,))
        order = tuple(
            (key, _encode_text(key)) for key in sorted(shape, key=_map_key_sort_key)
        )
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
        elif size < 0x100:
            out.append(0x78)
            out.append(size)
        else:
            _encode_head(3, size, out)
        out += encoded
    elif t is dict:
        size = len(value)
        if size < 24:
            out.append(0xA0 | size)
        else:
            _encode_head(5, size, out)
        for key, encoded_key in _map_key_order(value):
            out += encoded_key
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
    elif isinstance(value, Cid):  # before bytes: a Cid is a bytes subclass
        out.extend(value.cbor_link())
    elif isinstance(value, bytes):
        _encode_head(2, len(value), out)
        out.extend(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        _encode_head(3, len(encoded), out)
        out.extend(encoded)
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


def _decode(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    """Decode the item starting at ``data[pos]``; return it and its end.

    One bounds check per item: the head's argument bytes and a string's
    payload are checked against ``len(data)`` before they are sliced.
    """
    if depth > _MAX_NESTING:
        raise CborError("input nests deeper than %d levels" % _MAX_NESTING)
    size = len(data)
    if pos >= size:
        raise CborError("truncated CBOR input")
    byte = data[pos]
    pos += 1
    major = byte >> 5
    info = byte & 0x1F
    if major == 7:
        # Simple values and floats share major type 7 but have non-integer
        # heads, so they skip the minimality checks below.
        if info == 20:
            return False, pos
        if info == 21:
            return True, pos
        if info == 22:
            return None, pos
        if info == 27:
            if pos + 8 > size:
                raise CborError("truncated CBOR input")
            value = _unpack_double(data, pos)[0]
            if not math.isfinite(value):
                raise CborError("DAG-CBOR forbids NaN and infinities")
            return value, pos + 8
        raise CborError("unsupported simple/float head 0x%02x" % byte)
    if info < 24:
        arg = info
    elif info < 28:
        width = _ARG_WIDTH[info]
        end = pos + width
        if end > size:
            raise CborError("truncated CBOR input")
        arg = data[pos] if width == 1 else int.from_bytes(data[pos:end], "big")
        if arg < _ARG_MIN[info]:
            raise CborError("non-minimal integer encoding")
        pos = end
    else:
        raise CborError("indefinite-length items are forbidden in DAG-CBOR")
    if major == 3:
        end = pos + arg
        if end > size:
            raise CborError("truncated CBOR input")
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CborError("invalid UTF-8 in text string") from exc
    if major == 5:
        result: dict[str, Any] = {}
        previous = b""
        previous_len = -1  # below any key, so the first key is in order
        for _ in range(arg):
            # Keys are text strings; a short key's head is one byte.
            key_head = data[pos] if pos < size else 0
            if 0x60 <= key_head < 0x78 and depth < _MAX_NESTING:
                key_len = key_head - 0x60
                start = pos + 1
                pos = start + key_len
                if pos > size:
                    raise CborError("truncated CBOR input")
                raw = data[start:pos]
                try:
                    key = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CborError("invalid UTF-8 in text string") from exc
            else:
                key, pos = _decode(data, pos, depth + 1)
                if key.__class__ is not str:
                    raise CborError("DAG-CBOR map keys must be strings")
                raw = key.encode("utf-8")
                key_len = len(raw)
            # Canonical order is (length, bytes), strictly increasing.
            if key_len < previous_len or (key_len == previous_len and raw <= previous):
                raise CborError("map keys out of canonical order")
            previous, previous_len = raw, key_len
            result[key], pos = _decode(data, pos, depth + 1)
        return result, pos
    if major == 0:
        return arg, pos
    if major == 4:
        items = []
        append = items.append
        for _ in range(arg):
            item, pos = _decode(data, pos, depth + 1)
            append(item)
        return items, pos
    if major == 2:
        end = pos + arg
        if end > size:
            raise CborError("truncated CBOR input")
        return data[pos:end], end
    if major == 6:
        if arg != 42:
            raise CborError("only tag 42 (CID) is allowed, got %d" % arg)
        # The usual payload: a 37-byte string, ``0x00`` + a 36-byte CID.
        end = pos + 39
        if end <= size and depth < _MAX_NESTING and data.startswith(_LINK_PAYLOAD, pos):
            return Cid.from_bytes(data[pos + 3 : end]), end
        payload, pos = _decode(data, pos, depth + 1)
        if payload.__class__ is not bytes or not payload.startswith(b"\x00"):
            raise CborError("tag 42 payload must be identity-multibase CID bytes")
        return Cid.from_bytes(payload[1:]), pos
    return -1 - arg, pos


def cbor_decode(data: bytes) -> Any:
    """Decode DAG-CBOR bytes, requiring the input be a single complete item."""
    value, end = _decode(data, 0, 0)
    if end != len(data):
        raise CborError("%d trailing bytes after CBOR item" % (len(data) - end))
    return value
