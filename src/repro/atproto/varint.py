"""Unsigned varint (LEB128) encoding, as used by multiformats and CAR files.

The multiformats ``unsigned-varint`` spec caps values at 9 bytes; we enforce
that bound so malformed input cannot make the decoder loop forever.
"""

from __future__ import annotations

MAX_VARINT_BYTES = 9


class VarintError(ValueError):
    """Raised when varint input is malformed."""


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if 0 <= value < 0x4000:  # one or two bytes: every CAR section length here
        return bytes((value,) if value < 0x80 else (value & 0x7F | 0x80, value >> 7))
    if value < 0:
        raise VarintError("varints encode non-negative integers, got %d" % value)
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise VarintError("truncated varint")
        if pos - offset >= MAX_VARINT_BYTES:
            raise VarintError("varint longer than %d bytes" % MAX_VARINT_BYTES)
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            if byte == 0 and pos - offset > 1:
                raise VarintError("varint has redundant trailing zero byte")
            return result, pos
        shift += 7
