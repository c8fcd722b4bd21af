"""Multibase-style encodings used across ATProto.

ATProto uses three alphabets:

* lowercase base32 without padding (CIDs, with ``b`` multibase prefix),
* base58btc (did:key material, with ``z`` multibase prefix),
* base32-sortable for TIDs (implemented in :mod:`repro.atproto.tid`).
"""

from __future__ import annotations

import base64

BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

_B32_INDEX = {c: i for i, c in enumerate(BASE32_ALPHABET)}
_B58_INDEX = {c: i for i, c in enumerate(BASE58_ALPHABET)}


class MultibaseError(ValueError):
    """Raised on malformed multibase input."""


def base32_encode(data: bytes) -> str:
    """Encode bytes as unpadded lowercase base32 (RFC 4648 alphabet)."""
    return base64.b32encode(data).rstrip(b"=").lower().decode("ascii")


def base32_decode(text: str) -> bytes:
    """Decode unpadded lowercase base32 back to bytes.

    Rejects input no encoder produces: a final character that carries no
    data (5 or more leftover bits, i.e. an unpadded length of 1, 3 or 6
    mod 8) or non-zero leftover bits, so every byte string has exactly
    one accepted text form.
    """
    bits = 0
    bit_count = 0
    out = bytearray()
    for char in text:
        if char not in _B32_INDEX:
            raise MultibaseError("invalid base32 character %r" % char)
        bits = (bits << 5) | _B32_INDEX[char]
        bit_count += 5
        if bit_count >= 8:
            bit_count -= 8
            out.append((bits >> bit_count) & 0xFF)
    if bit_count >= 5:
        raise MultibaseError("base32 input has a trailing character that carries no data")
    if bits & ((1 << bit_count) - 1):
        raise MultibaseError("non-zero padding bits in base32 input")
    return bytes(out)


def base58btc_encode(data: bytes) -> str:
    """Encode bytes in base58btc (Bitcoin alphabet)."""
    leading_zeros = 0
    for byte in data:
        if byte:
            break
        leading_zeros += 1
    num = int.from_bytes(data, "big")
    out = []
    while num:
        num, rem = divmod(num, 58)
        out.append(BASE58_ALPHABET[rem])
    out.extend("1" * leading_zeros)
    return "".join(reversed(out))


def base58btc_decode(text: str) -> bytes:
    """Decode base58btc text back to bytes."""
    num = 0
    for char in text:
        if char not in _B58_INDEX:
            raise MultibaseError("invalid base58 character %r" % char)
        num = num * 58 + _B58_INDEX[char]
    leading_ones = 0
    for char in text:
        if char != "1":
            break
        leading_ones += 1
    body = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    return b"\x00" * leading_ones + body


def multibase_encode(prefix: str, data: bytes) -> str:
    """Encode with a multibase prefix character (``b`` = base32, ``z`` = base58btc)."""
    if prefix == "b":
        return "b" + base32_encode(data)
    if prefix == "z":
        return "z" + base58btc_encode(data)
    raise MultibaseError("unsupported multibase prefix %r" % prefix)


def multibase_decode(text: str) -> bytes:
    """Decode multibase text, dispatching on its prefix character."""
    if not text:
        raise MultibaseError("empty multibase string")
    prefix, body = text[0], text[1:]
    if prefix == "b":
        return base32_decode(body)
    if prefix == "z":
        return base58btc_decode(body)
    raise MultibaseError("unsupported multibase prefix %r" % prefix)
