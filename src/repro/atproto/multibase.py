"""Multibase-style encodings used across ATProto.

ATProto uses three alphabets:

* lowercase base32 without padding (CIDs, with ``b`` multibase prefix),
* base58btc (did:key material, with ``z`` multibase prefix),
* base32-sortable for TIDs (implemented in :mod:`repro.atproto.tid`).
"""

from __future__ import annotations

BASE32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

_B32_INDEX = {c: i for i, c in enumerate(BASE32_ALPHABET)}
# Every 10-bit value as its two base32 characters.
_B32_PAIRS = tuple(a + b for a in BASE32_ALPHABET for b in BASE32_ALPHABET)
_B58_INDEX = {c: i for i, c in enumerate(BASE58_ALPHABET)}


class MultibaseError(ValueError):
    """Raised on malformed multibase input."""


def base32_encode(data: bytes) -> str:
    """Encode bytes as unpadded lowercase base32 (RFC 4648 alphabet).

    The bytes are read as one integer, zero-padded on the right to a whole
    number of 10-bit pairs, and rendered a pair at a time; an odd final
    character (the padding's) is dropped.
    """
    bit_count = 8 * len(data)
    chars = (bit_count + 4) // 5
    pair_bits = 10 * ((chars + 1) // 2)
    value = int.from_bytes(data, "big") << (pair_bits - bit_count)
    pairs = _B32_PAIRS
    text = "".join([pairs[(value >> shift) & 0x3FF] for shift in range(pair_bits - 10, -1, -10)])
    return text[:chars] if chars & 1 else text


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
