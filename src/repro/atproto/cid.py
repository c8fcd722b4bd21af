"""Content identifiers (CIDs).

ATProto uses CIDv1 with the ``dag-cbor`` codec (0x71) and a SHA2-256
multihash (0x12, length 32) for repository blocks, and the ``raw`` codec
(0x55) for blobs.  CIDs are rendered in lowercase base32 with the ``b``
multibase prefix, e.g. ``bafyrei...``.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any

from repro.atproto.multibase import base32_decode, base32_encode
from repro.atproto.varint import decode_varint

CODEC_DAG_CBOR = 0x71
CODEC_RAW = 0x55
MULTIHASH_SHA2_256 = 0x12
SHA2_256_LENGTH = 32

# varint(version 1) varint(codec) varint(sha2-256) varint(32): every field
# fits one varint byte, so the binary prefix is a constant per codec.
_BINARY_PREFIX = {
    codec: bytes((1, codec, MULTIHASH_SHA2_256, SHA2_256_LENGTH))
    for codec in (CODEC_DAG_CBOR, CODEC_RAW)
}
# So a binary CID is 36 bytes behind one of two 4-byte prefixes; any other
# shape (a longer varint, another hash) is parsed field by field.
CID_LENGTH = 4 + SHA2_256_LENGTH
CID_PREFIXES = tuple(_BINARY_PREFIX.values())
# The DAG-CBOR link form prepends tag 42, a 37-byte byte-string head and
# the identity multibase byte 0x00 to the binary CID.
_LINK_HEAD = b"\xd8\x2a\x58\x25\x00"


class CidError(ValueError):
    """Raised on malformed CIDs."""


def _ordering(compare):
    # ``bytes`` would order a Cid against any byte string, and answers
    # first when the other operand is plain bytes: raise, not NotImplemented.
    def method(self, other):
        if other.__class__ is not Cid:
            raise TypeError("cannot order Cid against %s" % type(other).__name__)
        return compare(self, other)

    return method


class Cid(bytes):
    """An immutable CIDv1 (version, codec, sha2-256 digest), held as its
    36-byte binary form, so hashing and equality are the ``bytes`` ones,
    in C.

    A ``Cid`` equals the plain ``bytes`` of its binary form, but orders
    only against another ``Cid``.  Code that accepts byte strings and CIDs
    tests for ``Cid`` first, or for ``bytes`` by exact class.
    """

    __slots__ = ()

    def __new__(cls, version: int, codec: int, digest: bytes):
        if version != 1:
            raise CidError("only CIDv1 is supported, got version %d" % version)
        if codec not in _BINARY_PREFIX:
            raise CidError("unsupported codec 0x%02x" % codec)
        if len(digest) != SHA2_256_LENGTH:
            raise CidError("sha2-256 digest must be 32 bytes, got %d" % len(digest))
        return bytes.__new__(cls, _BINARY_PREFIX[codec] + digest)

    version = property(lambda self: self[0])
    codec = property(lambda self: self[1])
    digest = property(lambda self: self[4:])

    def __reduce__(self):
        return (Cid, (self[0], self[1], self[4:]))

    def to_bytes(self) -> bytes:
        """Binary CID: varint(version) varint(codec) multihash."""
        return bytes(self)

    def cbor_link(self) -> bytes:
        """The DAG-CBOR link form (tag 42 + ``0x00`` + binary CID)."""
        return _LINK_HEAD + self

    @classmethod
    def from_bytes(cls, data: bytes) -> "Cid":
        if len(data) == CID_LENGTH and data.startswith(CID_PREFIXES):
            return cid_from_binary(data)
        version, pos = decode_varint(data)
        codec, pos = decode_varint(data, pos)
        hash_fn, pos = decode_varint(data, pos)
        hash_len, pos = decode_varint(data, pos)
        if hash_fn != MULTIHASH_SHA2_256:
            raise CidError("unsupported multihash function 0x%02x" % hash_fn)
        digest = data[pos : pos + hash_len]
        if len(digest) != hash_len:
            raise CidError("truncated multihash digest")
        if pos + hash_len != len(data):
            raise CidError("trailing bytes after CID")
        return cls(version, codec, digest)

    def __str__(self) -> str:
        return "b" + base32_encode(self)

    @classmethod
    def parse(cls, text: str) -> "Cid":
        if not text.startswith("b"):
            raise CidError("only base32 multibase CIDs are supported")
        return cls.from_bytes(base32_decode(text[1:]))

    def __repr__(self) -> str:
        return "Cid(%s)" % str(self)

    __lt__ = _ordering(bytes.__lt__)
    __le__ = _ordering(bytes.__le__)
    __gt__ = _ordering(bytes.__gt__)
    __ge__ = _ordering(bytes.__ge__)


# One C call from the 36 bytes of a binary CID that has already matched
# one of ``CID_PREFIXES`` to its ``Cid``, without re-checking them.
cid_from_binary = functools.partial(bytes.__new__, Cid)
_DAG_CBOR_PREFIX = _BINARY_PREFIX[CODEC_DAG_CBOR]


def cid_for_cbor(obj: Any) -> Cid:
    """CID of a value's canonical DAG-CBOR encoding."""
    from repro.atproto.cbor import cbor_encode

    return Cid(1, CODEC_DAG_CBOR, hashlib.sha256(cbor_encode(obj)).digest())


def cid_for_dag_cbor_bytes(block: bytes) -> Cid:
    """CID of already-encoded DAG-CBOR bytes.

    The fused fast path of the commit pipeline: when a block has just been
    serialized for storage, its CID is one sha256 away — re-encoding the
    value (as ``cid_for_cbor`` would) doubles the work for nothing.
    """
    return cid_from_binary(_DAG_CBOR_PREFIX + hashlib.sha256(block).digest())


def cid_for_raw(data: bytes) -> Cid:
    """CID of a raw (uninterpreted) byte blob."""
    return Cid(1, CODEC_RAW, hashlib.sha256(data).digest())
