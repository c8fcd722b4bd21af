"""Content identifiers (CIDs).

ATProto uses CIDv1 with the ``dag-cbor`` codec (0x71) and a SHA2-256
multihash (0x12, length 32) for repository blocks, and the ``raw`` codec
(0x55) for blobs.  CIDs are rendered in lowercase base32 with the ``b``
multibase prefix, e.g. ``bafyrei...``.
"""

from __future__ import annotations

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
_LINK_PREFIX = {
    codec: b"\xd8\x2a\x58\x25\x00" + prefix for codec, prefix in _BINARY_PREFIX.items()
}


class CidError(ValueError):
    """Raised on malformed CIDs."""


class Cid:
    """An immutable CIDv1 (version, codec, sha2-256 digest)."""

    __slots__ = ("version", "codec", "digest", "_str")

    def __init__(self, version: int, codec: int, digest: bytes):
        if version != 1:
            raise CidError("only CIDv1 is supported, got version %d" % version)
        if codec not in (CODEC_DAG_CBOR, CODEC_RAW):
            raise CidError("unsupported codec 0x%02x" % codec)
        if len(digest) != SHA2_256_LENGTH:
            raise CidError("sha2-256 digest must be 32 bytes, got %d" % len(digest))
        _set_version(self, version)
        _set_codec(self, codec)
        _set_digest(self, digest)
        _set_str(self, None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Cid is immutable")

    def __reduce__(self):
        # The immutability guard (__setattr__ raises) breaks the default
        # pickle path; rebuild from the constructor args instead.  Needed
        # so datasets holding CIDs survive checkpoint/resume journaling.
        return (Cid, (self.version, self.codec, self.digest))

    def to_bytes(self) -> bytes:
        """Binary CID: varint(version) varint(codec) multihash."""
        return _BINARY_PREFIX[self.codec] + self.digest

    def cbor_link(self) -> bytes:
        """The DAG-CBOR link form (tag 42 + ``0x00`` + binary CID)."""
        return _LINK_PREFIX[self.codec] + self.digest

    @classmethod
    def from_bytes(cls, data: bytes) -> "Cid":
        if len(data) == CID_LENGTH and data.startswith(CID_PREFIXES):
            return cls(1, data[1], data[4:])
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
        cached = self._str
        if cached is None:
            cached = "b" + base32_encode(self.to_bytes())
            _set_str(self, cached)
        return cached

    @classmethod
    def parse(cls, text: str) -> "Cid":
        if not text.startswith("b"):
            raise CidError("only base32 multibase CIDs are supported")
        return cls.from_bytes(base32_decode(text[1:]))

    def __repr__(self) -> str:
        return "Cid(%s)" % str(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cid):
            return NotImplemented
        return self.codec == other.codec and self.digest == other.digest

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Cid):
            return NotImplemented
        return self.to_bytes() < other.to_bytes()

    def __hash__(self) -> int:
        return hash((self.codec, self.digest))


# The slot descriptors' setters write past the immutability guard; they are
# the cheapest way to fill a Cid, and every block hash makes one.
_set_version = Cid.version.__set__
_set_codec = Cid.codec.__set__
_set_digest = Cid.digest.__set__
_set_str = Cid._str.__set__


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
    return Cid(1, CODEC_DAG_CBOR, hashlib.sha256(block).digest())


def cid_for_raw(data: bytes) -> Cid:
    """CID of a raw (uninterpreted) byte blob."""
    return Cid(1, CODEC_RAW, hashlib.sha256(data).digest())
