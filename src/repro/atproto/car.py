"""CARv1 (Content Addressable aRchive) reading and writing.

Repositories are exported over ``com.atproto.sync.getRepo`` as CAR files: a
CBOR header naming the root CID(s), followed by length-prefixed
``CID || block-bytes`` sections.

Reading is *self-certifying* by default: every block's payload is hashed
and compared against the digest its CID claims, so a PDS (or a relay
cache) serving tampered bytes is caught at the parse boundary instead of
polluting whatever consumes the repository.  Structural garbage —
truncated sections, overlong or non-minimal length varints, zero-length
sections, trailing bytes — is rejected as :class:`CarError`.

:func:`read_car` walks the sections by offset into the input bytes.  A
section whose CID starts with the constant CIDv1/sha2-256 prefix is split
at byte 36 without parsing the CID's varints.  :func:`write_car` joins
the length prefixes, CIDs and blocks into one byte string.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import CID_LENGTH, CID_PREFIXES, Cid, cid_from_binary
from repro.atproto.varint import VarintError, decode_varint, encode_varint

CAR_VERSION = 1


class CarError(ValueError):
    """Raised on malformed CAR data."""


class BlockDigestError(CarError):
    """A block's payload hash does not match the digest its CID claims."""


def write_car(root: Cid, blocks: Iterable[tuple[Cid, bytes]]) -> bytes:
    """Serialize blocks into a CARv1 byte string with a single root."""
    header = cbor_encode({"version": CAR_VERSION, "roots": [root]})
    parts = [encode_varint(len(header)), header]
    for cid, data in blocks:
        parts += (encode_varint(len(cid) + len(data)), cid, data)
    return b"".join(parts)


def _read_length(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The varint length at ``data[pos]`` and the offset after it.

    One- and two-byte forms are read inline.  A zero second byte (a
    non-minimal form), longer varints and EOF go to :func:`decode_varint`,
    which rejects non-minimal, overlong and truncated varints."""
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    second = data[pos + 1] if pos + 1 < len(data) else 0
    if 0 < second < 0x80:
        return (byte & 0x7F) | (second << 7), pos + 2
    try:
        return decode_varint(data, pos)
    except VarintError as exc:
        # Trailing garbage, an overlong or non-minimal varint, or EOF where
        # a length should be.
        raise CarError("malformed CAR %s length: %s" % (what, exc)) from exc


def _read_header(data: bytes) -> tuple[list[Cid], int]:
    """The header's root CIDs and the offset of the first section."""
    if not data:
        raise CarError("empty CAR file")
    header_len, pos = _read_length(data, 0, "header")
    if header_len == 0:
        raise CarError("zero-length CAR header")
    end = pos + header_len
    if end > len(data):
        raise CarError("truncated CAR header")
    try:
        header = cbor_decode(data[pos:end])
    except ValueError as exc:
        raise CarError("undecodable CAR header: %s" % exc) from exc
    if not isinstance(header, dict) or header.get("version") != CAR_VERSION:
        raise CarError("unsupported CAR header: %r" % (header,))
    roots = header.get("roots")
    if not isinstance(roots, list) or not all(isinstance(r, Cid) for r in roots):
        raise CarError("CAR header must list root CIDs")
    return roots, end


def _split_cid(section: bytes) -> tuple[Cid, bytes]:
    """Split a section whose CID is not the common 36-byte form."""
    pos = 0
    try:
        version, pos = decode_varint(section, pos)
        _, pos = decode_varint(section, pos)  # codec
        _, pos = decode_varint(section, pos)  # multihash fn
        hash_len, pos = decode_varint(section, pos)
    except (VarintError, EOFError, IndexError) as exc:
        raise CarError("malformed CID in CAR section: %s" % exc) from exc
    if version != 1:
        raise CarError("unsupported CID version %d in CAR section" % version)
    end = pos + hash_len
    if end > len(section):
        raise CarError("truncated CID in CAR section")
    try:
        cid = Cid.from_bytes(section[:end])
    except ValueError as exc:
        raise CarError("invalid CID in CAR section: %s" % exc) from exc
    return cid, section[end:]


def _sections(data: bytes, pos: int, verify_digests: bool) -> Iterator[tuple[Cid, bytes]]:
    """Walk the ``varint(len) || CID || block`` sections from ``pos`` on;
    the walk ends cleanly only at a section boundary."""
    size = len(data)
    sha256 = hashlib.sha256
    while pos < size:
        section_len, pos = _read_length(data, pos, "section")
        if section_len == 0:
            raise CarError("zero-length CAR section")
        end = pos + section_len
        if end > size:
            raise CarError("truncated CAR section")
        if section_len >= CID_LENGTH and data.startswith(CID_PREFIXES, pos):
            cid = cid_from_binary(data[pos : pos + CID_LENGTH])
            body = data[pos + CID_LENGTH : end]
        else:
            cid, body = _split_cid(data[pos:end])
        if verify_digests and sha256(body).digest() != cid[4:]:
            raise BlockDigestError("block payload does not hash to %s" % cid)
        yield cid, body
        pos = end


def read_car(data: bytes, verify_digests: bool = True) -> tuple[list[Cid], dict[Cid, bytes]]:
    """Parse a CARv1 file into its roots and a CID → block map.

    ``verify_digests`` (default on) hashes every block payload and raises
    :class:`BlockDigestError` when it disagrees with the claimed CID.
    """
    data = bytes(data)  # the same object for bytes; blocks are bytes for any buffer
    roots, pos = _read_header(data)
    return roots, dict(_sections(data, pos, verify_digests))
