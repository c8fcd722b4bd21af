"""Tests for CIDs and TIDs."""

import pytest
from hypothesis import given, strategies as st

from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import (
    CODEC_DAG_CBOR,
    CODEC_RAW,
    MULTIHASH_SHA2_256,
    SHA2_256_LENGTH,
    Cid,
    CidError,
    cid_for_cbor,
    cid_for_raw,
)
from repro.atproto.varint import encode_varint


class TestCid:
    def test_raw_cid_prefix(self):
        cid = cid_for_raw(b"hello")
        assert str(cid).startswith("bafkrei")  # raw + sha256 CIDv1 prefix

    def test_cbor_cid_prefix(self):
        cid = cid_for_cbor({"a": 1})
        assert str(cid).startswith("bafyrei")  # dag-cbor + sha256 prefix

    def test_round_trip_bytes(self):
        cid = cid_for_cbor([1, 2, 3])
        assert Cid.from_bytes(cid.to_bytes()) == cid

    def test_round_trip_string(self):
        cid = cid_for_raw(b"data")
        assert Cid.parse(str(cid)) == cid

    def test_deterministic(self):
        assert cid_for_cbor({"x": 1}) == cid_for_cbor({"x": 1})
        assert cid_for_cbor({"x": 1}) != cid_for_cbor({"x": 2})

    def test_codec_distinguishes(self):
        data = b"same bytes"
        assert cid_for_raw(data) != Cid(1, CODEC_DAG_CBOR, cid_for_raw(data).digest)

    def test_immutable(self):
        cid = cid_for_raw(b"x")
        with pytest.raises(AttributeError):
            cid.codec = CODEC_RAW

    def test_invalid_version(self):
        with pytest.raises(CidError):
            Cid(0, CODEC_RAW, b"\x00" * 32)

    def test_invalid_digest_length(self):
        with pytest.raises(CidError):
            Cid(1, CODEC_RAW, b"\x00" * 31)

    def test_trailing_bytes_rejected(self):
        cid = cid_for_raw(b"x")
        with pytest.raises(CidError):
            Cid.from_bytes(cid.to_bytes() + b"\x00")

    def test_hashable_and_ordered(self):
        a, b = cid_for_raw(b"a"), cid_for_raw(b"b")
        assert len({a, b, a}) == 2
        assert (a < b) != (b < a)

    def test_ordering_rejects_non_cid(self):
        # int has a to_bytes() method; the comparison must not fall into it.
        cid = cid_for_raw(b"x")
        with pytest.raises(TypeError):
            cid < 5
        with pytest.raises(TypeError):
            sorted([cid, b"x"])

    def test_parse_rejects_dataless_trailing_char(self):
        # A character that carries no data would give a second text form
        # of the same CID.
        cid = cid_for_raw(b"x")
        with pytest.raises(ValueError):
            Cid.parse(str(cid) + "a")

    def test_binary_form_fields(self):
        for cid in (cid_for_raw(b"x"), cid_for_cbor({"x": 1})):
            assert cid.to_bytes() == (
                encode_varint(1)
                + encode_varint(cid.codec)
                + encode_varint(MULTIHASH_SHA2_256)
                + encode_varint(SHA2_256_LENGTH)
                + cid.digest
            )

    def test_cbor_link_is_generic_encoding(self):
        for cid in (cid_for_raw(b"x"), cid_for_cbor({"x": 1})):
            assert cid.cbor_link() == cbor_encode(cid)
            assert cbor_decode(cid.cbor_link()) == cid


@given(st.binary(max_size=64))
def test_cid_string_round_trip(data):
    cid = cid_for_raw(data)
    assert Cid.parse(str(cid)) == cid
