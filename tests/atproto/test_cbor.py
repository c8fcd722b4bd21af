"""Tests for the DAG-CBOR codec."""

import pytest
from hypothesis import given, strategies as st

from repro.atproto.cbor import CborError, cbor_decode, cbor_encode
from repro.atproto.cid import cid_for_raw


class TestScalars:
    def test_small_ints(self):
        assert cbor_encode(0) == b"\x00"
        assert cbor_encode(23) == b"\x17"
        assert cbor_encode(24) == b"\x18\x18"

    def test_negative_ints(self):
        assert cbor_encode(-1) == b"\x20"
        assert cbor_decode(b"\x20") == -1
        assert cbor_decode(cbor_encode(-500)) == -500

    def test_large_ints(self):
        for value in (2**16, 2**32, 2**63):
            assert cbor_decode(cbor_encode(value)) == value

    def test_too_large_int(self):
        with pytest.raises(CborError):
            cbor_encode(2**64)

    def test_booleans_and_null(self):
        assert cbor_encode(None) == b"\xf6"
        assert cbor_encode(False) == b"\xf4"
        assert cbor_encode(True) == b"\xf5"
        assert cbor_decode(b"\xf6") is None

    def test_float_always_64bit(self):
        encoded = cbor_encode(1.5)
        assert encoded[0] == 0xFB
        assert len(encoded) == 9
        assert cbor_decode(encoded) == 1.5

    def test_nan_rejected(self):
        with pytest.raises(CborError):
            cbor_encode(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(CborError):
            cbor_encode(float("inf"))


class TestStringsAndBytes:
    def test_text(self):
        assert cbor_decode(cbor_encode("héllo")) == "héllo"

    def test_bytes(self):
        assert cbor_decode(cbor_encode(b"\x00\xff")) == b"\x00\xff"

    def test_invalid_utf8_rejected(self):
        # text string header (major 3, len 1) with invalid UTF-8 byte
        with pytest.raises(CborError):
            cbor_decode(b"\x61\xff")


class TestContainers:
    def test_list(self):
        assert cbor_decode(cbor_encode([1, "a", None])) == [1, "a", None]

    def test_tuple_encodes_as_list(self):
        assert cbor_decode(cbor_encode((1, 2))) == [1, 2]

    def test_map_key_ordering_is_canonical(self):
        # Keys sorted by (length, bytes): 'b' < 'aa'.
        encoded = cbor_encode({"aa": 1, "b": 2})
        assert encoded == cbor_encode({"b": 2, "aa": 1})
        decoded = cbor_decode(encoded)
        assert list(decoded.keys()) == ["b", "aa"]

    def test_non_string_keys_rejected(self):
        with pytest.raises(CborError):
            cbor_encode({1: "x"})

    def test_out_of_order_map_rejected(self):
        good = cbor_encode({"a": 1, "b": 2})
        # Swap the two single-entry bodies to produce out-of-order keys.
        bad = bytes([good[0]]) + good[3:5] + good[1:3]
        with pytest.raises(CborError):
            cbor_decode(bad)

    def test_nesting_limit(self):
        value = []
        for _ in range(200):
            value = [value]
        with pytest.raises(CborError):
            cbor_encode(value)

    def test_decode_nesting_limit(self):
        # 200 one-item arrays around an empty one: a CborError at depth
        # 129, not a RecursionError.
        with pytest.raises(CborError):
            cbor_decode(b"\x81" * 200 + b"\x80")
        nested = b"\x81" * 128 + b"\x80"
        value = cbor_decode(nested)
        for _ in range(128):
            (value,) = value
        assert value == []


class TestCidLinks:
    def test_cid_round_trip(self):
        cid = cid_for_raw(b"hello world")
        decoded = cbor_decode(cbor_encode({"link": cid}))
        assert decoded["link"] == cid

    def test_tag_42_payload_must_have_identity_prefix(self):
        cid = cid_for_raw(b"x")
        good = cbor_encode(cid)
        # Corrupt the identity prefix byte (0x00 after the byte-string head).
        bad = bytearray(good)
        # head: 0xd8 0x2a (tag 42), then byte-string head, then 0x00 prefix
        prefix_index = good.index(b"\x00", 2)
        bad[prefix_index] = 0x01
        with pytest.raises(CborError):
            cbor_decode(bytes(bad))

    def test_other_tags_rejected(self):
        # tag 43 with an int payload
        with pytest.raises(CborError):
            cbor_decode(b"\xd8\x2b\x01")


class TestStrictness:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(CborError):
            cbor_decode(cbor_encode(1) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(CborError):
            cbor_decode(cbor_encode("hello")[:-1])

    def test_indefinite_length_rejected(self):
        with pytest.raises(CborError):
            cbor_decode(b"\x9f\x01\xff")  # indefinite array

    def test_non_minimal_int_rejected(self):
        with pytest.raises(CborError):
            cbor_decode(b"\x18\x01")  # 1 encoded with an extra byte


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(json_like)
def test_round_trip_property(value):
    assert cbor_decode(cbor_encode(value)) == value


@given(json_like)
def test_encoding_is_deterministic(value):
    assert cbor_encode(value) == cbor_encode(value)
