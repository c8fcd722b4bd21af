"""Tests for unsigned varint encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.atproto.car import CarError, read_car, write_car
from repro.atproto.cbor import cbor_encode
from repro.atproto.cid import cid_for_dag_cbor_bytes
from repro.atproto.varint import VarintError, decode_varint, encode_varint


class TestEncode:
    def test_zero(self):
        assert encode_varint(0) == b"\x00"

    def test_single_byte_boundary(self):
        assert encode_varint(127) == b"\x7f"

    def test_two_byte_boundary(self):
        assert encode_varint(128) == b"\x80\x01"

    def test_known_value(self):
        assert encode_varint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(VarintError):
            encode_varint(-1)


class TestDecode:
    def test_round_trip_samples(self):
        for value in (0, 1, 127, 128, 255, 16384, 2**32, 2**60):
            data = encode_varint(value)
            decoded, offset = decode_varint(data)
            assert decoded == value
            assert offset == len(data)

    def test_offset_decoding(self):
        data = b"\xff" + encode_varint(300)
        value, offset = decode_varint(data, 1)
        assert value == 300
        assert offset == 3

    def test_truncated_raises(self):
        with pytest.raises(VarintError):
            decode_varint(b"\x80")

    def test_empty_raises(self):
        with pytest.raises(VarintError):
            decode_varint(b"")

    def test_overlong_raises(self):
        with pytest.raises(VarintError):
            decode_varint(b"\x80" * 10 + b"\x01")

    def test_redundant_zero_byte_rejected(self):
        # 0x80 0x00 decodes to 0 but is not the canonical encoding.
        with pytest.raises(VarintError):
            decode_varint(b"\x80\x00")


def _block(value):
    data = cbor_encode(value)
    return cid_for_dag_cbor_bytes(data), data


class TestCarSectionLengths:
    """The CAR reader walks ``varint(length)`` section prefixes in memory."""

    def test_consecutive_sections_read(self):
        blocks = [_block({"n": n}) for n in range(3)]
        roots, parsed = read_car(write_car(blocks[0][0], blocks))
        assert roots == [blocks[0][0]]
        assert list(parsed.items()) == blocks

    def test_eof_at_section_boundary_ends_cleanly(self):
        cid, data = _block("only")
        assert read_car(write_car(cid, []))[1] == {}
        assert read_car(write_car(cid, [(cid, data)]))[1] == {cid: data}

    def test_eof_mid_varint_is_car_error(self):
        cid, data = _block("only")
        car = write_car(cid, [(cid, data)])
        with pytest.raises(CarError):
            read_car(car + b"\x80")
        with pytest.raises(CarError):
            read_car(b"\x80")


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_round_trip_property(value):
    decoded, offset = decode_varint(encode_varint(value))
    assert decoded == value
    assert offset == len(encode_varint(value))
