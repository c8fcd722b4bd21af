"""Tests for base32 / base58btc encodings."""

import pytest
from hypothesis import given, strategies as st

from repro.atproto.multibase import (
    MultibaseError,
    base32_decode,
    base32_encode,
    base58btc_decode,
    base58btc_encode,
    multibase_decode,
    multibase_encode,
)
from tests.atproto.oracles import oracle_base32_encode


class TestBase32:
    def test_empty(self):
        assert base32_encode(b"") == ""
        assert base32_decode("") == b""

    def test_known_vector(self):
        # RFC 4648 test vector, lowercased and unpadded.
        assert base32_encode(b"foobar") == "mzxw6ytboi"

    def test_invalid_char(self):
        with pytest.raises(MultibaseError):
            base32_decode("abc1")  # '1' is not in the base32 alphabet

    def test_nonzero_padding_rejected(self):
        # 'b' = 1 in the alphabet: a single char leaves non-zero padding bits.
        with pytest.raises(MultibaseError):
            base32_decode("b")

    @pytest.mark.parametrize("length", [1, 3, 6, 9, 11, 14])
    def test_dataless_trailing_char_rejected(self, length):
        # Unpadded lengths of 1, 3 or 6 mod 8 end in a character with no
        # data bits, even when those bits are zero ("a" = 0).
        with pytest.raises(MultibaseError):
            base32_decode("a" * length)

    @pytest.mark.parametrize("length", [0, 2, 4, 5, 7, 8, 10])
    def test_canonical_lengths_accepted(self, length):
        assert base32_decode("a" * length) == b"\x00" * (length * 5 // 8)


class TestBase58:
    def test_empty(self):
        assert base58btc_encode(b"") == ""
        assert base58btc_decode("") == b""

    def test_known_vector(self):
        assert base58btc_encode(b"hello") == "Cn8eVZg"
        assert base58btc_decode("Cn8eVZg") == b"hello"

    def test_leading_zeros_preserved(self):
        data = b"\x00\x00\x01\x02"
        assert base58btc_decode(base58btc_encode(data)) == data
        assert base58btc_encode(data).startswith("11")

    def test_invalid_char(self):
        with pytest.raises(MultibaseError):
            base58btc_decode("0OIl")


class TestMultibase:
    def test_b_prefix(self):
        assert multibase_decode(multibase_encode("b", b"hi")) == b"hi"

    def test_z_prefix(self):
        assert multibase_decode(multibase_encode("z", b"hi")) == b"hi"

    def test_unknown_prefix(self):
        with pytest.raises(MultibaseError):
            multibase_decode("qabc")

    def test_empty_string(self):
        with pytest.raises(MultibaseError):
            multibase_decode("")


@given(st.binary(max_size=64))
def test_base32_round_trip(data):
    assert base32_decode(base32_encode(data)) == data


@given(st.binary(max_size=64))
def test_base32_matches_reference_encoder(data):
    assert base32_encode(data) == oracle_base32_encode(data)


@given(st.binary(max_size=64))
def test_base58_round_trip(data):
    assert base58btc_decode(base58btc_encode(data)) == data
