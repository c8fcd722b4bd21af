"""Tests for the secp256k1 implementation and the keypair abstraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atproto.crypto import (
    GX,
    GY,
    N,
    P,
    CryptoError,
    SigningKey,
    VerifyingKey,
    _scalar_mult,
    compress_point,
    decompress_point,
)
from repro.atproto.keys import (
    HmacKeypair,
    Secp256k1Keypair,
    make_keypair,
    public_key_from_did_key,
)


class TestCurve:
    def test_generator_on_curve(self):
        assert (GY * GY - GX * GX * GX - 7) % P == 0

    def test_generator_order(self):
        assert _scalar_mult(N, (GX, GY)) is None

    def test_scalar_mult_distributive(self):
        p5 = _scalar_mult(5, (GX, GY))
        p2 = _scalar_mult(2, (GX, GY))
        p3 = _scalar_mult(3, (GX, GY))
        from repro.atproto.crypto import _from_jacobian, _jacobian_add, _to_jacobian

        assert _from_jacobian(_jacobian_add(_to_jacobian(p2), _to_jacobian(p3))) == p5

    def test_point_compression_round_trip(self):
        point = _scalar_mult(123456789, (GX, GY))
        assert decompress_point(compress_point(point)) == point

    def test_decompress_rejects_off_curve(self):
        # x = 5 has no square root for y² on secp256k1 with prefix tweaks
        # possible; construct an x known to be off-curve.
        bad = b"\x02" + (0).to_bytes(32, "big")
        with pytest.raises(CryptoError):
            decompress_point(bad)


class TestSigning:
    def test_sign_verify(self):
        key = SigningKey.from_seed(b"seed-1")
        sig = key.sign(b"hello world")
        assert key.public_key.verify(b"hello world", sig)

    def test_signature_is_64_bytes_low_s(self):
        key = SigningKey.from_seed(b"seed-2")
        sig = key.sign(b"msg")
        assert len(sig) == 64
        s = int.from_bytes(sig[32:], "big")
        assert s <= N // 2

    def test_deterministic_signatures(self):
        key = SigningKey.from_seed(b"seed-3")
        assert key.sign(b"m") == key.sign(b"m")

    def test_wrong_message_fails(self):
        key = SigningKey.from_seed(b"seed-4")
        sig = key.sign(b"real")
        assert not key.public_key.verify(b"fake", sig)

    def test_wrong_key_fails(self):
        sig = SigningKey.from_seed(b"a").sign(b"m")
        assert not SigningKey.from_seed(b"b").public_key.verify(b"m", sig)

    def test_high_s_rejected(self):
        key = SigningKey.from_seed(b"seed-5")
        sig = key.sign(b"m")
        r = sig[:32]
        s = int.from_bytes(sig[32:], "big")
        high_s = (N - s).to_bytes(32, "big")
        assert not key.public_key.verify(b"m", r + high_s)

    def test_malformed_signature_length(self):
        key = SigningKey.from_seed(b"seed-6")
        assert not key.public_key.verify(b"m", b"\x00" * 63)


class TestScalarRangeRejection:
    """r and s must lie in [1, n-1]; out-of-range values are rejected
    before any curve arithmetic runs (no exceptions, just False)."""

    def setup_method(self):
        self.key = SigningKey.from_seed(b"range-seed")
        self.sig = self.key.sign(b"payload")
        self.r = self.sig[:32]
        self.s = self.sig[32:]

    def verify(self, sig: bytes) -> bool:
        return self.key.public_key.verify(b"payload", sig)

    def test_valid_baseline(self):
        assert self.verify(self.sig)

    def test_r_zero_rejected(self):
        assert not self.verify(b"\x00" * 32 + self.s)

    def test_s_zero_rejected(self):
        assert not self.verify(self.r + b"\x00" * 32)

    def test_r_equal_n_rejected(self):
        assert not self.verify(N.to_bytes(32, "big") + self.s)

    def test_s_equal_n_rejected(self):
        assert not self.verify(self.r + N.to_bytes(32, "big"))

    def test_r_above_n_rejected(self):
        assert not self.verify((N + 1).to_bytes(32, "big") + self.s)

    def test_s_maximum_field_value_rejected(self):
        assert not self.verify(self.r + b"\xff" * 32)

    def test_truncated_signature_rejected(self):
        assert not self.verify(self.sig[:63])
        assert not self.verify(self.sig[:32])
        assert not self.verify(b"")

    def test_oversized_signature_rejected(self):
        assert not self.verify(self.sig + b"\x00")

    def test_non_bytes_signature_rejected(self):
        assert not self.verify(None)
        assert not self.verify(self.sig.hex())

    def test_invalid_private_scalar(self):
        with pytest.raises(CryptoError):
            SigningKey(0)
        with pytest.raises(CryptoError):
            SigningKey(N)


class TestDidKey:
    def test_round_trip(self):
        key = SigningKey.from_seed(b"didkey")
        did_key = key.public_key.to_did_key()
        assert did_key.startswith("did:key:z")
        recovered = VerifyingKey.from_did_key(did_key)
        assert recovered == key.public_key

    def test_rejects_garbage(self):
        with pytest.raises(CryptoError):
            VerifyingKey.from_did_key("did:key:qnope")


class TestKeypairAbstraction:
    def test_secp256k1_keypair(self):
        pair = Secp256k1Keypair.from_seed(b"s")
        sig = pair.sign(b"data")
        assert pair.public_key.verify(b"data", sig)

    def test_hmac_keypair(self):
        pair = HmacKeypair.from_seed(b"s")
        sig = pair.sign(b"data")
        assert len(sig) == 64
        assert pair.public_key.verify(b"data", sig)
        assert not pair.public_key.verify(b"other", sig)

    def test_hmac_keys_differ_by_seed(self):
        assert HmacKeypair.from_seed(b"a").sign(b"m") != HmacKeypair.from_seed(b"b").sign(b"m")

    def test_did_key_round_trip_both_flavours(self):
        for pair in (HmacKeypair.from_seed(b"x"), Secp256k1Keypair.from_seed(b"x")):
            public = public_key_from_did_key(pair.did_key())
            sig = pair.sign(b"payload")
            assert public.verify(b"payload", sig)

    def test_factory_defaults_to_fast(self):
        assert isinstance(make_keypair(b"z"), HmacKeypair)

    def test_secp256k1_seed_fixes_the_key(self):
        did_key = Secp256k1Keypair.from_seed(b"z").did_key()
        assert Secp256k1Keypair.from_seed(b"z").did_key() == did_key
        assert Secp256k1Keypair.from_seed(b"y").did_key() != did_key

    def test_hmac_secret_must_be_32_bytes(self):
        from repro.atproto.keys import KeyError_

        with pytest.raises(KeyError_):
            HmacKeypair(b"short")


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=1, max_size=32))
def test_sign_verify_property(message):
    key = SigningKey.from_seed(b"prop-seed")
    assert key.public_key.verify(message, key.sign(message))
