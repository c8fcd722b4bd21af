"""Signing-key abstraction used by repositories and PLC operations.

Two interchangeable implementations:

* :class:`Secp256k1Keypair` — real ECDSA over secp256k1
  (:mod:`repro.atproto.crypto`), byte-compatible with ATProto.  Used by the
  protocol-level tests and small scenarios.
* :class:`HmacKeypair` — an HMAC-SHA256 "signature" scheme.  Pure-Python
  ECDSA costs milliseconds per signature, which is prohibitive when a
  simulation signs millions of commits; HMAC keys keep the exact same
  commit/operation formats (a 64-byte signature over the same canonical
  bytes) at microsecond cost.  DESIGN.md records this substitution.

Verification goes through the public key object in both cases, so service
code never branches on the scheme.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.atproto.crypto import SigningKey, VerifyingKey
from repro.atproto.multibase import base58btc_decode, base58btc_encode
from repro.atproto.varint import decode_varint, encode_varint

# Private multicodec from the experimental range, marking simulator-only keys.
MULTICODEC_HMAC_SIM = 0x300101
DID_KEY_PREFIX = "did:key:"


class KeyError_(ValueError):
    """Raised on malformed key material."""


class PublicKey:
    """Common interface: verify a 64-byte signature and render as did:key."""

    def verify(self, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError

    def to_did_key(self) -> str:
        raise NotImplementedError


class Keypair:
    """Common interface: sign bytes, expose the public half."""

    def sign(self, message: bytes) -> bytes:
        raise NotImplementedError

    @property
    def public_key(self) -> PublicKey:
        raise NotImplementedError

    def did_key(self) -> str:
        return self.public_key.to_did_key()


class Secp256k1PublicKey(PublicKey):
    def __init__(self, inner: VerifyingKey):
        self.inner = inner

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.inner.verify(message, signature)

    def to_did_key(self) -> str:
        return self.inner.to_did_key()


class Secp256k1Keypair(Keypair):
    """Real ECDSA keypair; deterministic derivation from a seed."""

    def __init__(self, signing_key: SigningKey):
        self._key = signing_key
        self._public = Secp256k1PublicKey(signing_key.public_key)

    @classmethod
    def from_seed(cls, seed: bytes) -> "Secp256k1Keypair":
        return cls(SigningKey.from_seed(seed))

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message)

    @property
    def public_key(self) -> PublicKey:
        return self._public


# RFC 2104 inner and outer pads, applied to a key byte by byte.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
_SHA256_BLOCK = 64


class _HmacSha256:
    """HMAC-SHA256 (RFC 2104) under one key, for the simulator signature.

    The SHA-256 states after the inner and the outer padded key are
    computed once per key and copied for each MAC; the :mod:`hmac`
    functions hash the padded key again on every call.
    """

    __slots__ = ("_secret", "_inner", "_outer")

    def __init__(self, secret: bytes):
        self._secret = secret
        if len(secret) > _SHA256_BLOCK:
            secret = hashlib.sha256(secret).digest()
        key = secret.ljust(_SHA256_BLOCK, b"\x00")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def __reduce__(self):
        # Hash states do not pickle; keys do, so rebuild them from the secret.
        return (_HmacSha256, (self._secret,))

    def signature(self, message: bytes) -> bytes:
        """64 bytes: ``HMAC(message)``, then ``HMAC(first half + message)``."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        first = outer.digest()
        inner = self._inner.copy()
        inner.update(first)
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return first + outer.digest()


class HmacPublicKey(PublicKey):
    """The 'public' half of an HMAC key.

    HMAC is symmetric, so this object carries the shared secret; within the
    simulator that is acceptable because nothing adversarial runs inside the
    process.  The did:key form tags the key with a private-use multicodec so
    it can never be confused with a real secp256k1 key.
    """

    def __init__(self, secret: bytes):
        self.secret = secret
        self._mac = _HmacSha256(secret)

    def verify(self, message: bytes, signature: bytes) -> bool:
        if len(signature) != 64:
            return False
        return hmac.compare_digest(self._mac.signature(message), signature)

    def to_did_key(self) -> str:
        payload = encode_varint(MULTICODEC_HMAC_SIM) + self.secret
        return DID_KEY_PREFIX + "z" + base58btc_encode(payload)


class HmacKeypair(Keypair):
    """Fast simulator keypair producing 64-byte verifiable signatures."""

    def __init__(self, secret: bytes):
        if len(secret) != 32:
            raise KeyError_("HMAC key secret must be 32 bytes")
        self.secret = secret
        self._public = HmacPublicKey(secret)

    @classmethod
    def from_seed(cls, seed: bytes) -> "HmacKeypair":
        return cls(hashlib.sha256(b"hmac-keypair:" + seed).digest())

    def sign(self, message: bytes) -> bytes:
        return self._public._mac.signature(message)

    @property
    def public_key(self) -> PublicKey:
        return self._public


def public_key_from_did_key(did_key: str) -> PublicKey:
    """Parse either key flavour from its did:key rendering."""
    if not did_key.startswith(DID_KEY_PREFIX + "z"):
        raise KeyError_("not a base58btc did:key: %r" % did_key)
    payload = base58btc_decode(did_key[len(DID_KEY_PREFIX) + 1 :])
    codec, pos = decode_varint(payload)
    if codec == MULTICODEC_HMAC_SIM:
        return HmacPublicKey(payload[pos:])
    return Secp256k1PublicKey(VerifyingKey.from_did_key(did_key))


def make_keypair(seed: bytes) -> Keypair:
    """Factory used by the simulation: fast HMAC keys."""
    return HmacKeypair.from_seed(seed)
