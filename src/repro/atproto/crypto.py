"""secp256k1 ECDSA, implemented from scratch.

ATProto signs repository commits and PLC operations with "k256"
(secp256k1) or "p256" keys.  We implement secp256k1: affine/Jacobian curve
arithmetic, deterministic nonces per RFC 6979 (so signatures are
reproducible), low-S normalization (required by ATProto), compact 64-byte
signatures, compressed point encoding, and ``did:key`` rendering with the
``secp256k1-pub`` multicodec (0xe7).

This is a clean-room educational implementation; it is constant-time in no
sense whatsoever and must never guard real secrets.  For the simulator it
provides the real data formats and verification semantics.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.atproto.multibase import base58btc_decode, base58btc_encode
from repro.atproto.varint import decode_varint, encode_varint

# Curve parameters (SEC 2, secp256k1).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
B = 7

MULTICODEC_SECP256K1_PUB = 0xE7
DID_KEY_PREFIX = "did:key:"


class CryptoError(ValueError):
    """Raised on invalid keys, points, or signatures."""


# ---------------------------------------------------------------------------
# Field and point arithmetic (Jacobian coordinates for speed)
# ---------------------------------------------------------------------------


def _inv(a: int, modulus: int) -> int:
    if a == 0:
        raise CryptoError("no inverse of zero")
    return pow(a, modulus - 2, modulus)


_INFINITY = (0, 0, 0)


def _to_jacobian(point: tuple[int, int] | None):
    if point is None:
        return _INFINITY
    return (point[0], point[1], 1)


def _from_jacobian(point) -> tuple[int, int] | None:
    x, y, z = point
    if z == 0:
        return None
    z_inv = _inv(z, P)
    z_inv2 = z_inv * z_inv % P
    return (x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _jacobian_double(point):
    x, y, z = point
    if z == 0 or y == 0:
        return _INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jacobian_add(p1, p2):
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h * z1 * z2 % P
    return (nx, ny, nz)


def _scalar_mult(k: int, point: tuple[int, int] | None) -> tuple[int, int] | None:
    k %= N
    result = _INFINITY
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        k >>= 1
    return _from_jacobian(result)


def _is_on_curve(point: tuple[int, int] | None) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - B) % P == 0


# ---------------------------------------------------------------------------
# Point serialization
# ---------------------------------------------------------------------------


def compress_point(point: tuple[int, int]) -> bytes:
    x, y = point
    prefix = b"\x03" if y & 1 else b"\x02"
    return prefix + x.to_bytes(32, "big")


def decompress_point(data: bytes) -> tuple[int, int]:
    if len(data) != 33 or data[0] not in (2, 3):
        raise CryptoError("invalid compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise CryptoError("point x-coordinate out of range")
    y_sq = (pow(x, 3, P) + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        raise CryptoError("point is not on the curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return (x, y)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


class SigningKey:
    """A secp256k1 private key with deterministic ECDSA signing."""

    __slots__ = ("secret", "_public")

    def __init__(self, secret: int):
        if not 1 <= secret < N:
            raise CryptoError("private key scalar out of range")
        self.secret = secret
        self._public: VerifyingKey | None = None

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        """Derive a key deterministically from arbitrary seed bytes."""
        counter = 0
        while True:
            digest = hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            candidate = int.from_bytes(digest, "big")
            if 1 <= candidate < N:
                return cls(candidate)
            counter += 1

    @property
    def public_key(self) -> "VerifyingKey":
        if self._public is None:
            point = _scalar_mult(self.secret, (GX, GY))
            assert point is not None
            self._public = VerifyingKey(point)
        return self._public

    def _rfc6979_nonce(self, digest: bytes) -> int:
        """Deterministic nonce per RFC 6979 (SHA-256 as the HMAC hash)."""
        x = self.secret.to_bytes(32, "big")
        h1 = digest
        v = b"\x01" * 32
        k = b"\x00" * 32
        k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
        k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
        while True:
            v = hmac.new(k, v, hashlib.sha256).digest()
            candidate = int.from_bytes(v, "big")
            if 1 <= candidate < N:
                return candidate
            k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
            v = hmac.new(k, v, hashlib.sha256).digest()

    def sign(self, message: bytes) -> bytes:
        """Sign a message; returns a compact 64-byte low-S signature."""
        digest = hashlib.sha256(message).digest()
        z = int.from_bytes(digest, "big") % N
        k = self._rfc6979_nonce(digest)
        while True:
            point = _scalar_mult(k, (GX, GY))
            assert point is not None
            r = point[0] % N
            if r == 0:
                k = (k + 1) % N or 1
                continue
            s = _inv(k, N) * (z + r * self.secret) % N
            if s == 0:
                k = (k + 1) % N or 1
                continue
            if s > N // 2:  # low-S normalization, required by ATProto
                s = N - s
            return r.to_bytes(32, "big") + s.to_bytes(32, "big")


class VerifyingKey:
    """A secp256k1 public key."""

    __slots__ = ("point",)

    def __init__(self, point: tuple[int, int]):
        if not _is_on_curve(point) or point is None:
            raise CryptoError("public key is not on the curve")
        self.point = point

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a compact 64-byte signature; rejects high-S signatures.

        ``r`` and ``s`` must each lie in [1, n-1] — zero or >= n is an
        outright forgery attempt (s = 0 would make ``w`` undefined, and
        values >= n alias a smaller scalar) — and ``s`` must additionally
        be in the low half of the range (ATProto's low-S rule).
        """
        if not isinstance(signature, (bytes, bytearray)) or len(signature) != 64:
            return False
        r = int.from_bytes(signature[:32], "big")
        s = int.from_bytes(signature[32:], "big")
        if not (1 <= r <= N - 1):
            return False
        if not (1 <= s <= N - 1):
            return False
        if s > N // 2:  # valid scalar, but violates low-S normalization
            return False
        digest = hashlib.sha256(message).digest()
        z = int.from_bytes(digest, "big") % N
        w = _inv(s, N)
        u1 = z * w % N
        u2 = r * w % N
        point = _from_jacobian(
            _jacobian_add(
                _to_jacobian(_scalar_mult(u1, (GX, GY))),
                _to_jacobian(_scalar_mult(u2, self.point)),
            )
        )
        if point is None:
            return False
        return point[0] % N == r

    def to_did_key(self) -> str:
        """Render as ``did:key:z...`` with the secp256k1-pub multicodec."""
        payload = encode_varint(MULTICODEC_SECP256K1_PUB) + compress_point(self.point)
        return DID_KEY_PREFIX + "z" + base58btc_encode(payload)

    @classmethod
    def from_did_key(cls, did_key: str) -> "VerifyingKey":
        if not did_key.startswith(DID_KEY_PREFIX + "z"):
            raise CryptoError("not a base58btc did:key: %r" % did_key)
        payload = base58btc_decode(did_key[len(DID_KEY_PREFIX) + 1 :])
        codec, pos = decode_varint(payload)
        if codec != MULTICODEC_SECP256K1_PUB:
            raise CryptoError("unsupported did:key multicodec 0x%02x" % codec)
        return cls(decompress_point(payload[pos:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VerifyingKey):
            return NotImplemented
        return self.point == other.point

    def __hash__(self) -> int:
        return hash(self.point)
