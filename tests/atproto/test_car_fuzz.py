"""Fuzz tests for the CAR parser: malformed input must raise CarError.

Every mutation here is deterministic (seeded ``random.Random``), so a
failure reproduces exactly.  The contract under test: ``read_car``
either returns verified blocks or raises :class:`CarError` (or its
:class:`BlockDigestError` subclass) — it never raises anything else and
never returns tampered payloads.
"""

import hashlib
import random

import pytest

from repro.atproto.car import BlockDigestError, CarError, read_car, write_car
from repro.atproto.cbor import cbor_encode
from repro.atproto.cid import Cid, cid_for_raw
from repro.atproto.varint import encode_varint


def sample_car(n_blocks: int = 8) -> bytes:
    blocks = []
    for i in range(n_blocks):
        payload = b"block payload %d " % i + bytes(range(i, i + 16))
        blocks.append((cid_for_raw(payload), payload))
    return write_car(blocks[0][0], blocks)


class TestStructuralGarbage:
    def test_trailing_garbage_rejected(self):
        car = sample_car()
        for junk in (b"\x00", b"\xff", b"extra bytes after the last section"):
            with pytest.raises(CarError):
                read_car(car + junk)

    def test_every_truncation_point_rejected_or_clean(self):
        # A CAR cut anywhere must either parse a shorter prefix of intact
        # sections or raise CarError — never crash some other way.
        car = sample_car(3)
        for cut in range(len(car)):
            try:
                read_car(car[:cut])
            except CarError:
                pass

    def test_overlong_varint_section_length(self):
        car = sample_car(1)
        # 10 continuation bytes exceed the 9-byte varint cap.
        with pytest.raises(CarError):
            read_car(car + b"\x80" * 10 + b"\x01")

    def test_redundant_varint_encoding_rejected(self):
        car = sample_car(1)
        # 0x81 0x00 is a non-minimal encoding of 1.
        with pytest.raises(CarError):
            read_car(car + b"\x81\x00" + b"x")

    def test_non_minimal_section_and_header_lengths_rejected(self):
        # A valid 75-byte section, its length written 0xcb 0x00 instead of
        # 0x4b: the bytes after the length still parse, so only the
        # minimality check can reject it.
        payload = bytes(range(39))
        cid = cid_for_raw(payload)
        section = cid.to_bytes() + payload
        assert len(section) == 75
        header = cbor_encode({"version": 1, "roots": [cid]})
        assert len(header) < 0x80
        minimal = encode_varint(len(header)) + header + b"\x4b" + section
        assert read_car(minimal)[1] == {cid: payload}
        for car in (
            encode_varint(len(header)) + header + b"\xcb\x00" + section,
            bytes((len(header) | 0x80, 0)) + header + b"\x4b" + section,
        ):
            with pytest.raises(CarError):
                read_car(car)

    def test_zero_length_section_rejected(self):
        car = sample_car(1)
        with pytest.raises(CarError):
            read_car(car + encode_varint(0))

    def test_header_claiming_version_2(self):
        header = cbor_encode({"version": 2, "roots": []})
        with pytest.raises(CarError):
            read_car(encode_varint(len(header)) + header)

    def test_header_without_root_list(self):
        header = cbor_encode({"version": 1, "roots": "nope"})
        with pytest.raises(CarError):
            read_car(encode_varint(len(header)) + header)

    def test_header_is_not_cbor(self):
        with pytest.raises(CarError):
            read_car(encode_varint(4) + b"\xff\xff\xff\xff")

    def test_empty_input(self):
        with pytest.raises(CarError):
            read_car(b"")


class TestDigestMismatch:
    def test_flipped_payload_byte_caught(self):
        car = bytearray(sample_car(4))
        # Flip a byte near the end — inside the last block's payload.
        car[-3] ^= 0xFF
        with pytest.raises(BlockDigestError):
            read_car(bytes(car))

    def test_verify_digests_off_accepts_same_bytes(self):
        car = bytearray(sample_car(4))
        car[-3] ^= 0xFF
        _, blocks = read_car(bytes(car), verify_digests=False)
        # The tampered last payload comes back unchecked.
        cid, body = list(blocks.items())[-1]
        assert bytes(car).endswith(body)
        assert hashlib.sha256(body).digest() != cid.digest

    def test_wrong_digest_cid_caught(self):
        payload = b"honest payload"
        lying_cid = Cid(1, 0x55, hashlib.sha256(b"different payload").digest())
        car = write_car(lying_cid, [(lying_cid, payload)])
        with pytest.raises(BlockDigestError):
            read_car(car)


class TestSeededMutations:
    """Byte-level fuzzing with fixed seeds: no mutation may escape CarError."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_byte_flips(self, seed):
        rng = random.Random(10_000 + seed)
        car = bytearray(sample_car())
        for _ in range(rng.randint(1, 6)):
            car[rng.randrange(len(car))] ^= 1 << rng.randrange(8)
        self._must_parse_or_reject(bytes(car))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_truncations_and_splices(self, seed):
        rng = random.Random(20_000 + seed)
        car = bytearray(sample_car())
        choice = rng.randrange(3)
        if choice == 0:
            mutated = car[: rng.randrange(len(car))]
        elif choice == 1:
            mutated = car + bytes(rng.randrange(256) for _ in range(rng.randint(1, 32)))
        else:
            cut = rng.randrange(len(car))
            mutated = car[:cut] + car[cut + rng.randint(1, 16):]
        self._must_parse_or_reject(bytes(mutated))

    @pytest.mark.parametrize("seed", range(10))
    def test_pure_noise(self, seed):
        rng = random.Random(30_000 + seed)
        noise = bytes(rng.randrange(256) for _ in range(rng.randint(1, 512)))
        self._must_parse_or_reject(noise)

    @staticmethod
    def _must_parse_or_reject(data: bytes):
        try:
            _, blocks = read_car(data)
        except CarError:
            return
        # Parsed fine: then every surviving block must verify.
        for cid, body in blocks.items():
            assert hashlib.sha256(body).digest() == cid.digest
