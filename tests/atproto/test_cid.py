"""Tests for CIDs and TIDs."""

import copy
import hashlib
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.atproto.car import read_car, write_car
from repro.atproto.cbor import cbor_decode, cbor_encode
from repro.atproto.cid import (
    CODEC_DAG_CBOR,
    CODEC_RAW,
    MULTIHASH_SHA2_256,
    SHA2_256_LENGTH,
    Cid,
    CidError,
    cid_for_cbor,
    cid_for_dag_cbor_bytes,
    cid_for_raw,
)
from repro.atproto.keys import HmacKeypair
from repro.atproto.lexicon import Field, LexiconError, RecordSchema
from repro.atproto.mst import Mst, read_node
from repro.atproto.repo import SignatureError, import_car
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


class TestCidIsAValue:
    """A Cid is its 36-byte binary form; these pin what that may not change."""

    def test_fields(self):
        cid = cid_for_raw(b"x")
        assert (cid.version, cid.codec, cid.digest) == (1, CODEC_RAW, hashlib.sha256(b"x").digest())
        assert type(cid.digest) is bytes and type(cid.to_bytes()) is bytes

    def test_no_attributes_can_be_added(self):
        with pytest.raises(AttributeError):
            cid_for_raw(b"x").label = "y"

    def test_invalid_codec(self):
        with pytest.raises(CidError):
            Cid(1, 0x70, b"\x00" * 32)

    def test_every_construction_gives_one_value(self):
        """The same CID built by each constructor is equal and hashes equal."""
        node = Mst()
        record = cbor_encode({"$type": "app.bsky.feed.post", "text": "x"})
        node.set("app.bsky.feed.post/a", cid_for_dag_cbor_bytes(record))
        block = node.root.to_cbor()
        ((_, from_node),), _ = read_node(node.root_cid(), block)
        record_cid = cid_for_dag_cbor_bytes(record)
        car = write_car(node.root_cid(), [(node.root_cid(), block), (record_cid, record)])
        _, blocks = read_car(car)
        (from_car,) = [cid for cid, body in blocks.items() if body == record]
        digest = hashlib.sha256(record).digest()
        built = [
            Cid(1, CODEC_DAG_CBOR, digest),
            Cid.from_bytes(bytes((1, CODEC_DAG_CBOR, 0x12, 32)) + digest),
            Cid.parse(str(Cid(1, CODEC_DAG_CBOR, digest))),
            cid_for_dag_cbor_bytes(record),
            cid_for_cbor(cbor_decode(record)),
            from_node,
            from_car,
            cbor_decode(Cid(1, CODEC_DAG_CBOR, digest).cbor_link()),
        ]
        assert all(type(cid) is Cid for cid in built)
        assert len(set(built)) == 1 and len({hash(cid) for cid in built}) == 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        cid = cid_for_cbor({"x": 1})
        back = pickle.loads(pickle.dumps({"k": [cid]}, protocol))["k"][0]
        assert type(back) is Cid and back == cid and str(back) == str(cid)
        assert copy.deepcopy(cid) == cid

    @pytest.mark.parametrize(
        "wrap",
        [lambda c: c, lambda c: {"a": c}, lambda c: [1, c], lambda c: {"a": [{"b": c}]}],
        ids=["top", "map-value", "list-item", "nested"],
    )
    def test_encodes_as_a_link_never_as_bytes(self, wrap):
        cid = cid_for_raw(b"x")
        encoded = cbor_encode(wrap(cid))
        assert cid.cbor_link() in encoded
        assert b"\x58\x24" + cid.to_bytes() not in encoded  # no 36-byte string
        assert cbor_decode(encoded) == wrap(cid)

    def test_subclass_takes_the_slow_encoder_as_a_link(self):
        class Sub(Cid):
            __slots__ = ()

        cid = cid_for_raw(b"x")
        sub = Sub(1, cid.codec, cid.digest)
        assert cbor_encode([sub]) == b"\x81" + cid.cbor_link()

    def test_lexicon_bytes_and_cid_types_stay_apart(self):
        schema = RecordSchema("com.example.blob", (Field("b", "bytes"), Field("c", "cid")))
        cid = cid_for_raw(b"x")
        schema.validate({"$type": "com.example.blob", "b": b"raw", "c": cid})
        with pytest.raises(LexiconError, match="must be bytes"):
            schema.validate({"$type": "com.example.blob", "b": cid})
        with pytest.raises(LexiconError, match="must be cid"):
            schema.validate({"$type": "com.example.blob", "c": cid.to_bytes()})

    def test_commit_sig_must_be_bytes_not_a_cid(self):
        keypair = HmacKeypair.from_seed(b"sig")
        mst = Mst()
        root = cbor_encode({"e": [], "l": None})
        commit = cbor_encode(
            {
                "did": "did:plc:" + "a" * 24,
                "rev": "3kabcdefghi22",
                "version": 3,
                "prev": None,
                "data": mst.root_cid(),
                "sig": cid_for_raw(b"not a signature"),
            }
        )
        commit_cid = cid_for_dag_cbor_bytes(commit)
        car = write_car(commit_cid, [(commit_cid, commit), (mst.root_cid(), root)])
        with pytest.raises(SignatureError):
            import_car(car, verify_key=keypair.public_key)


@given(st.binary(max_size=64))
def test_cid_string_round_trip(data):
    cid = cid_for_raw(data)
    assert Cid.parse(str(cid)) == cid
