"""Differential tests: the record write path against its reference oracles.

Each per-record step of a write (lexicon validation, TID and CID
rendering, the ISO timestamp, the HMAC signature and the ``#commit``
frame) has one production implementation and a straightforward oracle in
:mod:`tests.atproto.oracles`.  On seeded inputs, boundary values and the
clean reference study's whole firehose, the two must agree byte for
byte, and on invalid input raise the same exception with the same
message.
"""

import base64
import datetime
import pickle
import random

from repro.atproto.cid import cid_for_cbor, cid_for_raw
from repro.atproto.events import (
    CommitEvent,
    CommitOp,
    HandleEvent,
    IdentityEvent,
    InfoEvent,
    TombstoneEvent,
)
from repro.atproto.frames import encode_event_frame
from repro.atproto.keys import HmacKeypair, HmacPublicKey
from repro.atproto.lexicon import (
    Field,
    LexiconRegistry,
    RecordSchema,
    default_registry,
)
from repro.atproto.multibase import base32_encode
from repro.atproto.tid import MAX_CLOCK_ID, MAX_MICROS, Tid
from repro.atproto.timestamps import iso_timestamp
from tests.atproto.oracles import (
    oracle_base32_encode,
    oracle_encode_event_frame,
    oracle_hmac_sig,
    oracle_iso_timestamp,
    oracle_registry_validate,
    oracle_tid_str,
)

SEED = 18
DID = "did:plc:" + "w" * 24
T = 1_713_000_000_123_456


def outcome(fn, *args):
    """``("ok", result)``, or ``("error", class, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the class and message are under comparison
        return ("error", type(exc), str(exc))


# ---------------------------------------------------------------------------
# Lexicon validation
# ---------------------------------------------------------------------------

# One schema with every field type, a known-values field and a max length.
EVERY_TYPE = RecordSchema(
    "com.example.test.everything",
    (
        Field("text", "string", required=True, max_length=8),
        Field("mode", "string", known_values=("a", "b")),
        Field("count", "integer", required=True),
        Field("flag", "boolean"),
        Field("blob", "bytes"),
        Field("link", "cid"),
        Field("meta", "dict"),
        Field("items", "list"),
        Field("subject", "ref"),
        Field("level", "integer", known_values=(1, 2, 3)),
    ),
)

# Values of every type a record field may hold, valid for some field or not.
VALUE_POOL = (
    "text",
    "",
    "a",
    "ü" * 9,
    7,
    -3,
    2,
    True,
    False,
    b"raw",
    cid_for_raw(b"pool"),
    {},
    {"uri": "at://did:plc:x/app.bsky.feed.post/1", "cid": "b"},
    [],
    ["x"],
    None,
    1.5,
)

BAD_NSIDS = (
    "notannsid",
    "a.b",
    "",
    "app..bsky",
    "app.bsky.feed.1post",
    "-bad.example.thing",
    "app.bsky.feed.post-x",
    "x" * 400 + ".a.b",
)


def registries():
    """The default registry, the same schemas made strict, and a registry
    with a schema of every field type."""
    default = default_registry()
    strict = LexiconRegistry()
    for schema in default.schemas.values():
        strict.register(RecordSchema(schema.nsid, schema.fields, allow_extra=False))
    every = LexiconRegistry()
    every.register(EVERY_TYPE)
    every.register(
        RecordSchema(EVERY_TYPE.nsid + "Strict", EVERY_TYPE.fields, allow_extra=False)
    )
    return default, strict, every


def valid_value(rng: random.Random, spec: Field):
    if spec.known_values is not None:
        return rng.choice(spec.known_values)
    if spec.type == "string":
        limit = spec.max_length if spec.max_length is not None else 40
        return "".join(rng.choice("abcé 🌍") for _ in range(rng.randrange(limit + 1)))
    return {
        "integer": rng.randrange(-1000, 1000),
        "boolean": rng.random() < 0.5,
        "bytes": bytes(rng.randrange(256) for _ in range(rng.randrange(8))),
        "cid": cid_for_raw(bytes([rng.randrange(256)])),
        "dict": {"k": rng.randrange(10)},
        "list": [rng.randrange(10)],
        "ref": {"uri": "at://%s/app.bsky.feed.post/%d" % (DID, rng.randrange(99))},
    }[spec.type]


def valid_record(rng: random.Random, schema: RecordSchema) -> dict:
    record = {"$type": schema.nsid}
    fields = list(schema.fields)
    rng.shuffle(fields)  # validation walks the record in its own order
    for spec in fields:
        if spec.required or rng.random() < 0.6:
            record[spec.name] = valid_value(rng, spec)
    return record


def mutations(rng: random.Random, schema: RecordSchema, record: dict):
    """Seeded variants of a valid record, each broken (or not) one way."""
    yield dict(record)
    names = [name for name in record if name != "$type"]
    for name in names:
        dropped = dict(record)
        del dropped[name]
        yield dropped
        retyped = dict(record)
        retyped[name] = rng.choice(VALUE_POOL)
        yield retyped
    for spec in schema.fields:
        if spec.max_length is not None:
            for length in (spec.max_length, spec.max_length + 1):
                sized = dict(record)
                sized[spec.name] = "x" * length
                yield sized
    extra = dict(record)
    extra["unknownField"] = rng.choice(VALUE_POOL)
    yield extra
    for type_value in (None, "com.example.other.thing", 3):
        typed = dict(record)
        if type_value is None:
            del typed["$type"]
        else:
            typed["$type"] = type_value
        yield typed


def test_lexicon_validation_matches_the_oracle():
    rng = random.Random(SEED)
    checked = errors = 0
    for registry in registries():
        schemas = dict(sorted(registry.schemas.items()))
        for nsid, schema in schemas.items():
            for _ in range(12):
                for record in mutations(rng, schema, valid_record(rng, schema)):
                    expected = outcome(oracle_registry_validate, schemas, nsid, record)
                    assert outcome(registry.validate, nsid, record) == expected, record
                    checked += 1
                    errors += expected[0] == "error"
        for collection in BAD_NSIDS + ("com.example.unknown.thing",):
            record = {"$type": collection}
            expected = outcome(oracle_registry_validate, schemas, collection, record)
            assert outcome(registry.validate, collection, record) == expected
    # Both the accepting and every rejecting path are reached.
    assert checked > 2000
    assert 0.2 < errors / checked < 0.8


# ---------------------------------------------------------------------------
# Identifiers: TIDs and base32
# ---------------------------------------------------------------------------


def test_tid_rendering_matches_the_oracle():
    rng = random.Random(SEED)
    values = [(m, c) for m in (0, 1, MAX_MICROS - 1, MAX_MICROS) for c in (0, 1, MAX_CLOCK_ID)]
    values += [(rng.randrange(MAX_MICROS + 1), rng.randrange(MAX_CLOCK_ID + 1)) for _ in range(5000)]
    values += [(1 << bit, rng.randrange(MAX_CLOCK_ID + 1)) for bit in range(53)]
    for micros, clock_id in values:
        tid = Tid(micros, clock_id)
        text = str(tid)
        assert text == oracle_tid_str(tid)
        assert Tid.parse(text) == tid


def test_base32_matches_the_oracle_and_the_standard_library():
    rng = random.Random(SEED)
    for length in range(81):
        for _ in range(20):
            data = bytes(rng.randrange(256) for _ in range(length))
            expected = base64.b32encode(data).rstrip(b"=").lower().decode("ascii")
            assert oracle_base32_encode(data) == expected
            assert base32_encode(data) == expected
        for fill in (b"\x00", b"\xff"):
            assert base32_encode(fill * length) == oracle_base32_encode(fill * length)


# ---------------------------------------------------------------------------
# ISO timestamps
# ---------------------------------------------------------------------------


def _us(*args) -> int:
    moment = datetime.datetime(*args, tzinfo=datetime.timezone.utc)
    epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
    return (moment - epoch) // datetime.timedelta(microseconds=1)


def test_iso_timestamp_matches_the_oracle():
    rng = random.Random(SEED)
    lowest, highest = _us(1000, 1, 1), _us(9999, 12, 31, 23, 59, 59, 999999)
    times = [rng.randrange(lowest, highest + 1) for _ in range(5000)]
    times += [rng.randrange(_us(2022, 1, 1), _us(2025, 1, 1)) for _ in range(5000)]
    boundaries = [
        (1970, 1, 1),
        (1969, 12, 31),
        (2000, 2, 29),
        (2000, 3, 1),
        (2023, 1, 1),
        (2024, 2, 29),
        (2024, 3, 1),
        (2024, 12, 31),
        (2025, 1, 1),
        (2100, 3, 1),
    ]
    for day in boundaries:
        midnight = _us(*day)
        times += [midnight + delta for delta in (-1001, -1000, -999, -1, 0, 1, 999, 1000)]
    times += [lowest, highest]
    for time_us in times:
        assert iso_timestamp(time_us) == oracle_iso_timestamp(time_us), time_us
    assert iso_timestamp(_us(2024, 2, 29, 23, 59, 59, 999999)) == "2024-02-29T23:59:59.999Z"
    assert iso_timestamp(-1) == "1969-12-31T23:59:59.999Z"


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def test_hmac_signature_known_answer():
    keypair = HmacKeypair.from_seed(b"known-answer")
    sig = keypair.sign(b"commit bytes")
    assert sig.hex() == (
        "bbf0c6c667254fc1fcca3d14d16f4f4cde02ecb4c5603bb2425d8cc3c79522f4"
        "dda081fcd851880c964d0e0a4d681d6e0a36860c74f34849f524f3a75d7238af"
    )
    assert sig == oracle_hmac_sig(keypair.secret, b"commit bytes")
    assert keypair.public_key.verify(b"commit bytes", sig)
    # The keyed hash states are rebuilt from the secret when unpickled.
    assert pickle.loads(pickle.dumps(keypair)).sign(b"commit bytes") == sig


def test_hmac_signature_matches_the_oracle():
    rng = random.Random(SEED)
    # Keypair secrets are 32 bytes; a did:key may carry a secret of any
    # length, including past the 64-byte block that HMAC hashes down.
    for length in (32, 0, 1, 63, 64, 65, 100):
        for _ in range(60):
            secret = bytes(rng.randrange(256) for _ in range(length))
            message = bytes(rng.randrange(256) for _ in range(rng.randrange(300)))
            expected = oracle_hmac_sig(secret, message)
            public = HmacPublicKey(secret)
            assert public.verify(message, expected)
            assert not public.verify(message + b"x", expected)
            if length == 32:
                assert HmacKeypair(secret).sign(message) == expected


# ---------------------------------------------------------------------------
# #commit frames
# ---------------------------------------------------------------------------


def test_every_study_frame_matches_the_oracle(reference):
    commits = [event for event in reference.events if isinstance(event, CommitEvent)]
    assert len(commits) > 1000
    for event in reference.events:
        assert encode_event_frame(event) == oracle_encode_event_frame(event)


def _post(text: str) -> dict:
    return {"$type": "app.bsky.feed.post", "text": text, "createdAt": "2024-04-13T00:00:00Z"}


def _create(index: int, record: dict) -> CommitOp:
    return CommitOp("create", "app.bsky.feed.post/rk%04d" % index, cid_for_cbor(record), record)


def _nested(depth: int):
    value = {"leaf": 1}
    for _ in range(depth):
        value = {"n": value}
    return value


def edge_events():
    head = cid_for_cbor({"commit": 1})
    delete = CommitOp("delete", "app.bsky.feed.like/3kdel", None, None)
    base = dict(seq=9, did=DID, time_us=T, rev="3kabc2345fghij", commit_cid=head)
    yield CommitEvent(**base, ops=(delete,))
    yield CommitEvent(**base, ops=())
    yield CommitEvent(**base, ops=tuple(_create(i, _post("post %d" % i)) for i in range(30)))
    yield CommitEvent(**base, ops=(_create(0, _post("x")), delete), too_big=True)
    yield CommitEvent(**dict(base, commit_cid=None), ops=(delete,))
    for seq in (2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64):
        yield CommitEvent(**dict(base, seq=seq), ops=(delete,))
    for text in ("héllo wörld", "日本語のテキスト", "🌍" * 70, "ÿ" * 200):
        yield CommitEvent(**base, ops=(_create(1, _post(text)),))
    for length in (23, 24, 100, 255, 256, 3000):
        text = "a" * length
        yield CommitEvent(**dict(base, did="did:web:" + text, rev=text), ops=(_create(2, _post(text)),))
        yield CommitEvent(**base, ops=(CommitOp("update", "app.bsky.feed.post/" + text, head, _post(text)),))
    # The record sits at depth 3, so its leaf at 5 + depth: 123 is the
    # deepest record the 128-level limit lets through.
    for depth in (120, 123, 124, 140):
        record = {"$type": "com.example.deep.thing", "value": _nested(depth)}
        yield CommitEvent(**base, ops=(CommitOp("create", "com.example.deep.thing/1", head, record),))
    yield IdentityEvent(seq=1, did=DID, time_us=T, handle="a.example.com")
    yield IdentityEvent(seq=2, did=DID, time_us=T)
    yield HandleEvent(seq=3, did=DID, time_us=T, handle="b.example.com")
    yield TombstoneEvent(seq=4, did=DID, time_us=T)
    yield InfoEvent(seq=0, did="", time_us=T, oldest_seq=5, dropped=4)


def test_edge_frames_match_the_oracle():
    outcomes = [
        (outcome(encode_event_frame, event), outcome(oracle_encode_event_frame, event))
        for event in edge_events()
    ]
    for produced, expected in outcomes:
        assert produced == expected
    # The 2**64 seq and the two over-deep records are rejected.
    assert sum(expected[0] == "error" for _, expected in outcomes) == 3
