"""Tests for subscription wire framing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atproto.cbor import cbor_encode
from repro.atproto.cid import cid_for_cbor, cid_for_raw
from repro.atproto.events import (
    CommitEvent,
    CommitOp,
    HandleEvent,
    IdentityEvent,
    TombstoneEvent,
)
from repro.atproto.frames import (
    FrameError,
    decode_event_frame,
    decode_label_frame,
    encode_event_frame,
    encode_label_frame,
)
from repro.services.labeler import Label

DID = "did:plc:" + "f" * 24
T = 1_713_000_000_000_000


def commit_event(n_ops=2):
    ops = tuple(
        CommitOp(
            action="create",
            path="app.bsky.feed.post/rk%04d" % i,
            cid=cid_for_raw(b"%d" % i),
            record={"$type": "app.bsky.feed.post", "text": "post %d" % i,
                    "createdAt": "2024-04-13T00:00:00Z"},
        )
        for i in range(n_ops)
    )
    return CommitEvent(
        seq=7, did=DID, time_us=T, rev="3kabc2345fghij",
        commit_cid=cid_for_cbor({"c": 1}), ops=ops,
    )


class TestEventFrames:
    def test_commit_round_trip(self):
        event = commit_event()
        decoded = decode_event_frame(encode_event_frame(event))
        assert isinstance(decoded, CommitEvent)
        assert decoded.seq == event.seq
        assert decoded.commit_cid == event.commit_cid
        assert decoded.ops[1].record["text"] == "post 1"
        assert decoded.ops[0].cid == event.ops[0].cid

    def test_identity_round_trip(self):
        event = IdentityEvent(seq=3, did=DID, time_us=T, handle="x.bsky.social")
        decoded = decode_event_frame(encode_event_frame(event))
        assert isinstance(decoded, IdentityEvent)
        assert decoded.handle == "x.bsky.social"

    def test_handle_round_trip(self):
        event = HandleEvent(seq=4, did=DID, time_us=T, handle="new.example.com")
        decoded = decode_event_frame(encode_event_frame(event))
        assert isinstance(decoded, HandleEvent)
        assert decoded.handle == "new.example.com"

    def test_tombstone_round_trip(self):
        event = TombstoneEvent(seq=5, did=DID, time_us=T)
        decoded = decode_event_frame(encode_event_frame(event))
        assert isinstance(decoded, TombstoneEvent)

    def test_delete_op_has_no_record(self):
        event = CommitEvent(
            seq=1, did=DID, time_us=T, rev="3kabc2345fghij",
            commit_cid=cid_for_cbor({"c": 2}),
            ops=(CommitOp("delete", "app.bsky.feed.like/rk", None, None),),
        )
        decoded = decode_event_frame(encode_event_frame(event))
        assert decoded.ops[0].cid is None
        assert decoded.ops[0].record is None

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FrameError):
            decode_event_frame(encode_event_frame(commit_event()) + b"\x00")

    def test_frame_size_matches_encoding(self):
        event = commit_event()
        assert event.wire_size() == len(encode_event_frame(event))

    def test_more_ops_bigger_frame(self):
        assert commit_event(5).wire_size() > commit_event(1).wire_size()


class TestErrorFrames:
    def test_error_frame_detected(self):
        # An ``op: -1`` error frame (sent before a subscription closes) is
        # not an event: the decoder refuses it instead of misreading it.
        frame = cbor_encode({"op": -1}) + cbor_encode(
            {"error": "FutureCursor", "message": "cursor is ahead of stream"}
        )
        with pytest.raises(FrameError, match="not a message frame"):
            decode_event_frame(frame)

    def test_message_frame_detected(self):
        event = decode_event_frame(encode_event_frame(commit_event()))
        assert isinstance(event, CommitEvent)
        assert event.seq == 7


class TestLabelFrames:
    def make_label(self):
        return Label(seq=9, src=DID, uri="at://x/app.bsky.feed.post/1",
                     val="porn", neg=False, cts=T)

    def test_round_trip(self):
        seq, labels = decode_label_frame(encode_label_frame(self.make_label()))
        assert seq == 9
        assert labels[0]["val"] == "porn"
        assert labels[0]["ctsUs"] == T

    def test_signature_carried(self):
        frame = encode_label_frame(self.make_label(), signature=b"\x01" * 64)
        _, labels = decode_label_frame(frame)
        assert labels[0]["sig"] == b"\x01" * 64

    def test_wrong_frame_type_rejected(self):
        with pytest.raises(FrameError):
            decode_label_frame(encode_event_frame(commit_event()))


COMMIT_HEADER = {"op": 1, "t": "#commit"}
LABEL_HEADER = {"op": 1, "t": "#labels"}
EVENT_FIELDS = {"seq": 1, "repo": DID, "timeUs": T}


@pytest.mark.parametrize(
    "decode, header, payload",
    [
        pytest.param(decode_event_frame, COMMIT_HEADER, {"repo": DID, "timeUs": T}, id="no-seq"),
        pytest.param(decode_event_frame, COMMIT_HEADER, [1, DID, T], id="list-payload"),
        pytest.param(decode_event_frame, COMMIT_HEADER, {**EVENT_FIELDS, "ops": 5}, id="ops-int"),
        pytest.param(decode_event_frame, COMMIT_HEADER, {**EVENT_FIELDS, "ops": [5]}, id="op-int"),
        pytest.param(decode_label_frame, [LABEL_HEADER], {"seq": 1, "labels": []}, id="label-hdr"),
        pytest.param(decode_label_frame, LABEL_HEADER, {"seq": 1}, id="no-labels"),
        pytest.param(decode_label_frame, LABEL_HEADER, {"seq": 1, "labels": "x"}, id="labels-str"),
    ],
)
def test_misshapen_frame_raises_frame_error(decode, header, payload):
    """Frames that decode as DAG-CBOR but not as an event are FrameErrors,
    which the integrity monitor quarantines instead of crashing on."""
    from repro.core.integrity import IntegrityMonitor

    data = cbor_encode(header) + cbor_encode(payload)
    with pytest.raises(FrameError):
        decode(data)
    if decode is decode_event_frame:
        monitor = IntegrityMonitor()
        assert not monitor.check_frame_bytes("https://relay.example", 1, data)
        assert [q.kind for q in monitor.report.quarantined] == ["frame"]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=0, max_value=2**50),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20),
)
def test_identity_frame_property(seq, time_us, handle_word):
    event = IdentityEvent(seq=seq, did=DID, time_us=time_us, handle=handle_word + ".example")
    decoded = decode_event_frame(encode_event_frame(event))
    assert decoded.seq == seq
    assert decoded.time_us == time_us
    assert decoded.handle == handle_word + ".example"
