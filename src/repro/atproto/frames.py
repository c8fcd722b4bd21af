"""Wire framing for event streams.

Real ATProto subscriptions deliver each event as two concatenated DAG-CBOR
items: a *header* (``{"op": 1, "t": "#commit"}``, or ``{"op": -1}`` for
errors) followed by the *payload*.  This module implements that framing
for the firehose event types and for label streams, so the simulator's
streams can be serialized to actual bytes — which is also what the
Section 9 bandwidth estimate is grounded in.

``#commit`` frames, one per record write, are emitted directly: a
constant header, then the payload's eight keys and each op's four keys in
canonical DAG-CBOR order, with every value encoded at the depth the
generic encoder would reach it.  The bytes equal ``cbor_encode`` of the
header and payload dicts (pinned by a differential test).  The other
frame kinds build those dicts and go through ``cbor_encode``.
"""

from __future__ import annotations

from typing import Optional

from repro.atproto.cbor import _decode, _encode_head, _encode_value, cbor_encode
from repro.atproto.events import (
    KIND_COMMIT,
    KIND_HANDLE,
    KIND_IDENTITY,
    KIND_INFO,
    KIND_TOMBSTONE,
    CommitEvent,
    CommitOp,
    FirehoseEvent,
    HandleEvent,
    IdentityEvent,
    InfoEvent,
    TombstoneEvent,
)
from repro.atproto.timestamps import iso_timestamp


class FrameError(ValueError):
    """Raised on malformed frames."""


def _require(item, *names: str) -> tuple:
    """The named fields of a decoded map, or :class:`FrameError`."""
    if not isinstance(item, dict):
        raise FrameError("frame item must be a map, got %s" % type(item).__name__)
    try:
        return tuple(item[name] for name in names)
    except KeyError as exc:
        raise FrameError("frame item is missing %r" % exc.args[0]) from None


def _decode_two(data: bytes):
    """Decode exactly two concatenated DAG-CBOR items."""
    header, pos = _decode(data, 0, 0)
    payload, pos = _decode(data, pos, 0)
    if pos != len(data):
        raise FrameError("trailing bytes after frame payload")
    return header, payload


# ``{"op": 1, "t": "#commit"}`` and the head of its 8-key payload map.
_COMMIT_HEADER = cbor_encode({"op": 1, "t": KIND_COMMIT}) + b"\xa8"


def _encode_commit_frame(event: CommitEvent) -> bytes:
    """The ``#commit`` frame, keys in canonical order: ops, rev, seq,
    repo, time, commit, timeUs, tooBig."""
    out = bytearray(_COMMIT_HEADER)
    ops = event.ops
    out += b"\x63ops"
    if len(ops) < 24:
        out.append(0x80 | len(ops))
    else:
        _encode_head(4, len(ops), out)
    for op in ops:
        # A 4-key map, keys in canonical order: cid, path, action, record.
        # Payload values sit at depth 1, so op fields sit at depth 3.
        out += b"\xa4\x63cid"
        _encode_value(op.cid, out, 3)
        out += b"\x64path"
        _encode_value(op.path, out, 3)
        out += b"\x66action"
        _encode_value(op.action, out, 3)
        out += b"\x66record"
        _encode_value(op.record, out, 3)
    out += b"\x63rev"
    _encode_value(event.rev, out, 1)
    out += b"\x63seq"
    _encode_value(event.seq, out, 1)
    out += b"\x64repo"
    _encode_value(event.did, out, 1)
    out += b"\x64time"
    _encode_value(iso_timestamp(event.time_us), out, 1)
    out += b"\x66commit"
    _encode_value(event.commit_cid, out, 1)
    out += b"\x66timeUs"
    _encode_value(event.time_us, out, 1)
    out += b"\x66tooBig"
    _encode_value(event.too_big, out, 1)
    return bytes(out)


def encode_event_frame(event: FirehoseEvent) -> bytes:
    """Serialize a firehose event to its two-item wire frame."""
    if isinstance(event, CommitEvent):
        return _encode_commit_frame(event)
    header = {"op": 1, "t": event.kind}
    payload: dict = {"seq": event.seq, "repo": event.did, "time": iso_timestamp(event.time_us)}
    payload["timeUs"] = event.time_us
    if isinstance(event, (HandleEvent, IdentityEvent)):
        if getattr(event, "handle", None):
            payload["handle"] = event.handle
    elif isinstance(event, InfoEvent):
        payload["name"] = event.name
        payload["message"] = event.message
        if event.oldest_seq is not None:
            payload["oldestSeq"] = event.oldest_seq
        payload["dropped"] = event.dropped
    return cbor_encode(header) + cbor_encode(payload)


def decode_event_frame(data: bytes) -> FirehoseEvent:
    """Parse a wire frame back into a typed event."""
    header, payload = _decode_two(data)
    if not isinstance(header, dict) or header.get("op") != 1:
        raise FrameError("not a message frame: %r" % (header,))
    kind = header.get("t")
    seq, did, time_us = _require(payload, "seq", "repo", "timeUs")
    if kind == KIND_COMMIT:
        raw_ops = payload.get("ops", [])
        if not isinstance(raw_ops, list):
            raise FrameError("commit ops must be a list")
        ops = []
        for op in raw_ops:
            action, path = _require(op, "action", "path")
            ops.append(
                CommitOp(action=action, path=path, cid=op.get("cid"), record=op.get("record"))
            )
        return CommitEvent(
            seq=seq,
            did=did,
            time_us=time_us,
            rev=payload.get("rev", ""),
            commit_cid=payload.get("commit"),
            ops=tuple(ops),
            too_big=payload.get("tooBig", False),
        )
    if kind == KIND_IDENTITY:
        return IdentityEvent(seq=seq, did=did, time_us=time_us, handle=payload.get("handle"))
    if kind == KIND_HANDLE:
        return HandleEvent(seq=seq, did=did, time_us=time_us, handle=payload.get("handle", ""))
    if kind == KIND_TOMBSTONE:
        return TombstoneEvent(seq=seq, did=did, time_us=time_us)
    if kind == KIND_INFO:
        return InfoEvent(
            seq=seq,
            did=did,
            time_us=time_us,
            name=payload.get("name", ""),
            message=payload.get("message", ""),
            oldest_seq=payload.get("oldestSeq"),
            dropped=payload.get("dropped", 0),
        )
    raise FrameError("unknown event kind %r" % kind)


def encode_label_frame(label, signature: Optional[bytes] = None) -> bytes:
    """Serialize one label event (``com.atproto.label.subscribeLabels``)."""
    header = {"op": 1, "t": "#labels"}
    body = {
        "seq": label.seq,
        "labels": [
            {
                "src": label.src,
                "uri": label.uri,
                "val": label.val,
                "neg": label.neg,
                "cts": iso_timestamp(label.cts),
                "ctsUs": label.cts,
            }
        ],
    }
    if signature is not None:
        body["labels"][0]["sig"] = signature
    return cbor_encode(header) + cbor_encode(body)


def decode_label_frame(data: bytes):
    """Parse a label frame into (seq, list-of-label-dicts)."""
    header, payload = _decode_two(data)
    if not isinstance(header, dict) or header.get("t") != "#labels":
        raise FrameError("not a label frame")
    seq, labels = _require(payload, "seq", "labels")
    if not isinstance(labels, list):
        raise FrameError("labels must be a list")
    return seq, labels
