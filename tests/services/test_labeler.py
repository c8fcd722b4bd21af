"""Tests for Labeler services."""

import pytest

from repro.services.labeler import (
    TARGET_ACCOUNT,
    TARGET_OTHER,
    TARGET_POST,
    TARGET_PROFILE_MEDIA,
    LabelerPolicies,
    LabelerService,
    classify_subject,
)

DID = "did:plc:" + "l" * 24
POST_URI = "at://did:plc:%s/app.bsky.feed.post/3kabc" % ("u" * 24)
PROFILE_URI = "at://did:plc:%s/app.bsky.actor.profile/self" % ("u" * 24)


@pytest.fixture()
def labeler():
    policies = LabelerPolicies(
        label_values=("porn", "spam", "no-alt-text"),
        descriptions={"porn": {"severity": "alert"}},
    )
    return LabelerService(DID, "https://labeler.test", policies)


class TestSubjectClassification:
    def test_post(self):
        assert classify_subject(POST_URI) == TARGET_POST

    def test_account(self):
        assert classify_subject("did:plc:" + "u" * 24) == TARGET_ACCOUNT

    def test_profile_media(self):
        assert classify_subject(PROFILE_URI) == TARGET_PROFILE_MEDIA

    def test_other(self):
        assert classify_subject("at://did:plc:x/app.bsky.graph.list/1") == TARGET_OTHER


class TestEmission:
    def test_emit(self, labeler):
        label = labeler.emit(POST_URI, "porn", now_us=1000)
        assert label.src == DID
        assert label.seq == 1
        assert not label.neg
        assert labeler.xrpc_subscribeLabels() == [label]

    def test_rescind(self, labeler):
        labeler.emit(POST_URI, "spam", now_us=1000)
        negation = labeler.rescind(POST_URI, "spam", now_us=2000)
        assert negation.neg
        # Both events stay in the stream; the newest one for the pair rules.
        stream = labeler.xrpc_subscribeLabels()
        assert [(label.val, label.neg) for label in stream] == [("spam", False), ("spam", True)]

    def test_seq_increments(self, labeler):
        for i in range(5):
            labeler.emit(POST_URI, "spam", now_us=i)
        assert [l.seq for l in labeler.xrpc_subscribeLabels()] == [1, 2, 3, 4, 5]


class TestStream:
    def test_full_backfill(self, labeler):
        labeler.emit(POST_URI, "porn", now_us=1)
        labeler.emit(POST_URI, "spam", now_us=2)
        # Unlike the firehose, the labeler stream replays its full history.
        assert len(labeler.xrpc_subscribeLabels(cursor=0)) == 2

    def test_cursor(self, labeler):
        labeler.emit(POST_URI, "porn", now_us=1)
        labeler.emit(POST_URI, "spam", now_us=2)
        assert len(labeler.xrpc_subscribeLabels(cursor=1)) == 1

    def test_limit(self, labeler):
        for i in range(10):
            labeler.emit(POST_URI, "spam", now_us=i)
        assert len(labeler.xrpc_subscribeLabels(cursor=0, limit=3)) == 3


class TestServiceRecord:
    def test_record_shape(self, labeler):
        record = labeler.service_record("2024-03-15T00:00:00Z")
        assert record["$type"] == "app.bsky.labeler.service"
        assert "porn" in record["policies"]["labelValues"]
        assert record["policies"]["labelValueDefinitions"]["porn"]["severity"] == "alert"

    def test_record_validates_against_lexicon(self, labeler):
        from repro.atproto.lexicon import LABELER_SERVICE, default_registry

        default_registry().validate(LABELER_SERVICE, labeler.service_record("2024-01-01T00:00:00Z"))
