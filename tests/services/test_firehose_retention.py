"""Focused tests for firehose retention and cursor semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atproto.events import KIND_INFO, IdentityEvent, InfoEvent
from repro.services.relay import Firehose

DAY_US = 24 * 3600 * 1_000_000
DID = "did:plc:" + "a" * 24


def publish_at(firehose, time_us):
    return firehose.publish(lambda seq: IdentityEvent(seq=seq, did=DID, time_us=time_us))


def backlog_seqs(firehose):
    """The seqs retention kept (a resume from 0 minus its gap notice)."""
    return [event.seq for event in firehose.events_since(0) if event.kind != KIND_INFO]


class TestRetention:
    def test_exactly_at_cutoff_survives(self):
        firehose = Firehose(retention_us=3 * DAY_US)
        publish_at(firehose, 0)
        publish_at(firehose, 3 * DAY_US)  # cutoff = 0, first event survives
        assert backlog_seqs(firehose) == [1, 2]

    def test_one_us_past_cutoff_pruned(self):
        firehose = Firehose(retention_us=3 * DAY_US)
        publish_at(firehose, 0)
        publish_at(firehose, 3 * DAY_US + 1)
        assert backlog_seqs(firehose) == [2]
        assert firehose.dropped_total == 1

    def test_seq_numbers_survive_pruning(self):
        firehose = Firehose(retention_us=DAY_US)
        for day in range(6):
            publish_at(firehose, day * DAY_US)
        events = firehose.events_since(0)
        # The replay leads with an OutdatedCursor notice, then the backlog.
        assert events[0].kind == KIND_INFO
        assert [e.seq for e in events[1:]] == [5, 6]

    def test_cursor_mid_backlog(self):
        firehose = Firehose()
        base = 10**15
        for index in range(5):
            publish_at(firehose, base + index)
        events = firehose.events_since(cursor=3)
        assert [e.seq for e in events] == [4, 5]

    def test_cursor_at_head_returns_empty(self):
        firehose = Firehose()
        publish_at(firehose, 10**15)
        assert firehose.events_since(cursor=1) == []

    def test_limit(self):
        firehose = Firehose()
        base = 10**15
        for index in range(10):
            publish_at(firehose, base + index)
        assert len(firehose.events_since(0, limit=4)) == 4

    def test_empty_firehose(self):
        firehose = Firehose()
        assert firehose.events_since(0) == []
        assert firehose.dropped_total == 0
        assert publish_at(firehose, 0).seq == 1

    def test_multiple_subscribers_all_receive(self):
        firehose = Firehose()
        received_a, received_b = [], []
        firehose.subscribe(received_a.append)
        firehose.subscribe(received_b.append)
        publish_at(firehose, 10**15)
        assert len(received_a) == len(received_b) == 1


class TestRetentionGaps:
    """The OutdatedCursor semantics: a cursor that predates the retention
    window gets an explicit ``#info`` frame instead of a silent hole."""

    def make_pruned(self):
        firehose = Firehose(retention_us=DAY_US)
        for day in range(6):
            publish_at(firehose, day * DAY_US)
        return firehose  # seqs 1-4 pruned; 5, 6 retained

    def test_gap_frame_reports_oldest_and_dropped(self):
        firehose = self.make_pruned()
        info = firehose.events_since(0)[0]
        assert isinstance(info, InfoEvent)
        assert info.name == "OutdatedCursor"
        assert info.oldest_seq == 5
        assert info.dropped == 4  # seqs 1-4 are gone
        assert firehose.dropped_total == 4

    def test_gap_sized_to_cursor(self):
        firehose = self.make_pruned()
        info = firehose.events_since(cursor=2)[0]
        assert isinstance(info, InfoEvent)
        assert info.dropped == 2  # seqs 3 and 4 were missed

    def test_cursor_inside_window_gets_no_gap(self):
        firehose = self.make_pruned()
        events = firehose.events_since(cursor=4)
        assert [e.seq for e in events] == [5, 6]
        assert firehose.gap_for_cursor(4) is None

    def test_cursor_at_window_edge(self):
        firehose = self.make_pruned()
        # cursor 4 means "I have seen up to seq 4"; seq 5 is the oldest
        # retained event, so nothing was actually lost.
        assert firehose.gap_for_cursor(4) is None
        assert firehose.gap_for_cursor(3) is not None

    def test_limit_caps_total_frames_including_gap(self):
        firehose = self.make_pruned()
        # ``limit`` bounds the frames on the wire: a consumer asking for
        # at most 2 must never receive 3 (the old code prepended the gap
        # frame *after* cutting, overflowing the budget by one).
        events = firehose.events_since(0, limit=2)
        assert len(events) == 2
        assert events[0].kind == KIND_INFO
        assert events[1].seq == 5

    def test_limit_one_at_retention_boundary_yields_only_the_notice(self):
        firehose = self.make_pruned()
        events = firehose.events_since(0, limit=1)
        assert len(events) == 1
        assert events[0].kind == KIND_INFO

    def test_resume_at_retention_boundary_with_limit_loses_nothing(self):
        # A consumer resuming from a pre-retention cursor pages with a
        # small limit: frame counts never exceed the limit and the pages
        # cover every retained event exactly once.
        firehose = self.make_pruned()
        cursor = 0
        replayed = []
        saw_gap = False
        while True:
            page = firehose.events_since(cursor, limit=2)
            assert len(page) <= 2
            if not page:
                break
            for event in page:
                if event.kind == KIND_INFO:
                    saw_gap = True
                    # The notice tells the consumer where replay resumes.
                    cursor = event.oldest_seq - 1
                else:
                    replayed.append(event.seq)
                    cursor = event.seq
        assert saw_gap
        assert replayed == [5, 6]

    def test_fresh_firehose_has_no_gap(self):
        firehose = Firehose(retention_us=DAY_US)
        publish_at(firehose, 0)
        assert firehose.gap_for_cursor(0) is None
        assert all(e.kind != KIND_INFO for e in firehose.events_since(0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 * DAY_US), min_size=1, max_size=40))
def test_retention_invariant_property(offsets):
    """After any publish sequence with increasing times, the backlog only
    contains events within the retention window of the newest event."""
    firehose = Firehose(retention_us=2 * DAY_US)
    now = 10**15
    for offset in sorted(offsets):
        publish_at(firehose, now + offset)
    newest = now + max(offsets)
    for event in firehose.events_since(0):
        assert event.time_us >= newest - 2 * DAY_US
    seqs = [e.seq for e in firehose.events_since(0)]
    assert seqs == sorted(seqs)
