"""Firehose Dataset (Section 3, Table 1).

A live subscription to the Relay's event stream: counts every event type,
keeps a compact log of record operations, remembers post-creation times
(the reference point for labeler reaction-time analysis), and records
handle updates and tombstones.

The collector is *resilient*: when a fault plan drops its subscription it
loses the frames published on the dead connection, notices on the next
delivery attempt, and resumes via ``com.atproto.sync.subscribeRepos`` with
its last-seen cursor — retrying transient errors with backoff.  If the
cursor has fallen out of the relay's retention window, the replay starts
with an ``#info``/``OutdatedCursor`` frame; the collector records the gap
(oldest available seq + dropped-event count) instead of pretending the
stream was continuous (Section 2's "slow subscriber" failure mode).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.atproto.events import (
    KIND_INFO,
    CommitEvent,
    FirehoseEvent,
    HandleEvent,
    InfoEvent,
    TombstoneEvent,
)
from repro.netsim.faults import (
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    RetryPolicy,
    call_with_retries,
    retry_jitter_rng,
)
from repro.obs.telemetry import Telemetry
from repro.services.xrpc import XrpcError


@dataclass(frozen=True)
class FirehoseGap:
    """One detected retention gap: events lost for good."""

    time_us: int  # when the gap was detected (reconnect time)
    resume_cursor: int  # the cursor the collector tried to resume from
    oldest_available_seq: Optional[int]
    dropped: int  # events between cursor and the oldest available one


@dataclass
class FirehoseDataset:
    start_us: int = 0
    end_us: int = 0  # time of the newest event observed
    bytes_received: int = 0  # approximate wire volume of the stream
    event_counts: Counter = field(default_factory=Counter)  # kind -> count
    op_counts: Counter = field(default_factory=Counter)  # (collection, action)
    # uri -> creation time; reference for reaction-time measurements.
    post_created_us: dict[str, int] = field(default_factory=dict)
    # collection NSIDs that no Bluesky lexicon covers.
    non_bsky_ops: Counter = field(default_factory=Counter)
    handle_updates: list[tuple[int, str, str]] = field(default_factory=list)
    tombstoned_dids: list[tuple[int, str]] = field(default_factory=list)
    feed_generator_records: set = field(default_factory=set)  # uris
    labeler_service_dids: set = field(default_factory=set)
    # -- resilience accounting -------------------------------------------------
    disconnects: int = 0  # times the live subscription died
    reconnects: int = 0  # successful cursor-resumes
    replayed_events: int = 0  # events recovered via subscribeRepos backfill
    gaps: list[FirehoseGap] = field(default_factory=list)  # unrecoverable holes
    dropped_events: int = 0  # sum of gap sizes (the paper's lost-data case)

    def total_events(self) -> int:
        return sum(self.event_counts.values())


class FirehoseCollector:
    """Subscribes to the firehose; attach before the world runs.

    ``fault_plan`` (optional) carries the disconnect windows the collector
    must survive; ``services``/``relay_url`` give it the sync endpoint to
    cursor-resume through (faults and retries apply there like for any
    other crawler).  Without a plan the collector behaves exactly like a
    plain live subscriber.
    """

    def __init__(
        self,
        start_us: int = 0,
        services=None,
        relay_url: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        adversary=None,
        integrity=None,
        on_progress=None,
        telemetry=None,
    ):
        self.start_us = start_us
        self.services = services
        self.relay_url = relay_url
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.adversary = adversary
        self.integrity = integrity
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dataset = FirehoseDataset(start_us=start_us)
        self.cursor = 0  # seq of the newest event ingested
        self.retry_counters: Counter = Counter()
        self._connected = True
        self._fault_seed = fault_plan.seed if fault_plan else 0
        # Live counters mirror the dataset's bookkeeping at the same
        # guarded sites, so they inherit its exactly-once semantics
        # across disconnects, replays, and checkpoint resumes.
        registry = self.telemetry.registry
        self._m_events = registry.counter("firehose_events_total", ("kind",))
        self._m_ops = registry.counter("firehose_ops_total", ("collection", "action"))
        self._m_bytes = registry.counter("firehose_bytes_total")
        self._m_disconnects = registry.counter("firehose_disconnects_total")
        self._m_reconnects = registry.counter("firehose_reconnects_total")
        self._m_replayed = registry.counter("firehose_replayed_total")

    def attach(self, world) -> None:
        if self.services is None:
            self.services = world.services
        if self.relay_url is None:
            self.relay_url = world.relay.url
        world.add_firehose_observer(self.consume, start_us=self.start_us)

    # -- live path -------------------------------------------------------------

    def consume(self, event: FirehoseEvent) -> None:
        if event.seq and event.seq <= self.cursor:
            # Already ingested.  On a checkpoint-resumed run the world
            # replays the whole simulation, so every pre-checkpoint frame
            # is delivered again; skipping here keeps all bookkeeping
            # (fault windows, corruption draws, counters) exactly-once.
            return
        if self.fault_plan is not None and self.fault_plan.is_disconnected(event.time_us):
            # The frame is lost on the dead connection.  Count the drop
            # once per window; the backlog is recovered on reconnect.
            if self._connected:
                self._connected = False
                self.dataset.disconnects += 1
                self._m_disconnects.inc()
            return
        if not self._connected:
            # First delivery attempt after the window: reconnect and
            # replay everything missed (including this event, which is
            # already in the relay's buffer).
            self._resume(event.time_us)
            return
        if self.adversary is not None and self.relay_url is not None:
            garbage = self.adversary.corrupt_frame(event.seq, self.relay_url)
            if garbage is not None:
                # The wire delivered a torn frame.  It cannot decode, so
                # it is quarantined (attributed to the relay) and treated
                # like a dead connection: the intact event is recovered
                # from the relay's buffer on the next cursor-resume.
                if self.integrity is not None:
                    self.integrity.check_frame_bytes(self.relay_url, event.seq, garbage)
                self._connected = False
                self.dataset.disconnects += 1
                self._m_disconnects.inc()
                return
        if self._ingest(event) and self.on_progress is not None:
            self.on_progress("firehose:seq:%d" % event.seq)

    # -- cursor resume ---------------------------------------------------------

    def _resume(self, now_us: int) -> None:
        """Reconnect via subscribeRepos(cursor); stay disconnected on failure."""
        with self.telemetry.tracer.span(
            "firehose-resume", cat="firehose", args={"cursor": self.cursor}
        ):
            try:
                events, _ = call_with_retries(
                    self.services,
                    self.relay_url,
                    "com.atproto.sync.subscribeRepos",
                    now_us=now_us,
                    policy=self.retry_policy,
                    rng=retry_jitter_rng(
                        "firehose:%d" % self._fault_seed, now_us, str(self.cursor)
                    ),
                    counters=self.retry_counters,
                    cursor=self.cursor,
                )
            except XrpcError:
                # Still down after retries; the next live frame tries again.
                return
            self._connected = True
            self.dataset.reconnects += 1
            self._m_reconnects.inc()
            for event in events:
                replayed = self._ingest(event, replay=True)
                if replayed:
                    self.dataset.replayed_events += 1
                    self._m_replayed.inc()

    def backfill(self, now_us: int) -> None:
        """Final catch-up (end of the collection window).

        Covers a disconnect window that extends past the last published
        event: no live frame arrives to trigger the resume path, so the
        pipeline calls this explicitly before closing the dataset.
        """
        if self._connected:
            return
        self._resume(now_us)

    # -- ingestion ---------------------------------------------------------------

    def _ingest(self, event: FirehoseEvent, replay: bool = False) -> bool:
        """Account one frame; returns True if it advanced the dataset."""
        if isinstance(event, InfoEvent) or event.kind == KIND_INFO:
            # Out-of-band gap notice: events between our cursor and the
            # oldest buffered seq are gone for good.  Only meaningful once
            # we have consumed something (a cold start replays history we
            # never claimed to have).
            if self.cursor > 0 and event.dropped > 0:
                self.dataset.gaps.append(
                    FirehoseGap(
                        time_us=event.time_us,
                        resume_cursor=self.cursor,
                        oldest_available_seq=event.oldest_seq,
                        dropped=event.dropped,
                    )
                )
                self.dataset.dropped_events += event.dropped
            return False
        if event.seq <= self.cursor:
            return False  # already seen (replay overlap)
        if event.time_us < self.start_us:
            # Replay reaching before our subscription start: advance the
            # cursor but keep pre-window events out of the dataset, so a
            # resumed run counts exactly what a live one would have.
            self.cursor = event.seq
            return False
        self.cursor = event.seq
        data = self.dataset
        data.event_counts[event.kind] += 1
        self._m_events.inc((event.kind,))
        data.end_us = max(data.end_us, event.time_us)
        frame_bytes = _approximate_frame_bytes(event)
        data.bytes_received += frame_bytes
        self._m_bytes.inc((), frame_bytes)
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.instant(
                "frame", "firehose-frame", args={"seq": event.seq, "kind": event.kind}
            )
        if isinstance(event, CommitEvent):
            for op in event.ops:
                collection = op.collection
                data.op_counts[(collection, op.action)] += 1
                self._m_ops.inc((collection, op.action))
                if collection == "app.bsky.feed.post" and op.action == "create":
                    data.post_created_us["at://%s/%s" % (event.did, op.path)] = event.time_us
                elif collection == "app.bsky.feed.generator" and op.action == "create":
                    data.feed_generator_records.add("at://%s/%s" % (event.did, op.path))
                elif collection == "app.bsky.labeler.service":
                    # Track creates *and* deletes: a retired labeler must
                    # leave the announced set, not linger forever.
                    if op.action == "delete":
                        data.labeler_service_dids.discard(event.did)
                    else:
                        data.labeler_service_dids.add(event.did)
                if not collection.startswith("app.bsky.") and not collection.startswith(
                    "chat.bsky."
                ):
                    data.non_bsky_ops[collection] += 1
        elif isinstance(event, HandleEvent):
            data.handle_updates.append((event.time_us, event.did, event.handle))
        elif isinstance(event, TombstoneEvent):
            data.tombstoned_dids.append((event.time_us, event.did))
        return True


# Per-op overhead for the MST diff blocks that accompany commits on the
# real wire but are not part of our compact frames.  At the production
# network's scale a commit proof path traverses ~a dozen MST nodes of
# roughly 0.5 KB each (the paper's ~30 GB/day over ~4.3M events/day puts
# the average frame near 7 KB).
_MST_DIFF_OVERHEAD = 6000


def _approximate_frame_bytes(event: FirehoseEvent) -> int:
    """Wire size of one firehose frame.

    Used for the Section 9 scalability estimate ("the Firehose already
    outputs ≈30GB of data per day per subscribed client").  The frame
    itself is measured exactly via the event's lazily-encoded, cached wire
    frame; the MST diff blocks the real stream ships alongside each commit
    are added as a fixed per-op overhead.
    """
    try:
        size = event.wire_size()
    except ValueError:
        size = 256
    if isinstance(event, CommitEvent):
        size += _MST_DIFF_OVERHEAD * len(event.ops)
    return size
