"""The Relay and its Firehose.

The Relay (``bsky.network``) crawls every known PDS, mirrors all repos in a
local cache, and re-publishes every update on the *Firehose* — the single
event stream the AppView, Labelers, Feed Generators, and the paper's own
collectors consume.  Key behaviours modelled here:

* repo cache: ``sync.listRepos`` / ``sync.getRepo`` answer from the cache,
  so crawls do not load the (possibly self-hosted) origin PDSes — the
  property the paper's ethics section relies on;
* sequence numbers: every event gets a monotonically increasing ``seq``;
* retention: the event backlog is pruned to a three-day window, so a
  subscriber that falls further behind loses data (Section 2);
* event kinds: ``#commit``, ``#identity``, ``#handle``, ``#tombstone``
  (Table 1).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro.atproto.cid import Cid
from repro.atproto.events import (
    INFO_OUTDATED_CURSOR,
    CommitEvent,
    FirehoseEvent,
    HandleEvent,
    IdentityEvent,
    InfoEvent,
    TombstoneEvent,
)
from repro.atproto.repo import CommitMeta, Repo
from repro.obs.metrics import read_cache_counters
from repro.obs.telemetry import Telemetry
from repro.services.pds import Pds
from repro.services.xrpc import XrpcError, XrpcService

RETENTION_US = 3 * 24 * 60 * 60 * 1_000_000  # three days

#: Exported-CAR cache bound: enough for a crawl's working set without
#: pinning every repo's serialized bytes in memory at paper scale.
CAR_CACHE_MAX = 256


class Firehose:
    """Sequenced event log with live subscribers and bounded retention."""

    def __init__(self, retention_us: int = RETENTION_US):
        self.retention_us = retention_us
        self._events: list[FirehoseEvent] = []
        self._first_index_seq = 1  # seq of _events[0]
        self._next_seq = 1
        self._subscribers: list[Callable[[FirehoseEvent], None]] = []
        self.dropped_total = 0  # events pruned out of the retention window

    def publish(self, build_event: Callable[[int], FirehoseEvent]) -> FirehoseEvent:
        """Assign the next seq, buffer the event, fan out to subscribers."""
        event = build_event(self._next_seq)
        self._next_seq += 1
        self._events.append(event)
        self._prune(event.time_us)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def _prune(self, now_us: int) -> None:
        cutoff = now_us - self.retention_us
        dropped = 0
        for event in self._events:
            if event.time_us >= cutoff:
                break
            dropped += 1
        if dropped:
            self._events = self._events[dropped:]
            self._first_index_seq += dropped
            self.dropped_total += dropped

    def subscribe(self, callback: Callable[[FirehoseEvent], None]) -> None:
        """Live subscription: callback runs for every future event."""
        self._subscribers.append(callback)

    def events_since(self, cursor: int = 0, limit: Optional[int] = None) -> list[FirehoseEvent]:
        """Replay buffered events with seq > cursor (subject to retention).

        When the cursor predates the retention window the replay *starts
        with* an ``#info``/``OutdatedCursor`` frame carrying the oldest
        sequence number still available and the number of events that were
        dropped — the consumer learns exactly how large its gap is instead
        of silently receiving a stream with a hole in it.

        ``limit`` caps the number of *frames* returned, gap frame
        included: a consumer that asked for at most N frames must never
        receive N + 1, so the limit is applied after the gap frame is
        prepended (a resume at the retention boundary with ``limit=1``
        yields just the notice; the next page starts the real replay).
        """
        start = max(0, cursor + 1 - self._first_index_seq)
        events: list[FirehoseEvent] = list(self._events[start:])
        gap = self.gap_for_cursor(cursor)
        if gap is not None:
            events.insert(0, gap)
        if limit is not None:
            events = events[:limit]
        return events

    def gap_for_cursor(self, cursor: int) -> Optional[InfoEvent]:
        """The ``OutdatedCursor`` frame a resume from ``cursor`` deserves,
        or None when the cursor is still inside the retention window."""
        if cursor + 1 >= self._first_index_seq:
            return None
        dropped = self._first_index_seq - (cursor + 1)
        oldest = self._events[0].seq if self._events else None
        newest_us = self._events[-1].time_us if self._events else 0
        return InfoEvent(
            seq=0,
            did="",
            time_us=newest_us,
            name=INFO_OUTDATED_CURSOR,
            message="requested cursor %d predates retention; replay resumes at %s "
            "(%d events dropped)" % (cursor, oldest, dropped),
            oldest_seq=oldest,
            dropped=dropped,
        )

class Relay(XrpcService):
    """The Relay service: PDS aggregator + Firehose publisher + repo cache."""

    def __init__(
        self,
        url: str = "https://bsky.network",
        retention_us: int = RETENTION_US,
    ):
        self.url = url.rstrip("/")
        self.firehose = Firehose(retention_us)
        self._pdses: list[Pds] = []
        self._repo_locations: dict[str, Pds] = {}  # did -> hosting PDS
        self._tombstoned: set[str] = set()
        # did -> (head Cid, CAR bytes): serialized exports served
        # to repeat getRepo calls at an unchanged head.  Bounded (oldest
        # insertion evicted first — deterministic, no wall clock) and
        # explicitly invalidated by publish_commit / publish_tombstone.
        self._car_cache: dict[str, tuple[Cid, bytes]] = {}
        self.set_telemetry(Telemetry())

    def set_telemetry(self, telemetry) -> None:
        """(Re)bind the read-cache counter families and the tracer."""
        self.telemetry = telemetry
        self._m_cache_hits, self._m_cache_misses = read_cache_counters(telemetry.registry)

    def flush_read_caches(self) -> None:
        """Drop cached CAR exports (journal-boundary cache flush)."""
        self._car_cache.clear()

    # -- crawling / federation -------------------------------------------------

    def crawl_pds(self, pds: Pds) -> None:
        """Start consuming a PDS (the `requestCrawl` handshake).

        The legacy push path: the PDS notifies the relay of every commit.
        The sharded engine uses :meth:`register_pds` + explicit
        :meth:`publish_commit` calls instead, so event ordering is decided
        by the deterministic merge, not by callback timing.
        """
        if pds in self._pdses:
            return
        self.register_pds(pds)
        pds.on_commit(lambda did, meta, pds=pds: self.publish_commit(pds, did, meta))
        pds.on_tombstone(self.publish_tombstone)

    def register_pds(self, pds: Pds) -> None:
        """Track a PDS's repos without subscribing to its commit stream.

        Used directly by the sharded engine, which publishes commits
        explicitly in merged order, and by :meth:`crawl_pds` before it
        subscribes (locations update on every published commit either way).
        """
        if pds in self._pdses:
            return
        self._pdses.append(pds)
        for did in pds.dids():
            self._repo_locations[did] = pds

    def publish_commit(self, pds: Pds, did: str, meta: CommitMeta) -> None:
        """Ingest one commit: update cache bookkeeping, emit ``#commit``."""
        self._repo_locations[did] = pds
        self._car_cache.pop(did, None)  # new head: cached export is stale
        self.firehose.publish(
            lambda seq: CommitEvent(
                seq=seq,
                did=did,
                time_us=meta.time_us,
                rev=meta.rev,
                commit_cid=meta.commit_cid,
                ops=meta.ops,
            )
        )

    def publish_tombstone(self, did: str, now_us: int) -> None:
        """Ingest an account removal: drop the cache entry, emit ``#tombstone``."""
        self._tombstoned.add(did)
        self._car_cache.pop(did, None)
        self._repo_locations.pop(did, None)
        self.firehose.publish(
            lambda seq: TombstoneEvent(seq=seq, did=did, time_us=now_us)
        )

    def publish_identity_event(self, did: str, now_us: int, handle: Optional[str] = None) -> None:
        """DID document changed (key rotation, PDS move, ...)."""
        self.firehose.publish(
            lambda seq: IdentityEvent(seq=seq, did=did, time_us=now_us, handle=handle)
        )

    def publish_handle_event(self, did: str, new_handle: str, now_us: int) -> None:
        """Handle change: the legacy #handle event plus nothing else; the
        paper's Table 1 counts these separately from #identity."""
        self.firehose.publish(
            lambda seq: HandleEvent(seq=seq, did=did, time_us=now_us, handle=new_handle)
        )

    # -- cache-backed sync API ----------------------------------------------------

    def hosting_pds(self, did: str) -> Optional[Pds]:
        return self._repo_locations.get(did)

    def cached_repo(self, did: str) -> Optional[Repo]:
        pds = self._repo_locations.get(did)
        if pds is None or not pds.has_account(did):
            return None
        return pds.repo(did)

    def known_dids(self) -> list[str]:
        return list(self._repo_locations)

    def xrpc_listRepos(self, cursor: Optional[str] = None, limit: int = 1000) -> dict:
        """List all repos the relay mirrors, with head commit versions.

        The cursor is the last DID of the previous page.  Resume via
        ``bisect`` on the sorted DID list: if the cursor DID was tombstoned
        between pages it no longer appears in the listing, but pagination
        must continue from where it *would* sort — an exact-match lookup
        would silently end the crawl and drop every remaining repo.
        """
        dids = sorted(self._repo_locations)
        start = bisect_right(dids, cursor) if cursor is not None else 0
        page = dids[start : start + limit]
        repos = []
        for did in page:
            repo = self.cached_repo(did)
            if repo is not None and repo.head is not None:
                repos.append({"did": did, "head": str(repo.head), "rev": repo.rev})
        next_cursor = page[-1] if len(page) == limit else None
        return {"repos": repos, "cursor": next_cursor}

    def xrpc_getRepo(self, did: str) -> bytes:
        """Serve a repo CAR from the relay's cache (not the origin PDS).

        Serialized exports are cached per DID and keyed by the head CID,
        so repeat fetches at an unchanged head skip re-serialization."""
        with self.telemetry.tracer.span("read.getRepo", cat="read", sample=True):
            repo = self.cached_repo(did)
            if repo is None or repo.head is None:
                raise XrpcError(404, "repo %s not mirrored" % did)
            head = repo.head
            cached = self._car_cache.get(did)
            if cached is not None and cached[0] == head:
                self._m_cache_hits.inc(("repo_car",))
                return cached[1]
            self._m_cache_misses.inc(("repo_car",))
            car = repo.export_car()
            while len(self._car_cache) >= CAR_CACHE_MAX:
                del self._car_cache[next(iter(self._car_cache))]
            self._car_cache[did] = (head, car)
            return car

    def xrpc_subscribeRepos(self, cursor: int = 0, limit: Optional[int] = None) -> list:
        """Cursor-based replay of the firehose backlog."""
        return self.firehose.events_since(cursor, limit)
