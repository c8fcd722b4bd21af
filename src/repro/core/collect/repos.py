"""Repositories Dataset (Section 3).

Downloads a snapshot of every user's repository via the Relay's
``com.atproto.sync.getRepo`` (served from the Relay cache, so self-hosted
PDSes are never loaded — the recommended, ethics-friendly method the paper
used) and reduces each record to a compact analysis row.
"""

from __future__ import annotations

import datetime
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.atproto.lexicon import (
    BLOCK,
    FEED_GENERATOR,
    FOLLOW,
    LABELER_SERVICE,
    LIKE,
    POST,
    PROFILE,
    REPOST,
)
from repro.obs.telemetry import Telemetry
from repro.services.xrpc import ServiceDirectory, XrpcError


def parse_created_at_us(text: str) -> Optional[int]:
    """Parse a record's createdAt into epoch microseconds.

    Returns None for unparseable strings.  Pre-epoch timestamps (the
    "1185" bug the paper reported) come back negative.
    """
    if not text:
        return None
    try:
        moment = datetime.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        return None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=datetime.timezone.utc)
    epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
    return int((moment - epoch).total_seconds() * 1_000_000)


@dataclass
class PostRow:
    did: str
    rkey: str
    created_us: Optional[int]
    created_year: int
    lang: Optional[str]
    has_media: bool


@dataclass
class SubjectRow:
    did: str
    created_us: Optional[int]
    subject: str


@dataclass
class FeedGenRow:
    did: str
    rkey: str
    created_us: Optional[int]
    service_did: str
    display_name: str
    description: str

    @property
    def uri(self) -> str:
        return "at://%s/app.bsky.feed.generator/%s" % (self.did, self.rkey)


@dataclass
class RepositoriesDataset:
    time_us: int = 0
    repo_count: int = 0
    # Virtual wall-clock the crawl takes at the negotiated scan rate (the
    # paper's snapshot ran for 10 days; see netsim.ratelimit).
    crawl_duration_us: int = 0
    verified_signatures: int = 0
    # Repos the crawl could not obtain, and why — the paper likewise
    # reports fewer repositories (5.52M) than identifiers (5.59M).
    failed_dids: set = field(default_factory=set)
    failure_reasons: dict[str, str] = field(default_factory=dict)
    # Resilience accounting: per-request retries, skip-queue rounds, and
    # transient failures that later recovered.
    requests_attempted: int = 0
    transient_retries: int = 0
    requeued_dids: int = 0
    retry_rounds: int = 0
    posts: list[PostRow] = field(default_factory=list)
    likes: list[SubjectRow] = field(default_factory=list)
    follows: list[SubjectRow] = field(default_factory=list)
    reposts: list[SubjectRow] = field(default_factory=list)
    blocks: list[SubjectRow] = field(default_factory=list)
    feed_generators: list[FeedGenRow] = field(default_factory=list)
    labeler_services: list[tuple[str, Optional[int]]] = field(default_factory=list)
    profiles: dict[str, str] = field(default_factory=dict)  # did -> displayName
    other_collections: Counter = field(default_factory=Counter)
    records_per_repo: Counter = field(default_factory=Counter)

    @property
    def labeler_service_dids(self) -> list[str]:
        return [did for did, _ in self.labeler_services]

    def operation_totals(self) -> dict[str, int]:
        """The Section 4 headline totals."""
        return {
            "likes": len(self.likes),
            "posts": len(self.posts),
            "follows": len(self.follows),
            "reposts": len(self.reposts),
            "blocks": len(self.blocks),
        }


class RepositoriesCollector:
    """Downloads and parses every repository.

    ``rate_per_second`` models the scan rate agreed with the operator
    (paper ethics section); the resulting virtual crawl duration is
    recorded on the dataset.
    """

    #: Skip-queue passes after the initial crawl; the wait before each
    #: doubles so a pass lands past any outage shorter than ~2.5 hours.
    MAX_RETRY_ROUNDS = 4
    FIRST_ROUND_WAIT_US = 10 * 60 * 1_000_000  # 10 virtual minutes

    def __init__(
        self,
        services: ServiceDirectory,
        relay_url: str,
        integrity,
        rate_per_second: float = 6.4,
        resolver=None,
        retry_policy=None,
        host_of=None,
        on_progress=None,
        telemetry=None,
    ):
        from repro.netsim.faults import DEFAULT_RETRY_POLICY

        self.services = services
        self.relay_url = relay_url
        self.rate_per_second = rate_per_second
        # Optional DID resolver: when present, every downloaded repo's
        # commit signature is verified against the account's published
        # signing key (end-to-end authenticated transfer).
        self.resolver = resolver
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        # The IntegrityMonitor runs the full self-certification stack
        # (digests, MST invariants, signature) on every download and
        # quarantines failures instead of ingesting them.  ``host_of``
        # maps a DID to its hosting PDS so quarantines are attributed to
        # the origin host even though the bytes came through the relay.
        self.integrity = integrity
        self.host_of = host_of
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dataset = RepositoriesDataset()

    def crawl(self, dids: Iterable[str], now_us: int) -> RepositoriesDataset:
        with self.telemetry.tracer.span("repo-crawl", cat="collector"):
            return self._crawl(dids, now_us)

    def _crawl(self, dids: Iterable[str], now_us: int) -> RepositoriesDataset:
        """Download every repo, skipping-and-retrying transient failures.

        Each request retries transient errors in place (shared backoff
        policy); a DID whose retries exhaust is parked on a skip queue and
        re-attempted in later passes with growing waits, so an outage that
        ends mid-crawl costs nothing but time.  DIDs that never succeed
        are recorded with their final failure reason, the way the paper
        reports the repos its snapshot could not fetch.
        """
        from repro.netsim.faults import TRANSIENT_STATUSES, call_with_retries
        from repro.netsim.ratelimit import TokenBucket

        bucket = TokenBucket(self.rate_per_second, burst=10)
        virtual_now = now_us
        data = self.dataset
        data.time_us = now_us
        rng = random.Random(0x5EED ^ 0xCA11)
        counters = Counter()

        # Resume support: a DID the dataset already accounts for (crawled
        # or terminally failed/quarantined) is never fetched again.
        pending = [
            did
            for did in dids
            if did not in data.records_per_repo and did not in data.failed_dids
        ]
        rounds = 0
        while pending:
            still_failing: list[str] = []
            for did in pending:
                virtual_now = bucket.acquire(virtual_now)
                try:
                    car, virtual_now = call_with_retries(
                        self.services,
                        self.relay_url,
                        "com.atproto.sync.getRepo",
                        now_us=virtual_now,
                        policy=self.retry_policy,
                        rng=rng,
                        counters=counters,
                        did=did,
                    )
                except XrpcError as exc:
                    if exc.status in TRANSIENT_STATUSES:
                        still_failing.append(did)
                    else:
                        data.failed_dids.add(did)
                        data.failure_reasons[did] = "xrpc %d: %s" % (exc.status, exc)
                    continue
                data.failed_dids.discard(did)  # recovered on a later round
                data.failure_reasons.pop(did, None)
                self._ingest_repo(did, car)
                if self.on_progress is not None:
                    self.on_progress("repo:%s" % did)
            if not still_failing:
                break
            if rounds >= self.MAX_RETRY_ROUNDS:
                for did in still_failing:
                    data.failed_dids.add(did)
                    data.failure_reasons[did] = (
                        "transient failures exhausted %d retry rounds" % rounds
                    )
                break
            # Park the failures and come back after a growing wait.
            data.requeued_dids += len(still_failing)
            rounds += 1
            virtual_now += self.FIRST_ROUND_WAIT_US * (2 ** (rounds - 1))
            pending = still_failing
        data.retry_rounds = max(data.retry_rounds, rounds)
        data.requests_attempted += counters["attempts"]
        data.transient_retries += counters["retries"]
        data.crawl_duration_us = virtual_now - now_us
        return data

    def _ingest_repo(self, did: str, car: bytes) -> None:
        data = self.dataset
        verify_key = self._signing_key_for(did)
        host = self.host_of(did) if self.host_of is not None else self.relay_url
        snapshot = self.integrity.verify_repo_car(host, did, car, verify_key=verify_key)
        if snapshot is None:
            # Quarantined: the repo never enters the dataset, and the DID
            # is terminally failed (re-fetching would serve the same
            # poisoned bytes — corruption draws are stateless).
            kind = self.integrity.report.quarantined[-1].kind
            data.failed_dids.add(did)
            data.failure_reasons[did] = "quarantined: %s" % kind
            return
        if verify_key is not None:
            data.verified_signatures += 1
        data.repo_count += 1
        count = 0
        for path, record in snapshot.records.items():
            count += 1
            self._ingest(did, path, record)
        data.records_per_repo[did] = count

    def _signing_key_for(self, did: str):
        if self.resolver is None:
            return None
        doc = self.resolver.resolve(did)
        if doc is None or doc.signing_key is None:
            return None
        from repro.atproto.keys import public_key_from_did_key

        try:
            return public_key_from_did_key(doc.signing_key)
        except ValueError:
            return None

    def _ingest(self, did: str, path: str, record: dict) -> None:
        collection, _, rkey = path.partition("/")
        created = record.get("createdAt", "")
        created_us = parse_created_at_us(created)
        data = self.dataset
        if collection == POST:
            year = int(created[:4]) if created[:4].isdigit() else 0
            langs = record.get("langs") or []
            data.posts.append(
                PostRow(
                    did=did,
                    rkey=rkey,
                    created_us=created_us,
                    created_year=year,
                    lang=langs[0] if langs else None,
                    has_media="images" in (record.get("embed") or {}),
                )
            )
        elif collection == LIKE:
            subject = (record.get("subject") or {}).get("uri", "")
            data.likes.append(SubjectRow(did, created_us, subject))
        elif collection == FOLLOW:
            data.follows.append(SubjectRow(did, created_us, record.get("subject", "")))
        elif collection == REPOST:
            subject = (record.get("subject") or {}).get("uri", "")
            data.reposts.append(SubjectRow(did, created_us, subject))
        elif collection == BLOCK:
            data.blocks.append(SubjectRow(did, created_us, record.get("subject", "")))
        elif collection == FEED_GENERATOR:
            data.feed_generators.append(
                FeedGenRow(
                    did=did,
                    rkey=rkey,
                    created_us=created_us,
                    service_did=record.get("did", ""),
                    display_name=record.get("displayName", ""),
                    description=record.get("description", ""),
                )
            )
        elif collection == LABELER_SERVICE:
            data.labeler_services.append((did, created_us))
        elif collection == PROFILE:
            data.profiles[did] = record.get("displayName", "")
        else:
            data.other_collections[collection] += 1
