"""Repositories Dataset (Section 3).

Downloads a snapshot of every user's repository via the Relay's
``com.atproto.sync.getRepo`` (served from the Relay cache, so self-hosted
PDSes are never loaded — the recommended, ethics-friendly method the paper
used) and reduces each record to a compact analysis row.
"""

from __future__ import annotations

import datetime
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.atproto.cbor import cbor_decode, cbor_encode
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
from repro.atproto.repo import RepoError
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
    # For an aware datetime, timestamp() is (moment - epoch).total_seconds().
    return int(moment.timestamp() * 1_000_000)


def _text(value) -> str:
    """A text field; one of any other type reads as absent."""
    return value if isinstance(value, str) else ""


def _map(value) -> dict:
    return value if isinstance(value, dict) else {}


def _first_lang(langs) -> Optional[str]:
    return langs[0] if isinstance(langs, list) and langs and isinstance(langs[0], str) else None


# Per collection, the row fields after createdAt, read from a decoded
# record in the order ``_ingest`` takes them.
_FIELDS = {
    POST: lambda r: [_first_lang(r.get("langs")), "images" in _map(r.get("embed"))],
    LIKE: lambda r: [_text(_map(r.get("subject")).get("uri"))],
    REPOST: lambda r: [_text(_map(r.get("subject")).get("uri"))],
    FOLLOW: lambda r: [_text(r.get("subject"))],
    BLOCK: lambda r: [_text(r.get("subject"))],
    FEED_GENERATOR: lambda r: [_text(r.get(k)) for k in ("did", "displayName", "description")],
    LABELER_SERVICE: lambda r: [],
    PROFILE: lambda r: [_text(r.get("displayName"))],
}

# A layout is the canonical encoding of a record whose texts are
# placeholders: ``chr(i)`` for row field ``i`` (createdAt is field 0), or
# ``_SKIP`` for a text that is checked but not kept.  It splits into the
# fixed piece before each placeholder, and a tail.
_SKIP = "\x0f"
_PLACEHOLDER = re.compile(rb"\x61([\x00-\x0f])")


def _layout(nsid: str, *fields, **template) -> tuple:
    """The layout of an ``nsid`` record with a createdAt and ``template``'s
    fields: ``((piece, field index or None), ...)``, the tail, and the row
    fields as they stand where no placeholder sets them."""
    record = {"$type": nsid, "createdAt": "\x00", **template}
    parts = _PLACEHOLDER.split(cbor_encode(record))
    slots = [None if slot == _SKIP.encode() else slot[0] for slot in parts[1::2]]
    return tuple(zip(parts[0:-1:2], slots)), parts[-1], list(fields)


# The record layouts the simulation writes, per collection.
_IMAGES = {"images": [{"alt": _SKIP}]}
_LAYOUTS = {
    POST: (
        _layout(POST, "", None, False, text=_SKIP, langs=["\x01"]),
        _layout(POST, "", None, False, text=_SKIP),
        _layout(POST, "", None, True, text=_SKIP, langs=["\x01"], embed=_IMAGES),
    ),
    LIKE: (_layout(LIKE, "", "", subject={"uri": "\x01", "cid": _SKIP}),),
    REPOST: (_layout(REPOST, "", "", subject={"uri": "\x01", "cid": _SKIP}),),
    FOLLOW: (_layout(FOLLOW, "", "", subject="\x01"),),
    BLOCK: (_layout(BLOCK, "", "", subject="\x01"),),
    PROFILE: (_layout(PROFILE, "", "", displayName="\x01", description=_SKIP),),
}


def _read_layout(block: bytes, layout: tuple) -> Optional[list]:
    """The row fields of a record block in ``layout``, read in place, or
    None when the block departs from it anywhere.  Only shortest-form
    heads of texts under 256 bytes are read, every text must be UTF-8 and
    the block must end with the tail, so ``cbor_decode`` reads any block
    this reads, to the same texts."""
    pieces, tail, fields = layout
    fields = fields.copy()
    pos = 0
    try:
        for piece, slot in pieces:
            if not block.startswith(piece, pos):
                return None
            pos += len(piece)
            size = block[pos] - 0x60  # a text head: 0x60 + size, or 0x78 + 1-byte size
            if 0 <= size < 24:
                pos += 1
            elif size == 24 and block[pos + 1] >= 24:
                size = block[pos + 1]
                pos += 2
            else:
                return None
            text = block[pos : pos + size].decode("utf-8")
            pos += size
            if slot is not None:
                fields[slot] = text
    except (IndexError, UnicodeDecodeError):
        return None
    return fields if pos + len(tail) == len(block) and block.endswith(tail) else None


def _record_fields(collection: str, path: str, block: bytes) -> Optional[list]:
    """The row fields of the record block at ``path`` in ``collection``
    (None for a collection without rows): read in place in a layout, else
    through ``cbor_decode``."""
    for layout in _LAYOUTS.get(collection, ()):
        fields = _read_layout(block, layout)
        if fields is not None:
            return fields
    record = cbor_decode(block)
    if record.__class__ is not dict:
        raise RepoError("record %s is not a map" % path)
    fields = _FIELDS.get(collection)
    return None if fields is None else [_text(record.get("createdAt")), *fields(record)]


_SUBJECT_ROWS = {LIKE: "likes", FOLLOW: "follows", REPOST: "reposts", BLOCK: "blocks"}


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
        records: list[tuple[str, str, Optional[list]]] = []

        def read_record(path: str, block: bytes) -> None:
            collection, _, rkey = path.partition("/")
            records.append((collection, rkey, _record_fields(collection, path, block)))

        snapshot = self.integrity.verify_repo_car(
            host, did, car, verify_key=verify_key, read_record=read_record
        )
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
        for collection, rkey, fields in records:
            self._ingest(did, collection, rkey, fields)
        data.records_per_repo[did] = len(records)

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

    def _ingest(self, did: str, collection: str, rkey: str, fields: Optional[list]) -> None:
        """One record's row fields (see ``_record_fields``) into the dataset."""
        data = self.dataset
        if fields is None:
            data.other_collections[collection] += 1
            return
        created, *rest = fields
        created_us = parse_created_at_us(created)
        if collection in _SUBJECT_ROWS:
            getattr(data, _SUBJECT_ROWS[collection]).append(SubjectRow(did, created_us, *rest))
        elif collection == POST:
            year = int(created[:4]) if created[:4].isdigit() else 0
            data.posts.append(PostRow(did, rkey, created_us, year, *rest))
        elif collection == FEED_GENERATOR:
            data.feed_generators.append(FeedGenRow(did, rkey, created_us, *rest))
        elif collection == LABELER_SERVICE:
            data.labeler_services.append((did, created_us))
        elif collection == PROFILE:
            data.profiles[did] = rest[0]
