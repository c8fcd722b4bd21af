"""Feed Generators — the content-recommendation services of Section 7.

A Feed Generator is announced by an ``app.bsky.feed.generator`` record in
its creator's repo pointing at a hosting service DID; the service exposes
``app.bsky.feed.getFeedSkeleton`` returning post URIs.  This module
implements:

* :class:`FeedRule` — the declarative selection rules feed builders offer
  (inputs: whole network / keywords / specific users / lists; filters:
  language, regular expressions, label exclusion, media requirements),
* :class:`CuratedFeed` — a materialised feed with a retention policy
  (the paper finds feeds retain 1–7 days or the last N posts, which is why
  its crawl cannot see far into the past),
* :class:`PersonalizedFeed` — viewer-dependent feeds ("the-algorithm",
  "whats-hot") that return *nothing* to the logged-out crawler,
* :class:`FeedGeneratorHost` — one endpoint hosting many feeds,
* :class:`FeedRouter` — the firehose consumer routing posts into feeds via
  keyword/language/author indexes.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.metrics import read_cache_counters
from repro.obs.telemetry import Telemetry
from repro.services.xrpc import XrpcError, XrpcService

_TOKEN_RE = re.compile(r"[a-z0-9#][a-z0-9'-]*")


def tokenize(text: str) -> set[str]:
    """Lowercase word tokens of a post, hashtags preserved."""
    return set(_TOKEN_RE.findall(text.lower()))


class FeedError(Exception):
    """Raised on invalid feed definitions or operations."""


@dataclass(frozen=True)
class FeedRule:
    """Selection rule for a curated feed."""

    whole_network: bool = False
    keywords: frozenset = frozenset()  # match any token
    authors: frozenset = frozenset()  # match posts by these DIDs
    languages: frozenset = frozenset()  # if set, post must declare one of these
    regex: Optional[str] = None  # if set, must match the post text
    exclude_label_values: frozenset = frozenset()
    require_media: bool = False
    # True when `authors` came from a curation list (the Table 5 "List"
    # input, a distinct platform capability from "Single user").
    from_list: bool = False

    def __post_init__(self):
        if self.regex is not None:
            try:
                re.compile(self.regex)
            except re.error as exc:
                raise FeedError("invalid feed regex %r: %s" % (self.regex, exc)) from exc
        if not (self.whole_network or self.keywords or self.authors or self.languages):
            raise FeedError("feed rule selects nothing: give it a source")

    def compiled_regex(self):
        return re.compile(self.regex) if self.regex is not None else None


@dataclass(frozen=True)
class PostFeatures:
    """The per-post features the router matches rules against."""

    uri: str
    author: str
    time_us: int
    text: str
    langs: tuple[str, ...]
    tokens: frozenset
    has_media: bool = False
    labels: frozenset = frozenset()


@dataclass
class RetentionPolicy:
    """How much history a feed serves (paper: 1–7 days or last-N posts)."""

    max_age_us: Optional[int] = None
    max_count: Optional[int] = None

    @classmethod
    def unlimited(cls) -> "RetentionPolicy":
        return cls()

    @classmethod
    def days(cls, n: float) -> "RetentionPolicy":
        return cls(max_age_us=int(n * 24 * 3600 * 1_000_000))

    @classmethod
    def last(cls, n: int) -> "RetentionPolicy":
        return cls(max_count=n)


class Feed:
    """Base feed: skeleton pagination over whatever entries() yields."""

    def __init__(self, uri: str):
        self.uri = uri
        # (now_us, token, entries): the materialised newest-first entry
        # list, valid for one (crawl instant, ingest version) pair.  A
        # paginated sweep shares one ``now_us`` across its pages, so every
        # page after the first reuses the list; the next day's sweep (new
        # ``now_us``) and any ingest (new token) invalidate it — the
        # day-barrier invalidation rule.
        self._entries_cache: Optional[tuple] = None
        # "hit" / "miss" after a cached skeleton call, None when the feed
        # is uncacheable (viewer-dependent); hosts read this to count.
        self.last_cache_outcome: Optional[str] = None

    def entries(self, viewer: Optional[str], now_us: int) -> list[tuple[str, int]]:
        raise NotImplementedError

    def _cache_token(self, viewer: Optional[str]):
        """Ingest-version token for the entry cache; None disables caching
        (the default — viewer-dependent feeds must not share entries)."""
        return None

    def _cached_entries(self, viewer: Optional[str], now_us: int) -> list[tuple[str, int]]:
        token = self._cache_token(viewer)
        if token is None:
            self.last_cache_outcome = None
            return self.entries(viewer, now_us)
        cached = self._entries_cache
        if cached is not None and cached[0] == now_us and cached[1] == token:
            self.last_cache_outcome = "hit"
            return cached[2]
        self.last_cache_outcome = "miss"
        entries = self.entries(viewer, now_us)
        self._entries_cache = (now_us, token, entries)
        return entries

    def skeleton(
        self,
        viewer: Optional[str],
        now_us: int,
        limit: int = 50,
        cursor: Optional[str] = None,
    ) -> dict:
        entries = self._cached_entries(viewer, now_us)  # newest first
        start = 0
        if cursor is not None:
            cut = int(cursor)
            while start < len(entries) and entries[start][1] >= cut:
                start += 1
        page = entries[start : start + limit]
        next_cursor = str(page[-1][1]) if len(page) == limit else None
        return {"feed": [{"post": uri} for uri, _ in page], "cursor": next_cursor}


class CuratedFeed(Feed):
    """A feed materialised from the firehose by a :class:`FeedRule`."""

    def __init__(self, uri: str, rule: FeedRule, retention: Optional[RetentionPolicy] = None):
        super().__init__(uri)
        self.rule = rule
        self.retention = retention if retention is not None else RetentionPolicy.unlimited()
        # (uri, time_us) kept sorted by time (oldest first); a parallel
        # time list supports bisection for retention cuts and insertion.
        self._entries: list[tuple[str, int]] = []
        self._times: list[int] = []
        self._regex = rule.compiled_regex()
        self.total_ingested = 0
        # If set, the feed stops curating after this time (operator walked
        # away — the paper finds 21.8% of feeds inactive in the last month).
        self.stop_ingest_after_us: Optional[int] = None

    def matches(self, post: PostFeatures) -> bool:
        rule = self.rule
        selected = (
            rule.whole_network
            or (rule.keywords and not rule.keywords.isdisjoint(post.tokens))
            or (rule.authors and post.author in rule.authors)
            or (not rule.keywords and not rule.authors and rule.languages)
        )
        if not selected:
            return False
        if rule.languages and rule.languages.isdisjoint(post.langs):
            return False
        if self._regex is not None and not self._regex.search(post.text):
            return False
        if rule.require_media and not post.has_media:
            return False
        if rule.exclude_label_values and not rule.exclude_label_values.isdisjoint(post.labels):
            return False
        return True

    def ingest(self, post: PostFeatures) -> None:
        if self.stop_ingest_after_us is not None and post.time_us > self.stop_ingest_after_us:
            return
        # Keep time order even when the firehose delivers slightly out of
        # order — skeleton cursors are timestamps and need a sorted feed.
        position = bisect_right(self._times, post.time_us)
        self._times.insert(position, post.time_us)
        self._entries.insert(position, (post.uri, post.time_us))
        self.total_ingested += 1
        if self.retention.max_count is not None and len(self._entries) > self.retention.max_count:
            excess = len(self._entries) - self.retention.max_count
            del self._entries[:excess]
            del self._times[:excess]

    def entries(self, viewer: Optional[str], now_us: int) -> list[tuple[str, int]]:
        items = self._entries
        if self.retention.max_age_us is not None:
            cutoff = now_us - self.retention.max_age_us
            low = bisect_left(self._times, cutoff)
            items = items[low:]
        return list(reversed(items))

    def _cache_token(self, viewer: Optional[str]):
        # Viewer-independent; any ingest (including retention trims, which
        # only happen on ingest) bumps total_ingested and invalidates.
        return self.total_ingested

    def post_count(self, now_us: int) -> int:
        return len(self.entries(None, now_us))


class PersonalizedFeed(Feed):
    """A viewer-dependent feed.

    Mirrors "the-algorithm" / "whats-hot": content is computed from the
    viewer's own likes/network, so an anonymous or empty crawler account
    receives an empty skeleton — the effect behind the highly-liked,
    zero-post corner of Figure 10.
    """

    def __init__(self, uri: str, per_viewer_source=None):
        super().__init__(uri)
        # viewer did -> list of (uri, time_us); injected by the simulation.
        self._per_viewer = per_viewer_source or (lambda viewer: [])

    def entries(self, viewer: Optional[str], now_us: int) -> list[tuple[str, int]]:
        if viewer is None:
            return []
        return list(reversed(self._per_viewer(viewer)))


class FeedGeneratorHost(XrpcService):
    """One feed-generator service endpoint hosting one or more feeds."""

    def __init__(self, service_did: str, endpoint: str, telemetry=None):
        self.service_did = service_did
        self.endpoint = endpoint.rstrip("/")
        self._feeds: dict[str, Feed] = {}
        self.set_telemetry(telemetry if telemetry is not None else Telemetry())

    def set_telemetry(self, telemetry) -> None:
        """(Re)bind the skeleton-cache counter families and the tracer."""
        self.telemetry = telemetry
        self._m_cache_hits, self._m_cache_misses = read_cache_counters(telemetry.registry)

    def add_feed(self, feed: Feed) -> None:
        if feed.uri in self._feeds:
            raise FeedError("feed %s already hosted here" % feed.uri)
        self._feeds[feed.uri] = feed

    def feeds(self) -> list[Feed]:
        return list(self._feeds.values())

    def feed_count(self) -> int:
        return len(self._feeds)

    def xrpc_getFeedSkeleton(
        self,
        feed: str,
        limit: int = 50,
        cursor: Optional[str] = None,
        viewer: Optional[str] = None,
        now_us: int = 0,
    ) -> dict:
        target = self._feeds.get(feed)
        if target is None:
            raise XrpcError(404, "unknown feed %s" % feed)
        with self.telemetry.tracer.span("read.getFeedSkeleton", cat="read", sample=True):
            skeleton = target.skeleton(viewer, now_us, limit=limit, cursor=cursor)
        if target.last_cache_outcome == "hit":
            self._m_cache_hits.inc(("feed_skeleton",))
        elif target.last_cache_outcome == "miss":
            self._m_cache_misses.inc(("feed_skeleton",))
        return skeleton

    def xrpc_describeFeedGenerator(self) -> dict:
        return {
            "did": self.service_did,
            "feeds": [{"uri": uri} for uri in self._feeds],
        }


class FeedRouter:
    """Routes firehose posts into curated feeds in near-constant time.

    Feeds register under inverted indexes — keyword → feeds, author →
    feeds, language → feeds, plus small whole-network and regex lists —
    so the per-post cost is proportional to the post's token count, not to
    the number of feeds in the network.
    """

    def __init__(self):
        self._by_keyword: dict[str, list[CuratedFeed]] = {}
        self._by_author: dict[str, list[CuratedFeed]] = {}
        self._by_language: dict[str, list[CuratedFeed]] = {}
        self._whole_network: list[CuratedFeed] = []
        self.routed_count = 0

    def register(self, feed: CuratedFeed) -> None:
        rule = feed.rule
        if rule.whole_network:
            self._whole_network.append(feed)
        elif rule.keywords:
            for keyword in rule.keywords:
                self._by_keyword.setdefault(keyword, []).append(feed)
        elif rule.authors:
            for author in rule.authors:
                self._by_author.setdefault(author, []).append(feed)
        elif rule.languages:
            for lang in rule.languages:
                self._by_language.setdefault(lang, []).append(feed)

    def route(self, post: PostFeatures) -> int:
        """Deliver a post to every matching feed; returns delivery count."""
        candidates: dict[int, CuratedFeed] = {}
        for feed in self._whole_network:
            candidates[id(feed)] = feed
        for token in post.tokens:
            for feed in self._by_keyword.get(token, ()):
                candidates[id(feed)] = feed
        for feed in self._by_author.get(post.author, ()):
            candidates[id(feed)] = feed
        for lang in post.langs:
            for feed in self._by_language.get(lang, ()):
                candidates[id(feed)] = feed
        delivered = 0
        for feed in candidates.values():
            if feed.matches(post):
                feed.ingest(post)
                delivered += 1
        self.routed_count += 1
        return delivered
