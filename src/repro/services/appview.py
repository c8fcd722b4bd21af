"""The AppView — the global index behind the Bluesky application.

Consumes the Firehose, stores everything in query-friendly indexes, pulls
labels from every known Labeler, and serves the public API the paper's
Feed-Generator collectors use (``getFeedGenerator`` / ``getFeed``).  There
is exactly one AppView, operated by Bluesky PBC — one of the two
centralised choke points the discussion section calls out (the other being
the Relay).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from repro.atproto.events import CommitEvent, FirehoseEvent, HandleEvent, TombstoneEvent
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
from repro.identity.resolver import DidResolver
from repro.obs.metrics import read_cache_counters
from repro.obs.telemetry import Telemetry
from repro.services.labeler import Label, LabelerService
from repro.services.relay import Relay
from repro.services.xrpc import ServiceDirectory, XrpcError, XrpcService


@dataclass
class PostView:
    """Indexed representation of one post."""

    uri: str
    author: str
    time_us: int
    text: str
    langs: tuple[str, ...]
    created_at: str
    has_media: bool = False
    reply_to: Optional[str] = None


@dataclass
class FeedGeneratorInfo:
    """Indexed representation of one app.bsky.feed.generator record."""

    uri: str
    creator: str
    service_did: str
    display_name: str
    description: str
    created_at: str
    time_us: int = 0


@dataclass
class _Indexes:
    posts: dict[str, PostView] = field(default_factory=dict)
    like_counts: Counter = field(default_factory=Counter)
    repost_counts: Counter = field(default_factory=Counter)
    follower_counts: Counter = field(default_factory=Counter)
    following_counts: Counter = field(default_factory=Counter)
    block_counts: Counter = field(default_factory=Counter)
    like_subject_by_path: dict[str, str] = field(default_factory=dict)
    repost_subject_by_path: dict[str, str] = field(default_factory=dict)
    follow_subject_by_path: dict[str, str] = field(default_factory=dict)
    following: dict[str, set] = field(default_factory=dict)  # did -> followed dids
    posts_by_author: dict[str, list] = field(default_factory=dict)  # did -> [uri]
    profiles: dict[str, dict] = field(default_factory=dict)
    feed_generators: dict[str, FeedGeneratorInfo] = field(default_factory=dict)
    labeler_services: dict[str, dict] = field(default_factory=dict)
    handles: dict[str, str] = field(default_factory=dict)
    # token -> post uris, for app.bsky.feed.searchPosts
    search_index: dict[str, list] = field(default_factory=dict)
    # list uri -> member dids (app.bsky.graph.list / listitem)
    list_members: dict[str, set] = field(default_factory=dict)
    non_bsky_records: int = 0


def search_hit(post: dict) -> dict:
    """One searchPosts result item from a hydrated post view."""
    return {
        "uri": post["uri"],
        "author": post["author"],
        "text": post["record"]["text"],
        "likeCount": post["likeCount"],
    }


def _uri_author(uri: str) -> str:
    """The author did of an ``at://<did>/<collection>/<rkey>`` uri."""
    return uri[5:].split("/", 1)[0]


class AppView(XrpcService):
    """The single global AppView."""

    def __init__(
        self,
        url: str,
        resolver: DidResolver,
        services: ServiceDirectory,
        official_labeler_did: Optional[str] = None,
        index_search: bool = False,
        telemetry=None,
    ):
        self.url = url.rstrip("/")
        self.resolver = resolver
        self.services = services
        self.official_labeler_did = official_labeler_did
        self.index_search = index_search
        self.index = _Indexes()
        self._labelers: dict[str, LabelerService] = {}
        self._label_cursors: dict[str, int] = {}
        self._labels_by_subject: dict[str, list[Label]] = {}
        self._takedowns: set[str] = set()
        self.events_consumed = 0
        # -- read-path state ---------------------------------------------------
        # Responses are byte-identical to the uncached scan reads of
        # ``tests/services/oracles.ReferenceReads`` (the reference the
        # read-path tests compare against).
        # author did -> follower dids (insertion-ordered set; event order
        # is deterministic, so iteration is too).
        self._tl_followers: dict[str, dict[str, None]] = {}
        # follower did -> [(time_us, uri)] sorted ascending; the timeline
        # index getTimeline slices its page from instead of scanning authors.
        self._timelines: dict[str, list] = {}
        # uri -> feed item {"post": hydrated post view}; actor did -> profile
        # view.  Explicitly invalidated on like/repost/label/takedown/delete
        # (posts) and on profile/follow/handle/tombstone events (profiles).
        self._post_views: dict[str, dict] = {}
        self._profile_views: dict[str, dict] = {}
        # (q, limit) -> full searchPosts response.  Valid only while no
        # event or label arrives: any ingest clears it wholesale (reads
        # happen between ingest batches, so a crawl sweep repeating a
        # query hits; correctness never depends on finer invalidation).
        self._search_pages: dict[tuple, dict] = {}
        self.set_telemetry(telemetry if telemetry is not None else Telemetry())

    def set_telemetry(self, telemetry) -> None:
        """(Re)bind the read-cache counter families and the tracer."""
        self.telemetry = telemetry
        self._m_cache_hits, self._m_cache_misses = read_cache_counters(telemetry.registry)

    def flush_read_caches(self) -> None:
        """Drop hydrated-view cache contents.

        Called by the pipeline at every journal boundary so cache warmth
        never crosses an action: hit/miss totals after a crash/resume
        equal an uninterrupted run's.  The timeline index is *not* a
        cache (it is maintained at ingest, never repopulated at read
        time) and survives the flush."""
        self._post_views.clear()
        self._profile_views.clear()
        self._search_pages.clear()

    # -- firehose ingestion ---------------------------------------------------

    def attach(self, relay: Relay) -> None:
        """Subscribe to the relay's firehose for live indexing."""
        relay.firehose.subscribe(self.consume_event)

    def consume_event(self, event: FirehoseEvent) -> None:
        self.events_consumed += 1
        if self._search_pages:
            self._search_pages.clear()
        if isinstance(event, CommitEvent):
            for op in event.ops:
                self._consume_op(event.did, event.time_us, op)
        elif isinstance(event, HandleEvent):
            self.index.handles[event.did] = event.handle
            self._profile_views.pop(event.did, None)
        elif isinstance(event, TombstoneEvent):
            self._remove_account(event.did)

    def _consume_op(self, did: str, time_us: int, op) -> None:
        collection = op.collection
        uri = "at://%s/%s" % (did, op.path)
        if op.action == "delete":
            self._consume_delete(did, uri, collection, op.path)
            return
        record = op.record or {}
        if collection == POST:
            embed = record.get("embed") or {}
            self.index.posts[uri] = PostView(
                uri=uri,
                author=did,
                time_us=time_us,
                text=record.get("text", ""),
                langs=tuple(record.get("langs") or ()),
                created_at=record.get("createdAt", ""),
                has_media="images" in embed or "video" in embed,
                reply_to=(record.get("reply") or {}).get("parent", {}).get("uri"),
            )
            self.index.posts_by_author.setdefault(did, []).append(uri)
            # Fan-out-on-write: deliver the post into every follower's
            # timeline index at ingest time.
            entry = (time_us, uri)
            for follower in self._tl_followers.get(did, ()):
                timeline = self._timelines.setdefault(follower, [])
                if not timeline or timeline[-1] <= entry:
                    timeline.append(entry)  # common case: in order
                else:
                    insort(timeline, entry)
            if self.index_search:
                from repro.services.feedgen import tokenize

                for token in tokenize(record.get("text", "")):
                    self.index.search_index.setdefault(token, []).append(uri)
        elif collection == LIKE:
            subject = (record.get("subject") or {}).get("uri")
            if subject:
                self.index.like_counts[subject] += 1
                self.index.like_subject_by_path[did + "|" + op.path] = subject
                self._post_views.pop(subject, None)  # likeCount changed
        elif collection == REPOST:
            subject = (record.get("subject") or {}).get("uri")
            if subject:
                self.index.repost_counts[subject] += 1
                self.index.repost_subject_by_path[did + "|" + op.path] = subject
                self._post_views.pop(subject, None)  # repostCount changed
        elif collection == FOLLOW:
            subject = record.get("subject")
            if subject:
                self.index.follower_counts[subject] += 1
                self.index.following_counts[did] += 1
                self.index.follow_subject_by_path[did + "|" + op.path] = subject
                self.index.following.setdefault(did, set()).add(subject)
                self._profile_views.pop(did, None)
                self._profile_views.pop(subject, None)
                followers = self._tl_followers.setdefault(subject, {})
                if did not in followers:
                    followers[did] = None
                    self._merge_author_timeline(did, subject)
        elif collection == BLOCK:
            subject = record.get("subject")
            if subject:
                self.index.block_counts[subject] += 1
        elif collection == PROFILE:
            self.index.profiles[did] = record
            self._profile_views.pop(did, None)
        elif collection == "app.bsky.graph.listitem":
            list_uri = record.get("list")
            member = record.get("subject")
            if list_uri and member:
                self.index.list_members.setdefault(list_uri, set()).add(member)
        elif collection == FEED_GENERATOR:
            self.index.feed_generators[uri] = FeedGeneratorInfo(
                uri=uri,
                creator=did,
                service_did=record.get("did", ""),
                display_name=record.get("displayName", ""),
                description=record.get("description", ""),
                created_at=record.get("createdAt", ""),
                time_us=time_us,
            )
        elif collection == LABELER_SERVICE:
            self.index.labeler_services[did] = record
        elif not collection.startswith("app.bsky.") and not collection.startswith("chat.bsky."):
            # Records the Bluesky AppView cannot decode (Section 4,
            # "Non-Bluesky content") — counted, not indexed.
            self.index.non_bsky_records += 1

    def _consume_delete(self, did: str, uri: str, collection: str, path: str) -> None:
        if collection == POST:
            view = self.index.posts.pop(uri, None)
            self._post_views.pop(uri, None)
            if view is not None:
                entry = (view.time_us, uri)
                for follower in self._tl_followers.get(view.author, ()):
                    timeline = self._timelines.get(follower)
                    if timeline:
                        position = bisect_left(timeline, entry)
                        if position < len(timeline) and timeline[position] == entry:
                            del timeline[position]
        elif collection == LIKE:
            subject = self.index.like_subject_by_path.pop(did + "|" + path, None)
            if subject:
                self.index.like_counts[subject] -= 1
                self._post_views.pop(subject, None)  # likeCount changed
        elif collection == REPOST:
            subject = self.index.repost_subject_by_path.pop(did + "|" + path, None)
            if subject:
                self.index.repost_counts[subject] -= 1
                self._post_views.pop(subject, None)  # repostCount changed
        elif collection == FOLLOW:
            subject = self.index.follow_subject_by_path.pop(did + "|" + path, None)
            if subject:
                self.index.follower_counts[subject] -= 1
                self.index.following_counts[did] -= 1
                self.index.following.get(did, set()).discard(subject)
                self._profile_views.pop(did, None)
                self._profile_views.pop(subject, None)
                followers = self._tl_followers.get(subject)
                if followers is not None:
                    followers.pop(did, None)
                self._drop_author_timeline(did, subject)
        elif collection == FEED_GENERATOR:
            self.index.feed_generators.pop(uri, None)
        elif collection == LABELER_SERVICE:
            self.index.labeler_services.pop(did, None)

    def _remove_account(self, did: str) -> None:
        self.index.profiles.pop(did, None)
        self.index.handles.pop(did, None)
        self.index.labeler_services.pop(did, None)
        self._profile_views.pop(did, None)

    # -- timeline index maintenance ---------------------------------------------

    def _merge_author_timeline(self, follower: str, author: str) -> None:
        """A new follow: merge the author's existing live posts into the
        follower's timeline index."""
        posts = self.index.posts
        entries = [
            (posts[uri].time_us, uri)
            for uri in self.index.posts_by_author.get(author, ())
            if uri in posts  # posts_by_author keeps deleted uris; skip them
        ]
        if entries:
            timeline = self._timelines.setdefault(follower, [])
            timeline.extend(entries)
            timeline.sort()

    def _drop_author_timeline(self, follower: str, author: str) -> None:
        """An unfollow: remove the author's posts from the follower's
        timeline index."""
        timeline = self._timelines.get(follower)
        if timeline:
            self._timelines[follower] = [
                entry for entry in timeline if _uri_author(entry[1]) != author
            ]

    # -- label aggregation ---------------------------------------------------------

    def add_labeler(self, labeler: LabelerService) -> None:
        """Start aggregating a labeler's stream (the AppView subscribes to
        *all* known labelers and must store all labels — the scalability
        concern raised in Section 6.1)."""
        self._labelers[labeler.did] = labeler
        self._label_cursors.setdefault(labeler.did, 0)

    def sync_labels(self) -> int:
        """Pull new labels from every registered labeler; returns count."""
        pulled = 0
        for did, labeler in self._labelers.items():
            cursor = self._label_cursors[did]
            for label in labeler.xrpc_subscribeLabels(cursor=cursor):
                self._ingest_label(label)
                cursor = label.seq
                pulled += 1
            self._label_cursors[did] = cursor
        return pulled

    def _ingest_label(self, label: Label) -> None:
        self._labels_by_subject.setdefault(label.uri, []).append(label)
        # Labels (and takedowns, below) are part of the hydrated view.
        self._post_views.pop(label.uri, None)
        if self._search_pages:
            self._search_pages.clear()
        if label.val == "!takedown" and label.src == self.official_labeler_did:
            if label.neg:
                self._takedowns.discard(label.uri)
            else:
                self._takedowns.add(label.uri)

    def labels_for(self, uri: str) -> list[Label]:
        """Currently applied (non-negated) labels for a subject."""
        applied: dict[tuple[str, str], Label] = {}
        for label in self._labels_by_subject.get(uri, ()):
            key = (label.src, label.val)
            if label.neg:
                applied.pop(key, None)
            else:
                applied[key] = label
        return list(applied.values())

    # -- hydration --------------------------------------------------------------

    def _hydrate_page(self, uris: list, limit: int) -> list:
        """The feed items ``{"post": view}`` of the first ``limit`` live
        posts of ``uris``, in order; deleted, never-indexed and taken-down
        posts are skipped.

        Shared by getFeed / getTimeline / searchPosts.  An item is cached
        until an event touching its post (like, repost, label, takedown,
        delete) invalidates the entry, so responses share cached items and
        callers must not mutate them.  A page whose head is all live and
        all cached is read in one ``map``; otherwise each post is taken in
        turn and each miss rendered.  Either way the page's hits are
        counted in one bump, so the counter totals equal one increment per
        hydrated post."""
        views = self._post_views
        takedowns = self._takedowns
        # The loop below takes the first live post even when limit <= 0.
        head = uris[: max(limit, 1)]
        if not takedowns or takedowns.isdisjoint(head):
            try:
                page = list(map(views.__getitem__, head))
            except KeyError:
                pass  # a miss: take the post-by-post path
            else:
                if page:
                    self._m_cache_hits.inc(("post_view",), len(page))
                return page
        page = []
        hits = 0
        for uri in uris:
            if uri in takedowns:
                continue
            item = views.get(uri)
            if item is None:
                post = self.render_post(uri)
                if post is None:
                    continue
                self._m_cache_misses.inc(("post_view",))
                item = views[uri] = {"post": post}
            else:
                hits += 1
            page.append(item)
            if len(page) >= limit:
                break
        if hits:
            self._m_cache_hits.inc(("post_view",), hits)
        return page

    def render_post(self, uri: str) -> Optional[dict]:
        """Build one indexed post's hydrated view from the indexes (no
        cache, no takedown check); None when the post is not indexed."""
        view = self.index.posts.get(uri)
        if view is None:
            return None
        return {
            "uri": view.uri,
            "author": view.author,
            "record": {
                "text": view.text,
                "langs": list(view.langs),
                "createdAt": view.created_at,
            },
            "likeCount": self.index.like_counts.get(uri, 0),
            "repostCount": self.index.repost_counts.get(uri, 0),
            "indexedAt": view.time_us,
            "labels": [{"src": l.src, "val": l.val} for l in self.labels_for(uri)],
        }

    def render_profile(self, actor: str) -> dict:
        """Build one actor's profile view from the indexes (no cache)."""
        profile = self.index.profiles.get(actor, {})
        return {
            "did": actor,
            "handle": self.index.handles.get(actor, ""),
            "displayName": profile.get("displayName", ""),
            "description": profile.get("description", ""),
            "followersCount": self.index.follower_counts.get(actor, 0),
            "followsCount": self.index.following_counts.get(actor, 0),
        }

    # -- public API -------------------------------------------------------------

    def xrpc_getFeedGenerator(self, feed: str) -> dict:
        info = self.index.feed_generators.get(feed)
        if info is None:
            raise XrpcError(404, "unknown feed generator %s" % feed)
        endpoint = self._feedgen_endpoint(info)
        is_online = endpoint is not None and self.services.is_reachable(endpoint)
        is_valid = False
        if is_online:
            description = self.services.try_call(endpoint, "app.bsky.feed.describeFeedGenerator")
            if description is not None:
                is_valid = any(entry["uri"] == feed for entry in description["feeds"])
        return {
            "view": {
                "uri": info.uri,
                "creator": info.creator,
                "did": info.service_did,
                "displayName": info.display_name,
                "description": info.description,
                "likeCount": self.index.like_counts.get(feed, 0),
                "indexedAt": info.created_at,
            },
            "isOnline": is_online,
            "isValid": is_valid,
        }

    def _feedgen_endpoint(self, info: FeedGeneratorInfo) -> Optional[str]:
        doc = self.resolver.resolve(info.service_did)
        if doc is not None:
            service = doc.service("#bsky_fg") or doc.service("#atproto_feedgen")
            if service is not None:
                return service.endpoint
        # Conventional fallback: did:web service DIDs serve from their FQDN.
        if info.service_did.startswith("did:web:"):
            return "https://" + info.service_did[len("did:web:") :]
        return None

    def xrpc_getFeed(
        self,
        feed: str,
        limit: int = 50,
        cursor: Optional[str] = None,
        viewer: Optional[str] = None,
        now_us: int = 0,
    ) -> dict:
        endpoint = self.feed_endpoint(feed)
        with self.telemetry.tracer.span("read.getFeed", cat="read", sample=True):
            return self.fill_feed_page(
                self._hydrate_page, endpoint, feed, limit, cursor, viewer, now_us
            )

    def feed_endpoint(self, feed: str) -> str:
        """The service endpoint hosting ``feed``'s skeleton."""
        info = self.index.feed_generators.get(feed)
        if info is None:
            raise XrpcError(404, "unknown feed generator %s" % feed)
        endpoint = self._feedgen_endpoint(info)
        if endpoint is None:
            raise XrpcError(502, "feed generator has no endpoint")
        return endpoint

    def fill_feed_page(self, hydrate_page, endpoint, feed, limit, cursor, viewer, now_us) -> dict:
        """One getFeed page, each skeleton page hydrated by
        ``hydrate_page(uris, limit)`` (see :meth:`_hydrate_page`).

        Refill: skeleton items can hydrate to nothing (deleted or
        taken-down posts), so keep paging the skeleton until the response
        holds ``limit`` posts or the skeleton runs dry — callers never see
        short pages in takedown-heavy feeds."""
        hydrated: list = []
        page_cursor = cursor
        while len(hydrated) < limit:
            skeleton = self.services.call(
                endpoint,
                "app.bsky.feed.getFeedSkeleton",
                feed=feed,
                limit=limit - len(hydrated),
                cursor=page_cursor,
                viewer=viewer,
                now_us=now_us,
            )
            page = skeleton["feed"]
            page_cursor = skeleton.get("cursor")
            hydrated.extend(hydrate_page([item["post"] for item in page], limit - len(hydrated)))
            if page_cursor is None or not page:
                break
        return {"feed": hydrated, "cursor": page_cursor}

    def xrpc_searchPosts(self, q: str, limit: int = 25) -> dict:
        """Token-based post search (``app.bsky.feed.searchPosts``).

        Requires the AppView to have been built with ``index_search=True``;
        multi-token queries return posts matching every token.
        """
        if not self.index_search:
            raise XrpcError(400, "search indexing is disabled on this AppView")
        with self.telemetry.tracer.span("read.searchPosts", cat="read", sample=True):
            cached = self._search_pages.get((q, limit))
            if cached is not None:
                self._m_cache_hits.inc(("search_page",))
                return cached
            ordered = self.search_matches(q)
            if ordered is None:
                return {"posts": []}
            page = self._hydrate_page(ordered, limit)
            response = {"posts": [search_hit(item["post"]) for item in page]}
            self._m_cache_misses.inc(("search_page",))
            self._search_pages[(q, limit)] = response
            return response

    def search_matches(self, q: str) -> Optional[list]:
        """Uris of indexed posts matching every token of ``q``, most recent
        first, ordered by ``(-time_us, uri)``; None when no post can match.

        The whole match list is ordered before any ``limit`` cut, so
        takedowns (filtered at hydration) never truncate live matches."""
        from repro.services.feedgen import tokenize

        tokens = sorted(tokenize(q))
        if not tokens:
            return None
        candidate_lists = [self.index.search_index.get(token, []) for token in tokens]
        if any(not uris for uris in candidate_lists):
            return None
        result_uris = set(candidate_lists[0])
        for uris in candidate_lists[1:]:
            result_uris &= set(uris)
        posts_index = self.index.posts
        return [
            uri
            for _neg_time_us, uri in sorted(
                (-posts_index[uri].time_us, uri) for uri in result_uris if uri in posts_index
            )
        ]

    def xrpc_getTimeline(self, actor: str, limit: int = 50) -> dict:
        """The reverse-chronological home timeline: the ``limit`` most
        recent live posts of everyone ``actor`` follows, ordered by
        ``(-time_us, uri)`` (the client's default view).

        Served from the per-follower timeline index maintained at ingest;
        ``tests/services/oracles.ReferenceReads.xrpc_getTimeline`` is the
        author-scan reference it must match byte for byte."""
        with self.telemetry.tracer.span("read.getTimeline", cat="read", sample=True):
            self._m_cache_hits.inc(("timeline_index",))
            return {"feed": self._hydrate_page(self._timeline_from_index(actor, limit), limit)}

    def _timeline_from_index(self, actor: str, limit: int) -> list:
        """The uris of the ``limit`` most recent live posts in ``actor``'s
        timeline index, ordered by ``(-time_us, uri)``.

        The index is ascending by ``(time_us, uri)``, so the page is its
        tail: cut ``timeline[-limit:]``, move the cut back to the start of
        the ``time_us`` tie group it falls in, and order the slice with one
        stable descending sort on ``time_us`` (ties keep ascending ``uri``).
        Deleted posts never appear (the index is maintained at ingest);
        takedowns are reversible labels, not index removals, so they are
        filtered here, and when they leave fewer than ``limit`` live posts
        the slice doubles and the cut is made again."""
        timeline = self._timelines.get(actor)
        if not timeline or limit <= 0:
            return []
        takedowns = self._takedowns
        width = limit
        while True:
            start = max(len(timeline) - width, 0)
            if start:
                time_us = timeline[start][0]
                while start and timeline[start - 1][0] == time_us:
                    start -= 1
            entries = timeline[start:]
            entries.sort(key=itemgetter(0), reverse=True)
            live = list(map(itemgetter(1), entries))
            if takedowns and not takedowns.isdisjoint(live):
                live = [uri for uri in live if uri not in takedowns]
            if len(live) >= limit or not start:
                return live[:limit]
            width *= 2

    def xrpc_getProfile(self, actor: str) -> dict:
        with self.telemetry.tracer.span("read.getProfile", cat="read", sample=True):
            cached = self._profile_views.get(actor)
            if cached is not None:
                self._m_cache_hits.inc(("profile_view",))
                return dict(cached)
            self._m_cache_misses.inc(("profile_view",))
            view = self.render_profile(actor)
            self._profile_views[actor] = view
            return dict(view)
