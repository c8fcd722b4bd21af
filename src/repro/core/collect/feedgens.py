"""Feed Generators and Feed Post datasets (Sections 3 and 7).

Compiles the list of all feed generators from repository records plus live
firehose updates, fetches metadata through the AppView's
``getFeedGenerator`` (likes, creator, online/valid flags), and crawls each
feed's posts bi-weekly through ``getFeed`` with an *empty* crawler account
— which is why personalized feeds contribute zero posts (Figure 10).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.faults import DEFAULT_RETRY_POLICY, call_with_retries, retry_jitter_rng
from repro.obs.telemetry import Telemetry
from repro.services.xrpc import ServiceDirectory, XrpcError


@dataclass
class FeedGeneratorMeta:
    uri: str
    creator: str
    service_did: str
    display_name: str
    description: str
    like_count: int
    is_online: bool
    is_valid: bool


@dataclass
class FeedPostObservation:
    """One post observed in one feed crawl."""

    post_uri: str
    author: str
    created_at: str
    like_count: int


@dataclass
class FeedGeneratorDataset:
    discovered: set = field(default_factory=set)  # uris from records
    metadata: dict[str, FeedGeneratorMeta] = field(default_factory=dict)
    no_metadata: set = field(default_factory=set)
    # feed uri -> {post uri -> FeedPostObservation} accumulated over crawls
    feed_posts: dict[str, dict[str, FeedPostObservation]] = field(default_factory=dict)
    crawl_times: list[int] = field(default_factory=list)
    getfeed_failures: set = field(default_factory=set)
    # AppView calls that needed a transient-error retry before answering.
    transient_retries: int = 0

    def discovered_count(self) -> int:
        return len(self.discovered)

    def reachable(self) -> list[FeedGeneratorMeta]:
        """Feeds with metadata marking them online (the paper's 40,398)."""
        return [m for m in self.metadata.values() if m.is_online]

    def posts_for(self, uri: str) -> dict[str, FeedPostObservation]:
        return self.feed_posts.get(uri, {})

    def total_observed_posts(self) -> int:
        return sum(len(posts) for posts in self.feed_posts.values())


class FeedGeneratorCollector:
    """Metadata + bi-weekly getFeed crawler."""

    def __init__(
        self,
        services: ServiceDirectory,
        appview_url: str,
        page_limit: int = 100,
        retry_policy=None,
        integrity=None,
        on_progress=None,
        telemetry=None,
    ):
        self.services = services
        self.appview_url = appview_url
        self.page_limit = page_limit
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self.integrity = integrity
        self.on_progress = on_progress
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.dataset = FeedGeneratorDataset()
        self._retry_counters: Counter = Counter()

    def _call(self, method: str, at_us: int, **params):
        """One retrying AppView call; tracks the dataset's retry count.

        ``at_us`` is the virtual time of the call (kept separate from any
        ``now_us`` *XRPC parameter* the method itself takes).
        """
        before = self._retry_counters["retries"]
        try:
            result, _ = call_with_retries(
                self.services,
                self.appview_url,
                method,
                now_us=at_us,
                policy=self.retry_policy,
                rng=retry_jitter_rng("feedgens:%s" % method, at_us),
                counters=self._retry_counters,
                params=params,
            )
        finally:
            self.dataset.transient_retries += self._retry_counters["retries"] - before
        return result

    def discover(self, uris) -> None:
        self.dataset.discovered.update(uris)

    def fetch_metadata(self, now_us: int) -> None:
        """getFeedGenerator for every discovered feed not yet fetched."""
        with self.telemetry.tracer.span("feedgen-metadata", cat="collector"):
            self._fetch_metadata(now_us)

    def _fetch_metadata(self, now_us: int) -> None:
        for uri in sorted(self.dataset.discovered):
            if uri in self.dataset.metadata or uri in self.dataset.no_metadata:
                continue
            try:
                result = self._call("app.bsky.feed.getFeedGenerator", now_us, feed=uri)
            except XrpcError:
                self.dataset.no_metadata.add(uri)
                continue
            view = result["view"]
            meta = FeedGeneratorMeta(
                uri=uri,
                creator=view["creator"],
                service_did=view["did"],
                display_name=view["displayName"],
                description=view["description"],
                like_count=view["likeCount"],
                is_online=result["isOnline"],
                is_valid=result["isValid"],
            )
            if not meta.is_online:
                # Endpoint never answered: grouped with the paper's
                # "Feed Generators without metadata" exclusions.
                self.dataset.no_metadata.add(uri)
            self.dataset.metadata[uri] = meta

    def crawl_feed_posts(self, now_us: int, max_pages: int = 200) -> int:
        """One getFeed sweep over all online feeds (anonymous viewer)."""
        self.fetch_metadata(now_us)  # pick up feeds discovered since last sweep
        if now_us in self.dataset.crawl_times:
            # Resume: this sweep completed before the checkpoint (the
            # per-feed buckets already dedupe by post URI, but the sweep
            # timestamp must not be double-recorded).
            return 0
        observed = 0
        for meta in self.dataset.reachable():
            cursor: Optional[str] = None
            pages = 0
            bucket = self.dataset.feed_posts.setdefault(meta.uri, {})
            while pages < max_pages:
                try:
                    page = self._call(
                        "app.bsky.feed.getFeed",
                        now_us,
                        feed=meta.uri,
                        limit=self.page_limit,
                        cursor=cursor,
                        viewer=None,  # the paper's "empty" crawl accounts
                        now_us=now_us,
                    )
                except XrpcError:
                    self.dataset.getfeed_failures.add(meta.uri)
                    break
                for item in page["feed"]:
                    post = item["post"]
                    if self.integrity is not None and not self.integrity.check_record_uri(
                        meta.service_did or self.appview_url, post["uri"]
                    ):
                        continue  # quarantined: not a well-formed at:// URI
                    if post["uri"] not in bucket:
                        observed += 1
                        bucket[post["uri"]] = FeedPostObservation(
                            post_uri=post["uri"],
                            author=post["author"],
                            created_at=post["record"]["createdAt"],
                            like_count=post["likeCount"],
                        )
                cursor = page.get("cursor")
                pages += 1
                if cursor is None:
                    break
            if self.on_progress is not None:
                self.on_progress("feed:%s:%d" % (meta.uri, now_us))
        # Recorded only once the sweep completes: a checkpoint taken
        # mid-sweep must make the resumed run redo the whole sweep (the
        # buckets dedupe), not skip its unfinished remainder.
        self.dataset.crawl_times.append(now_us)
        return observed
