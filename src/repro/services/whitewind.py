"""An alternative AppView: WhiteWind long-form blogging.

Section 4 of the paper observes records on the firehose that Bluesky
cannot decode — most prominently ``com.whtwnd.blog.entry``, the record
type of the WhiteWind blogging application, which reuses the Bluesky
infrastructure (PDS storage, the Relay's firehose) with its own AppView
and frontend.  This module implements that AppView: it consumes the same
firehose, ignores everything except WhiteWind entries, and serves blog
listings — demonstrating the AT Protocol's application-neutral base layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.atproto.events import CommitEvent, FirehoseEvent
from repro.atproto.lexicon import WHTWND_ENTRY
from repro.services.relay import Relay
from repro.services.xrpc import XrpcService


@dataclass
class BlogEntryView:
    uri: str
    author: str
    title: str
    content: str
    time_us: int
    visibility: str = "public"


class WhiteWindAppView(XrpcService):
    """Indexes ``com.whtwnd.blog.entry`` records from the shared firehose."""

    def __init__(self, url: str = "https://whtwnd.example"):
        self.url = url.rstrip("/")
        self._entries: dict[str, BlogEntryView] = {}

    def attach(self, relay: Relay) -> None:
        relay.firehose.subscribe(self.consume_event)

    def consume_event(self, event: FirehoseEvent) -> None:
        if not isinstance(event, CommitEvent):
            return
        for op in event.ops:
            if op.collection != WHTWND_ENTRY:
                continue
            uri = "at://%s/%s" % (event.did, op.path)
            if op.action == "delete":
                self._entries.pop(uri, None)
                continue
            record = op.record or {}
            self._entries[uri] = BlogEntryView(
                uri=uri,
                author=event.did,
                title=record.get("title", ""),
                content=record.get("content", ""),
                time_us=event.time_us,
                visibility=record.get("visibility", "public"),
            )

    # -- public API -------------------------------------------------------------

    def xrpc_listEntries(
        self, author: Optional[str] = None, limit: int = 50
    ) -> dict:
        entries = [
            e
            for e in self._entries.values()
            if (author is None or e.author == author) and e.visibility == "public"
        ]
        entries.sort(key=lambda e: -e.time_us)
        return {
            "entries": [
                {"uri": e.uri, "author": e.author, "title": e.title} for e in entries[:limit]
            ]
        }
