"""Reference reads the AppView's indexed, cached read path is checked against.

``ReferenceReads`` answers the AppView's reads the obvious way, by
scanning its indexes.  The read-path tests compare the AppView against
it byte for byte, and ``benchmarks/perf.py`` times it as the uncached
side of the read-path gate.  Only tests and benchmarks use it.
"""

from typing import Optional

from repro.services.appview import search_hit


class ReferenceReads:
    """The AppView's reads served the obvious way, over its own indexes.

    getTimeline scans every followed author instead of walking the
    timeline index; no read touches a cache, counter or span.
    """

    def __init__(self, appview):
        self.appview = appview

    def hydrate_post(self, uri: str) -> Optional[dict]:
        if uri in self.appview._takedowns:
            return None
        return self.appview.render_post(uri)

    def xrpc_getTimeline(self, actor: str, limit: int = 50) -> dict:
        """Scan every followed author.  Live posts are filtered *before*
        the per-author ``[-limit:]`` cut (a taken-down post must not push
        a live one out of the window) and authors are visited in sorted
        order so ties resolve identically under any hash seed."""
        appview = self.appview
        followed = appview.index.following.get(actor, set())
        posts = appview.index.posts
        candidates: list = []
        for did in sorted(followed):
            live = [
                uri
                for uri in appview.index.posts_by_author.get(did, ())
                if uri in posts and uri not in appview._takedowns
            ]
            for uri in live[-limit:]:
                candidates.append((-posts[uri].time_us, uri))
        candidates.sort()
        feed = []
        for _neg_time_us, uri in candidates[:limit]:
            post = self.hydrate_post(uri)
            if post is not None:
                feed.append({"post": post})
        return {"feed": feed}

    def xrpc_getProfile(self, actor: str) -> dict:
        return self.appview.render_profile(actor)

    def xrpc_searchPosts(self, q: str, limit: int = 25) -> dict:
        posts = []
        for uri in self.appview.search_matches(q) or ():
            post = self.hydrate_post(uri)
            if post is None:
                continue  # taken down
            posts.append(search_hit(post))
            if len(posts) >= limit:
                break
        return {"posts": posts}

    def xrpc_getFeed(self, feed, limit=50, cursor=None, viewer=None, now_us=0) -> dict:
        appview = self.appview
        return appview.fill_feed_page(
            self.hydrate_post, appview.feed_endpoint(feed), feed, limit, cursor, viewer, now_us
        )
