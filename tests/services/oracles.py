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

    def hydrate_page(self, uris, limit: int) -> list:
        """The first ``limit`` live posts of ``uris``, one uncached
        :meth:`hydrate_post` each."""
        page = []
        for uri in uris:
            post = self.hydrate_post(uri)
            if post is not None:
                page.append({"post": post})
                if len(page) >= limit:
                    break
        return page

    def xrpc_getTimeline(self, actor: str, limit: int = 50) -> dict:
        """Scan every live post of every followed author, order them all by
        ``(-time_us, uri)`` and cut at ``limit``.  Taken-down posts are
        filtered before the cut (a taken-down post must not push a live one
        out of the window), and the candidates form a set that is sorted
        whole, so neither insertion nor hash order can reach the result."""
        appview = self.appview
        posts = appview.index.posts
        candidates = {
            (-posts[uri].time_us, uri)
            for did in appview.index.following.get(actor, ())
            for uri in appview.index.posts_by_author.get(did, ())
            if uri in posts and uri not in appview._takedowns
        }
        feed = []
        for _neg_time_us, uri in sorted(candidates)[: max(limit, 0)]:
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
            self.hydrate_page, appview.feed_endpoint(feed), feed, limit, cursor, viewer, now_us
        )
