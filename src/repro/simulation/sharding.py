"""Deterministic sharding primitives for the simulation engine.

The population is partitioned into ``config.sim_shards`` *logical* shards
(user → shard via :func:`shard_of`, matching the PDS assignment rule).
The shard count is a property of the configuration: every shard has its
own event stream, and the streams are merged with one fixed rule, so the
artefacts do not depend on the order in which the shards run.

Three pieces live here:

* **Seed derivation** (:func:`derive_seed`) — every RNG stream the engine
  consumes is keyed by ``sha256(seed | label [| shard])``, so shard
  streams are independent of each other and of the global
  streams (schedules, signup decisions, lifecycle jitter).
* **Day batches** (:class:`DayBatch`, :func:`merged_items`) — the items a
  shard produces in one simulated day, merged across shards with the
  deterministic sequencing rule ``(virtual time, shard id, intra-shard
  order)`` before the relay assigns firehose sequence numbers.
* **The recent-post pool** (:class:`RecentPostPool`) — the cross-shard
  exchange state behind ``_pick_post``.  Its eviction rule is explicit:
  bounded FIFO, oldest-first, where "oldest" means application order and
  application order is the merged order above.  Same-day posts from other
  shards become visible at the next day barrier; a shard sees its own
  same-day posts through a local overlay (see ``ShardEngine``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

# Recent-post pool bounds.
RECENT_POOL_MAXLEN = 4000
POPULAR_POOL_MAXLEN = 500

# Day-batch item kinds.
K_COMMIT = 0  # a repo commit to publish on the relay firehose
K_POST = 1  # a created post entering the cross-shard pools + feed routing
K_LABEL = 2  # a label emission (or negation) by a labeler service
K_VIEWER_LIKE = 3  # a viewer's recent-like entry (personalized feeds)


def derive_seed(seed: int, label: str, shard: Optional[int] = None) -> int:
    """A 64-bit stream seed derived from the run seed and a stream label.

    Documented scheme (EXPERIMENTS.md "Sharded simulation"): the first 8
    bytes of ``sha256("repro-shard|<seed>|<label>[|<shard>]")``, big
    endian.  SHA-256 keeps streams independent for *any* seed/label pair
    — XOR-style mixing can collide across nearby seeds.
    """
    text = "repro-shard|%d|%s" % (seed, label)
    if shard is not None:
        text += "|%d" % shard
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def shard_of(user_index: int, n_shards: int) -> int:
    """The logical shard owning a user (same rule as PDS assignment)."""
    return user_index % n_shards


@dataclass
class RecentPost:
    """A pool entry: enough of a post to like/repost it from any shard."""

    uri: str
    cid: str
    author_did: str
    time_us: int
    popular: bool = False


class RecentPostPool:
    """Bounded FIFO pool with an explicit, documented eviction rule.

    **Eviction rule**: when the pool holds ``maxlen`` entries, appending
    evicts the single oldest entry, where age is *application order* —
    the order entries were appended, which for a sharded run is the
    deterministic merged order ``(time_us, shard id, intra-shard seq)``
    applied at the day barrier.  Index 0 is always the oldest surviving
    entry; indexes are stable between barriers, so a uniform
    ``rng.randrange(len(pool))`` draw selects the same post whatever
    order the shards ran in.

    Implemented as a ring buffer: O(1) append *and* O(1) random access
    (the previous ``collections.deque`` gave O(n) indexing, which the
    like/repost hot path pays on every draw).
    """

    __slots__ = ("maxlen", "_ring", "_start")

    def __init__(self, maxlen: int):
        if maxlen <= 0:
            raise ValueError("pool maxlen must be positive")
        self.maxlen = maxlen
        self._ring: list[RecentPost] = []
        self._start = 0

    def append(self, post: RecentPost) -> None:
        if len(self._ring) < self.maxlen:
            self._ring.append(post)
        else:
            # Full: overwrite the oldest slot and advance the ring origin.
            self._ring[self._start] = post
            self._start = (self._start + 1) % self.maxlen

    def __len__(self) -> int:
        return len(self._ring)

    def __bool__(self) -> bool:
        return bool(self._ring)

    def __getitem__(self, index: int) -> RecentPost:
        """``pool[0]`` is the oldest entry, ``pool[len-1]`` the newest."""
        ring = self._ring
        if len(ring) < self.maxlen:
            return ring[index]
        if not 0 <= index < len(ring):
            raise IndexError(index)
        return ring[(self._start + index) % self.maxlen]

@dataclass
class DayBatch:
    """Everything one shard produced in one simulated day.

    ``items`` is a list of ``(time_us, kind, payload)`` tuples in
    generation order; the list index is the intra-shard sequence number
    used by the merge rule.
    """

    shard_id: int
    items: list = field(default_factory=list)
    gen_wall_us: float = 0.0  # generation wall time, for shard.day spans


def merged_items(batches: Iterable[DayBatch]) -> list:
    """Merge day batches with the deterministic sequencing rule.

    Returns ``(time_us, shard_id, intra_shard_seq, item)`` tuples sorted
    by exactly that triple.  The shard layout is fixed by configuration,
    so the merged order — and therefore every relay sequence number —
    is independent of the order the batches were produced in.
    """
    keyed = []
    for batch in batches:
        shard_id = batch.shard_id
        for index, item in enumerate(batch.items):
            keyed.append((item[0], shard_id, index, item))
    keyed.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    return keyed


def digest_batch(hasher, batch: DayBatch) -> None:
    """Fold a batch's deterministic content into a running shard digest.

    Used for the per-shard checkpoint segments: a resumed run re-derives
    the same digests day by day, and the pipeline verifies them against
    the journal, proving the resumed simulation is byte-identical to the
    one the checkpoint was taken from.  Wall times are excluded.
    """
    update = hasher.update
    for time_us, kind, payload in batch.items:
        if kind == K_COMMIT:
            did, meta, counts = payload
            update(
                b"c|%d|%s|%s|%s|%d\n"
                % (time_us, did.encode(), meta.rev.encode(), str(meta.commit_cid).encode(), counts)
            )
        elif kind == K_POST:
            post, _features = payload
            update(b"p|%d|%s|%d\n" % (time_us, post.uri.encode(), post.popular))
        elif kind == K_LABEL:
            labeler_index, uri, value, cts_us, neg = payload
            update(
                b"l|%d|%d|%s|%s|%d|%d\n"
                % (time_us, labeler_index, uri.encode(), value.encode(), cts_us, neg)
            )
        elif kind == K_VIEWER_LIKE:
            did, uri, like_us = payload
            update(b"v|%d|%s|%s\n" % (like_us, did.encode(), uri.encode()))
