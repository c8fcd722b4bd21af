"""The generative timeline engine, sharded across logical partitions.

Runs the world day by day from launch (November 2022) to the end of the
measurement window (May 2024): signups, daily sessions (posts / likes /
reposts / follows / blocks), feed creation, labeler startups and label
emission, handle changes, tombstones, and identity-churn noise — all
calibrated to the paper's published magnitudes (see config.py).

Execution model (mirrors AT Protocol federation): the population is
partitioned into ``config.sim_shards`` logical shards.  Each shard's day
loop mutates only shard-local state — its users' repositories on their
PDS — and queues everything with cross-shard visibility (firehose
commits, recent-post pool entries, feed routing, label emissions,
viewer-like updates) into a per-day :class:`~repro.simulation.sharding.DayBatch`.
At the barrier between day ticks the coordinator merges all batches with
the deterministic rule ``(virtual time, shard id, intra-shard order)``
and applies them: the relay assigns firehose sequence numbers, the
labeler services assign label sequence numbers, and the exchange pools
advance — all in merged order, so the outcome is independent of the
order in which the shards were run.

All shards run serially in the calling process.  Every RNG stream is
derived per shard (or is global), so the artefacts depend only on the
seed and the fixed shard count.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import deque
from typing import Optional

from repro.atproto.lexicon import (
    BLOCK,
    FOLLOW,
    LIKE,
    POST,
    PROFILE,
    REPOST,
    WHTWND_ENTRY,
)
from repro.services.feedgen import PostFeatures, tokenize
from repro.simulation import vocab
from repro.simulation.clock import (
    US_PER_DAY,
    US_PER_SECOND,
    date_us,
    day_range,
    iso_timestamp,
)
from repro.simulation.config import (
    LABEL_SNAPSHOT_US,
    PUBLIC_OPENING_US,
    SimulationConfig,
)
from repro.simulation.sampling import CumulativeSampler
from repro.simulation.sharding import (
    K_COMMIT,
    K_LABEL,
    K_POST,
    K_VIEWER_LIKE,
    POPULAR_POOL_MAXLEN,
    RECENT_POOL_MAXLEN,
    DayBatch,
    RecentPost,
    RecentPostPool,
    derive_seed,
    digest_batch,
    merged_items,
    shard_of,
)
from repro.simulation.labelers import (
    TRIGGER_AI,
    TRIGGER_FF14,
    TRIGGER_MISSING_ALT,
    TRIGGER_NSFW,
    TRIGGER_RANDOM,
    TRIGGER_SCREENSHOT,
    TRIGGER_TENOR,
)
from repro.simulation.world import UserState, World

# Daily per-active-user operation rates (April 2024 status: 500K DAU doing
# 3M likes / 800K posts / 300K reposts per day).
RATE_LIKES = 6.0
RATE_POSTS = 1.6
RATE_REPOSTS = 0.6
RATE_FOLLOWS_DAILY = 0.12
RATE_BLOCKS_DAILY = 0.02
FEED_LIKE_SHARE = 0.02  # share of likes that go to feed generators
LABELER_LIKE_SHARE = 0.002  # share of likes that go to labeler services
DELETE_LIKE_RATE = 0.004
DELETE_POST_RATE = 0.002
BOGUS_TIMESTAMP_RATE = 2.5e-4  # posts predating Bluesky (Section 7.1 bug)
WHTWND_RATE = 2e-5  # non-Bluesky records on the firehose (Section 4)
IDENTITY_NOISE_RATE = 0.0017  # identity events per commit (Table 1)

# Posts in the paper's labeler window at full scale, used to convert the
# manual labelers' expected totals (Table 6) into per-post probabilities.
FULL_SCALE_WINDOW_POSTS = 40_000_000.0

OFFICIAL_MANUAL_VALUES = ("spam", "intolerant", "threat", "sexual-figurative", "!takedown")
OFFICIAL_MANUAL_RATE = 3e-5
OFFICIAL_MANUAL_MEDIAN_S = 40_000.0

# Account-level label rates (per signup; Table 4 counts over 5.5M users).
ACCOUNT_LABEL_RATES = (
    ("!takedown", 2_643 / 5.5e6),
    ("spam", 1_067 / 5.5e6),
    ("impersonation", 575 / 5.5e6),
)

# Timeline milestones, parsed once at import time (active_fraction runs
# for every simulated day and used to re-parse these on each call).
RAMP_START_US = date_us("2023-01-01")
RAMP_END_US = date_us("2023-07-01")
DECLINE_START_US = date_us("2024-03-01")
DECLINE_END_US = date_us("2024-05-11")
HANDLE_CHURN_START_US = date_us("2024-03-01")
TOMBSTONE_WINDOW_START_US = date_us("2024-03-06")

# All labeler accounts live on the first default PDS shard, so their
# service-record commits belong to logical shard 0.
LABELER_SHARD = 0


def poisson(rng: random.Random, lam: float) -> int:
    """Knuth's method; fine for the small rates used here."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def active_fraction(day_us: int) -> float:
    """Share of joined users active on a given day (Figure 1 shape)."""
    if day_us < RAMP_START_US:
        return 0.35
    if day_us < RAMP_END_US:
        ramp = (day_us - RAMP_START_US) / (RAMP_END_US - RAMP_START_US)
        return 0.32 - 0.15 * ramp
    if day_us < PUBLIC_OPENING_US:
        return 0.125
    if day_us < DECLINE_START_US:
        return 0.145
    # Post-opening decline: the paper observes ~60K fewer daily actives
    # between March and May 2024.  (Clamped for extended-timeline runs,
    # e.g. the Brazil-ban scenario reaching into autumn 2024.)
    ramp = (day_us - DECLINE_START_US) / (DECLINE_END_US - DECLINE_START_US)
    return max(0.08, 0.135 - 0.038 * ramp)


class _Streams:
    """Every RNG stream the engine consumes, derived from the run seed.

    * ``schedule`` — handle-change and tombstone schedules, computed once
      at startup.
    * ``lifecycle`` — per-day jitter for labeler/feed starts, handle
      changes, and tombstones.
    * ``signup`` — per-signup decisions (profile, initial follows, spam,
      account labels).
    * ``shards[s]`` — all activity generation for shard ``s``.
    * ``identity`` / ``finalize`` — the barrier-side phases.
    """

    def __init__(self, seed: int, n_shards: int):
        self.schedule = random.Random(derive_seed(seed, "schedule"))
        self.lifecycle = random.Random(derive_seed(seed, "lifecycle"))
        self.signup = random.Random(derive_seed(seed, "signup"))
        self.identity = random.Random(derive_seed(seed, "identity"))
        self.finalize = random.Random(derive_seed(seed, "finalize"))
        self.shards = [
            random.Random(derive_seed(seed, "shard", s)) for s in range(n_shards)
        ]


class ShardEngine:
    """Generates one shard's activity; mutates only shard-local state.

    All writes go to the shard's own users' repositories (commits on the
    actor's repo are intrinsically shard-local in AT Protocol); anything
    with cross-shard visibility is queued into the current day batch and
    applied by the coordinator at the barrier.
    """

    def __init__(self, sim: "SimProcess", shard_id: int, rng: random.Random):
        self.sim = sim
        self.world = sim.world
        self.shard_id = shard_id
        self.rng = rng
        # Engagement-weighted sampler over this shard's joined users; its
        # RNG stream is bit-identical to rng.choices(weights=...).
        self.active_sampler: CumulativeSampler[UserState] = CumulativeSampler()
        self.items: list = []
        # Same-day own posts: visible to this shard immediately, to other
        # shards only after the next barrier (see RecentPostPool docs).
        self._overlay_recent: list[RecentPost] = []
        self._overlay_popular: list[RecentPost] = []

    # -- batch plumbing ------------------------------------------------------

    def begin_day(self) -> None:
        self.items = []
        self._overlay_recent = []
        self._overlay_popular = []

    def take_batch(self, gen_wall_us: float = 0.0) -> DayBatch:
        batch = DayBatch(self.shard_id, self.items, gen_wall_us)
        self.items = []
        return batch

    def queue_commit(self, time_us: int, meta, counts_for_noise: bool) -> None:
        self.items.append((time_us, K_COMMIT, (meta.did, meta, counts_for_noise)))

    # -- daily activity ------------------------------------------------------

    def run_day_activity(self, day_us: int, rate_adj: float) -> None:
        joined = self.active_sampler.items
        if not joined:
            return
        target = int(active_fraction(day_us) * len(joined))
        if target <= 0:
            return
        rng = self.rng
        actives = self.active_sampler.sample_k(rng, target)
        seen: set[int] = set()
        for user in actives:
            if user.spec.index in seen or user.tombstoned or not user.joined:
                continue
            seen.add(user.spec.index)
            self._run_session(
                user, day_us + rng.randrange(US_PER_DAY), day_us + US_PER_DAY, rate_adj
            )

    def _run_session(
        self, user: UserState, session_us: int, day_end_us: int, rate_adj: float
    ) -> None:
        """One user session; op times are clamped to the session's day so
        snapshots scheduled at day boundaries stay causally consistent."""
        rng = self.rng
        cap = day_end_us - 1
        t = session_us
        for _ in range(poisson(rng, RATE_POSTS * rate_adj)):
            t = min(cap, t + rng.randrange(1, 180 * US_PER_SECOND))
            self._create_post(user, t)
        for _ in range(poisson(rng, RATE_LIKES * rate_adj)):
            t = min(cap, t + rng.randrange(1, 60 * US_PER_SECOND))
            self._create_like(user, t)
        for _ in range(poisson(rng, RATE_REPOSTS * rate_adj)):
            t = min(cap, t + rng.randrange(1, 60 * US_PER_SECOND))
            self._create_repost(user, t)
        for _ in range(poisson(rng, RATE_FOLLOWS_DAILY * rate_adj)):
            t = min(cap, t + rng.randrange(1, 60 * US_PER_SECOND))
            self._create_follow(user, t)
        if rng.random() < RATE_BLOCKS_DAILY * rate_adj:
            t = min(cap, t + rng.randrange(1, 60 * US_PER_SECOND))
            self._create_block(user, t)
        if user.spec.is_whitewind_blogger and rng.random() < 0.06:
            # The small WhiteWind long-form blogging community (Section 4,
            # non-Bluesky content on the firehose).
            t = min(cap, t + rng.randrange(1, 60 * US_PER_SECOND))
            self._create_whitewind_entry(user, t)

    # -- content -------------------------------------------------------------

    def _create_post(self, user: UserState, now_us: int) -> None:
        rng = self.rng
        spec = user.spec
        attrs = {
            "nsfw": rng.random() < spec.nsfw_rate,
            "tenor": rng.random() < spec.tenor_rate,
            "screenshot": rng.random() < spec.screenshot_rate,
            "ai_tag": rng.random() < spec.ai_tag_rate,
            "ff14": rng.random() < spec.ff14_rate,
        }
        has_media = attrs["screenshot"] or rng.random() < spec.media_rate
        attrs["missing_alt"] = has_media and rng.random() < spec.missing_alt_rate

        topic = None
        if attrs["nsfw"]:
            topic = "nsfw"
        elif attrs["ff14"]:
            topic = "ff14"
        elif rng.random() < 0.4:
            topic = vocab.pick_weighted(rng, vocab.TOPICS)
        text = vocab.make_post_text(rng, spec.lang, topic)
        if attrs["ai_tag"]:
            text += " #aiart"

        created_at = iso_timestamp(now_us)
        if rng.random() < BOGUS_TIMESTAMP_RATE:
            # The timestamp bug the paper reported upstream: client-supplied
            # createdAt long before the platform (or the epoch) existed.
            year = rng.choice((1185, 1776, 1923))
            created_at = "%04d-07-01T00:00:00.000Z" % year

        record = {"$type": POST, "text": text, "createdAt": created_at}
        if rng.random() < 0.9:
            record["langs"] = [spec.lang]
        if has_media:
            alt = "" if attrs["missing_alt"] else "description of the image"
            record["embed"] = {"images": [{"alt": alt}]}
        elif attrs["tenor"]:
            record["embed"] = {"external": {"uri": "https://media.tenor.com/clip.gif"}}

        meta = user.pds.create_record(user.did, POST, record, now_us)
        self.queue_commit(now_us, meta, True)
        op = meta.ops[0]
        uri = "at://%s/%s" % (user.did, op.path)
        recent = RecentPost(uri, str(op.cid), user.did, now_us, popular=spec.attractiveness > 8.0)
        self._overlay_recent.append(recent)
        if recent.popular:
            self._overlay_popular.append(recent)

        features = PostFeatures(
            uri=uri,
            author=user.did,
            time_us=now_us,
            text=text,
            langs=tuple(record.get("langs", ())),
            tokens=frozenset(tokenize(text)),
            has_media=has_media or attrs["tenor"],
        )
        self.items.append((now_us, K_POST, (recent, features)))
        self._apply_labels(uri, attrs, now_us)

        if rng.random() < DELETE_POST_RATE:
            rkey = op.rkey
            delete_us = now_us + 60 * US_PER_SECOND
            meta = user.pds.delete_record(user.did, POST, rkey, delete_us)
            self.queue_commit(delete_us, meta, True)

    def _create_whitewind_entry(self, user: UserState, now_us: int) -> None:
        record = {
            "$type": WHTWND_ENTRY,
            "content": "# " + vocab.make_post_text(self.rng, user.spec.lang),
            "title": "blog entry",
            "createdAt": iso_timestamp(now_us),
        }
        meta = user.pds.create_record(user.did, WHTWND_ENTRY, record, now_us)
        self.queue_commit(now_us, meta, True)

    def _create_like(self, user: UserState, now_us: int) -> None:
        rng = self.rng
        sim = self.sim
        roll = rng.random()
        if roll < FEED_LIKE_SHARE and sim.feed_sampler:
            target = sim.feed_sampler.sample(rng)
            subject_uri, subject_cid = target.uri, "feedgen"
        elif roll < FEED_LIKE_SHARE + LABELER_LIKE_SHARE and sim.labeler_like_sampler:
            subject_uri = sim.labeler_like_sampler.sample(rng)
            subject_cid = "labeler"
        else:
            post = self._pick_post()
            if post is None:
                return
            subject_uri, subject_cid = post.uri, post.cid
        record = {
            "$type": LIKE,
            "subject": {"uri": subject_uri, "cid": subject_cid},
            "createdAt": iso_timestamp(now_us),
        }
        meta = user.pds.create_record(user.did, LIKE, record, now_us)
        self.queue_commit(now_us, meta, True)
        self.items.append((now_us, K_VIEWER_LIKE, (user.did, subject_uri, now_us)))
        if rng.random() < DELETE_LIKE_RATE:
            rkey = meta.ops[0].rkey
            delete_us = now_us + 120 * US_PER_SECOND
            meta = user.pds.delete_record(user.did, LIKE, rkey, delete_us)
            self.queue_commit(delete_us, meta, True)

    def _create_repost(self, user: UserState, now_us: int) -> None:
        post = self._pick_post()
        if post is None:
            return
        record = {
            "$type": REPOST,
            "subject": {"uri": post.uri, "cid": post.cid},
            "createdAt": iso_timestamp(now_us),
        }
        meta = user.pds.create_record(user.did, REPOST, record, now_us)
        self.queue_commit(now_us, meta, True)

    def _create_follow(self, user: UserState, now_us: int) -> None:
        target = self.sim.pick_follow_target(self.rng, user)
        if target is None:
            return
        record = {"$type": FOLLOW, "subject": target, "createdAt": iso_timestamp(now_us)}
        meta = user.pds.create_record(user.did, FOLLOW, record, now_us)
        self.queue_commit(now_us, meta, True)

    def _create_block(self, user: UserState, now_us: int) -> None:
        rng = self.rng
        sim = self.sim
        impersonators = sim.live_impersonator_pool()
        if impersonators and rng.random() < 0.7:
            target = rng.choice(impersonators).did
        elif sim.follow_pool:
            target = sim.follow_pool[rng.randrange(len(sim.follow_pool))]
        else:
            return
        if target == user.did:
            return
        record = {"$type": BLOCK, "subject": target, "createdAt": iso_timestamp(now_us)}
        meta = user.pds.create_record(user.did, BLOCK, record, now_us)
        self.queue_commit(now_us, meta, True)

    def _pick_post(self) -> Optional[RecentPost]:
        """Uniform draw over the barrier-synced pool plus the shard's own
        same-day overlay; cross-shard same-day posts become visible at the
        next barrier (the documented exchange-step semantics)."""
        rng = self.rng
        sim = self.sim
        popular_n = len(sim.popular_posts) + len(self._overlay_popular)
        if popular_n and rng.random() < 0.35:
            index = rng.randrange(popular_n)
            if index < len(sim.popular_posts):
                return sim.popular_posts[index]
            return self._overlay_popular[index - len(sim.popular_posts)]
        recent_n = len(sim.recent_posts) + len(self._overlay_recent)
        if recent_n:
            index = rng.randrange(recent_n)
            if index < len(sim.recent_posts):
                return sim.recent_posts[index]
            return self._overlay_recent[index - len(sim.recent_posts)]
        return None

    # -- labeling ------------------------------------------------------------

    def _apply_labels(self, uri: str, attrs: dict, now_us: int) -> None:
        """Roll label triggers for one post; emissions are queued and
        applied by the coordinator in merged order (label sequence numbers
        are assigned at application, like relay sequence numbers)."""
        rng = self.rng
        items = self.items
        for labeler_index, runtime in enumerate(self.world.labelers):
            spec = runtime.spec
            if runtime.service is None or now_us < spec.start_us:
                continue
            triggered_value: Optional[str] = None
            if spec.trigger == TRIGGER_NSFW and attrs["nsfw"]:
                if rng.random() < spec.trigger_probability:
                    roll = rng.random()
                    if roll < 0.62:
                        triggered_value = "porn"
                    elif roll < 0.87:
                        triggered_value = "sexual"
                    elif roll < 0.94:
                        triggered_value = "nudity"
                    else:
                        triggered_value = "graphic-media"
            elif spec.trigger == TRIGGER_MISSING_ALT and attrs["missing_alt"]:
                if rng.random() < spec.trigger_probability:
                    roll = rng.random()
                    triggered_value = "no-alt-text" if roll < 0.97 else spec.values[1]
            elif spec.trigger == TRIGGER_TENOR and attrs["tenor"]:
                if rng.random() < spec.trigger_probability:
                    triggered_value = spec.values[0] if rng.random() < 0.8 else spec.values[1]
            elif spec.trigger == TRIGGER_SCREENSHOT and attrs["screenshot"]:
                if rng.random() < spec.trigger_probability:
                    triggered_value = spec.values[rng.randrange(len(spec.values))]
            elif spec.trigger == TRIGGER_AI and attrs["ai_tag"]:
                if rng.random() < spec.trigger_probability:
                    triggered_value = spec.values[0]
            elif spec.trigger == TRIGGER_FF14 and attrs["ff14"]:
                if rng.random() < spec.trigger_probability:
                    triggered_value = spec.values[rng.randrange(len(spec.values))]
            elif spec.trigger == TRIGGER_RANDOM:
                probability = spec.trigger_probability / FULL_SCALE_WINDOW_POSTS
                if rng.random() < probability:
                    triggered_value = spec.value_for(rng)
            if triggered_value is None:
                continue
            delay_us = spec.reaction.sample_us(rng)
            items.append(
                (now_us, K_LABEL, (labeler_index, uri, triggered_value, now_us + delay_us, False))
            )
            if rng.random() < spec.rescind_rate:
                rescind_cts = now_us + delay_us + rng.randrange(1, 48 * 3600) * US_PER_SECOND
                items.append(
                    (now_us, K_LABEL, (labeler_index, uri, triggered_value, rescind_cts, True))
                )
        # The official labeler also runs slow, manual review queues.
        sim = self.sim
        official = sim.official_runtime
        if official is not None and official.service is not None:
            if rng.random() < OFFICIAL_MANUAL_RATE * 40 and rng.random() < 0.025:
                value = OFFICIAL_MANUAL_VALUES[rng.randrange(len(OFFICIAL_MANUAL_VALUES))]
                delay_us = int(
                    OFFICIAL_MANUAL_MEDIAN_S * math.exp(rng.gauss(0.0, 1.8)) * US_PER_SECOND
                )
                items.append(
                    (now_us, K_LABEL, (sim.official_index, uri, value, now_us + delay_us, False))
                )


class SimProcess:
    """The global timeline (signups, labeler/feed starts, handle changes,
    tombstones) plus day-activity generation for every logical shard."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.config: SimulationConfig = world.config
        self.n_shards = self.config.sim_shards
        self.streams = _Streams(self.config.seed, self.n_shards)
        self.shard_engines = [
            ShardEngine(self, s, self.streams.shards[s]) for s in range(self.n_shards)
        ]

        # Global state shared by every shard.
        self.joined: list[UserState] = []
        self.follow_pool: list[str] = []  # DIDs, multiplicity ∝ attractiveness
        self.spam_accounts: list[str] = []
        self.impersonators: list[UserState] = []
        self.official_did: Optional[str] = None
        self.newspaper_dids: list[str] = []
        self.recent_posts = RecentPostPool(RECENT_POOL_MAXLEN)
        self.popular_posts = RecentPostPool(POPULAR_POOL_MAXLEN)
        self.feed_sampler: CumulativeSampler = CumulativeSampler()
        self.labeler_like_sampler: CumulativeSampler[str] = CumulativeSampler()
        self.pds_by_did: dict[str, object] = {}
        # Lazily cached [u for u in impersonators if not u.tombstoned],
        # invalidated via the world's tombstone epoch.
        self._live_impersonators: Optional[list[UserState]] = None
        self._impersonator_epoch = -1
        # Per-viewer recent likes feeding personalized feeds.
        self.world.recent_likes_by_viewer = {}

        self.official_index = -1
        self.official_runtime = None
        for index, runtime in enumerate(world.labelers):
            if runtime.spec.is_official:
                self.official_index = index
                self.official_runtime = runtime
                break

        # Global schedules.
        self.signups = sorted(world.users, key=lambda u: u.spec.signup_us)
        self.feed_starts = sorted(world.feeds, key=lambda f: f.spec.created_us)
        self.labeler_starts = sorted(world.labelers, key=lambda l: l.spec.start_us)
        self.handle_changes = self._schedule_handle_changes()
        self.tombstones = self._schedule_tombstones()
        self._signup_i = self._labeler_i = self._feed_i = 0
        self._handle_i = self._tomb_i = 0

    def engine_for_user(self, user: UserState) -> ShardEngine:
        return self.shard_engines[shard_of(user.spec.index, self.n_shards)]

    # -- schedules -----------------------------------------------------------

    def _schedule_handle_changes(self) -> list:
        rng = self.streams.schedule
        scheduled = []
        # Handle churn concentrates in early 2024, when alternative
        # subdomain providers appeared (Section 5, "User Handles Updates");
        # the paper observes all 44K updates inside its firehose window.
        churn_start = max(self.config.start_us, HANDLE_CHURN_START_US)
        for user in self.world.users:
            spec = user.spec
            if not spec.will_change_handle:
                continue
            start = max(spec.signup_us, churn_start)
            span = max(US_PER_DAY, (self.config.end_us - start) // (spec.handle_changes + 1))
            t = start
            for change in range(spec.handle_changes):
                t += rng.randrange(1, span)
                if t >= self.config.end_us:
                    break
                is_last = change == spec.handle_changes - 1
                if is_last and not spec.final_handle_custom:
                    new_handle = "%s.bsky.social" % spec.username
                else:
                    new_handle = "%s%d.handle.example" % (spec.username, change)
                scheduled.append((t, user, new_handle))
        scheduled.sort(key=lambda item: item[0])
        return scheduled

    def _schedule_tombstones(self) -> list:
        rng = self.streams.schedule
        scheduled = []
        window_start = TOMBSTONE_WINDOW_START_US
        for user in self.world.users:
            if not user.spec.will_tombstone:
                continue
            if rng.random() < 0.6 and user.spec.signup_us < window_start:
                # Most removals land in the measurement window (moderation
                # wave), matching Table 1's tombstone share.
                t = window_start + int(rng.random() * (self.config.end_us - window_start))
            else:
                t = user.spec.signup_us + int(rng.uniform(10, 200) * US_PER_DAY)
            if t < self.config.end_us:
                scheduled.append((t, user))
        scheduled.sort(key=lambda item: item[0])
        return scheduled

    # -- day phases ----------------------------------------------------------

    def begin_day(self, day_us: int) -> None:
        """Phase A: the day's signups and labeler/feed starts; their repo
        writes queue commit events on the owning shard."""
        day_end = day_us + US_PER_DAY
        for engine in self.shard_engines:
            engine.begin_day()
        signups = self.signups
        while self._signup_i < len(signups) and signups[self._signup_i].spec.signup_us < day_end:
            self._do_signup(signups[self._signup_i])
            self._signup_i += 1
        lifecycle = self.streams.lifecycle
        starts = self.labeler_starts
        while self._labeler_i < len(starts) and starts[self._labeler_i].spec.start_us < day_end:
            runtime = starts[self._labeler_i]
            t = day_us + lifecycle.randrange(US_PER_DAY)
            meta = self.world.start_labeler(runtime, t)
            self.pds_by_did[runtime.did] = self.world.pds_shards[0]
            self.shard_engines[LABELER_SHARD].queue_commit(t, meta, False)
            if runtime.spec.expected_likes:
                self.labeler_like_sampler.append(
                    "at://%s/app.bsky.labeler.service/self" % runtime.did,
                    float(runtime.spec.expected_likes),
                )
            self._labeler_i += 1
        feeds = self.feed_starts
        while self._feed_i < len(feeds) and feeds[self._feed_i].spec.created_us < day_end:
            runtime = feeds[self._feed_i]
            t = day_us + lifecycle.randrange(US_PER_DAY)
            creator = self.world.users[runtime.spec.creator_index]
            meta = self.world.create_feed(runtime, t)
            if meta is not None:
                self.engine_for_user(creator).queue_commit(t, meta, False)
            if runtime.announced:
                # Popular creators draw more likes to their feeds (the
                # paper's r=0.533 between feed likes and followers).
                boost = math.sqrt(max(1.0, creator.spec.attractiveness))
                self.feed_sampler.append(runtime, runtime.spec.like_weight * boost)
            self._feed_i += 1

    def generate_owned(self, day_us: int) -> list[DayBatch]:
        """Phase B: run every shard's day activity, one batch each."""
        rate_adj = self.config.activity_scale
        batches = []
        for engine in self.shard_engines:
            wall0 = time.perf_counter()  # repro: allow(wallclock) -- per-shard timing telemetry; excluded from batch digests
            engine.run_day_activity(day_us, rate_adj)
            gen_wall_us = (time.perf_counter() - wall0) * 1e6  # repro: allow(wallclock) -- per-shard timing telemetry; excluded from batch digests
            batches.append(engine.take_batch(gen_wall_us))
        return batches

    def apply_handles(self, day_us: int) -> None:
        """Phase D: handle changes scheduled for this day."""
        day_end = day_us + US_PER_DAY
        changes = self.handle_changes
        lifecycle = self.streams.lifecycle
        while self._handle_i < len(changes) and changes[self._handle_i][0] < day_end:
            _, user, new_handle = changes[self._handle_i]
            if user.joined and not user.tombstoned:
                t = day_us + lifecycle.randrange(US_PER_DAY)
                self.world.change_handle(user, new_handle, t)
            self._handle_i += 1

    def apply_tombstones(self, day_us: int) -> None:
        day_end = day_us + US_PER_DAY
        tombstones = self.tombstones
        lifecycle = self.streams.lifecycle
        while self._tomb_i < len(tombstones) and tombstones[self._tomb_i][0] < day_end:
            _, user = tombstones[self._tomb_i]
            if user.joined and not user.tombstoned:
                t = day_us + lifecycle.randrange(US_PER_DAY)
                self.world.tombstone_user(user, t)
                self.world.relay.publish_tombstone(user.did, t)
            self._tomb_i += 1

    # -- signup --------------------------------------------------------------

    def _do_signup(self, user: UserState) -> None:
        now_us = user.spec.signup_us
        self.world.signup(user, now_us)
        self.joined.append(user)
        self.pds_by_did[user.did] = user.pds
        engine = self.engine_for_user(user)
        engine.active_sampler.append(user, user.spec.engagement)
        multiplicity = 1 + min(50, int(user.spec.attractiveness))
        self.follow_pool.extend([user.did] * multiplicity)
        if user.spec.is_official:
            self.official_did = user.did
        elif user.spec.is_newspaper:
            self.newspaper_dids.append(user.did)
        if user.spec.is_impersonator:
            self.impersonators.append(user)
            self._live_impersonators = None  # pool changed; recompute lazily
        rng = self.streams.signup
        if user.spec.is_official or rng.random() < 0.6:
            self._set_profile(user, now_us, engine)
        self._initial_follows(user, now_us, engine)
        if rng.random() < 0.002:
            self.spam_accounts.append(user.did)
        self._maybe_label_account(user, now_us)

    def _set_profile(self, user: UserState, now_us: int, engine: ShardEngine) -> None:
        """Profile record + (possibly) an official label on it; the
        decision draws come from the global signup stream."""
        rng = self.streams.signup
        record = {
            "$type": PROFILE,
            "displayName": user.spec.username,
            "description": user.spec.profile_description
            or vocab.make_post_text(rng, user.spec.lang)[:60],
            "createdAt": iso_timestamp(now_us),
        }
        meta = user.pds.create_record(user.did, PROFILE, record, now_us, rkey="self")
        engine.queue_commit(now_us, meta, True)
        # NSFW-heavy accounts attract official labels on their avatar/banner.
        if user.spec.nsfw_rate > 0.3:
            official = self.official_runtime
            if official is not None and official.service is not None and rng.random() < 0.5:
                uri = "at://%s/app.bsky.actor.profile/self" % user.did
                value = official.spec.profile_values[
                    rng.randrange(len(official.spec.profile_values))
                ]
                delay = official.spec.reaction.sample_us(rng) * 50
                official.service.emit(uri, value, now_us + delay)

    def pick_follow_target(self, rng: random.Random, user: UserState) -> Optional[str]:
        """Preferential attachment with explicit celebrity bias: the
        official Bluesky account accrues ~14% of all follows (775K of
        5.5M users), newspapers a few percent each (Section 4)."""
        roll = rng.random()
        if roll < 0.13:
            if self.official_did and self.official_did != user.did:
                return self.official_did
        elif roll < 0.21 and self.newspaper_dids:
            target = self.newspaper_dids[rng.randrange(len(self.newspaper_dids))]
            if target != user.did:
                return target
        if not self.follow_pool:
            return None
        target = self.follow_pool[rng.randrange(len(self.follow_pool))]
        return None if target == user.did else target

    def _initial_follows(self, user: UserState, now_us: int, engine: ShardEngine) -> None:
        rng = self.streams.signup
        count = min(user.spec.follow_initial, max(1, len(self.follow_pool) // 2))
        t = now_us
        for _ in range(count):
            target = self.pick_follow_target(rng, user)
            if target is None:
                continue
            t += rng.randrange(1, 30 * US_PER_SECOND)
            record = {"$type": FOLLOW, "subject": target, "createdAt": iso_timestamp(t)}
            meta = user.pds.create_record(user.did, FOLLOW, record, t)
            engine.queue_commit(t, meta, True)

    def _maybe_label_account(self, user: UserState, now_us: int) -> None:
        official = self.official_runtime
        if official is None or official.service is None:
            return
        rng = self.streams.signup
        for value, rate in ACCOUNT_LABEL_RATES:
            if rng.random() < rate:
                delay_us = int(rng.uniform(1, 20) * US_PER_DAY)
                official.service.emit(user.did, value, now_us + delay_us)
        if user.spec.is_impersonator:
            delay_us = int(rng.uniform(1, 10) * US_PER_DAY)
            official.service.emit(user.did, "impersonation", now_us + delay_us)

    def live_impersonator_pool(self) -> list[UserState]:
        """The non-tombstoned impersonators, rebuilt only when an account
        joins the pool or any account is tombstoned (epoch check)."""
        epoch = self.world.tombstone_epoch
        cached = self._live_impersonators
        if cached is None or epoch != self._impersonator_epoch:
            cached = [u for u in self.impersonators if not u.tombstoned]
            self._live_impersonators = cached
            self._impersonator_epoch = epoch
        return cached


class Engine:
    """Coordinator: runs a world's timeline day by day in this process."""

    def __init__(self, world: World):
        self.world = world
        self.config: SimulationConfig = world.config
        n_shards = self.config.sim_shards
        self.sim = SimProcess(world)
        registry = world.telemetry.registry
        self._m_days = registry.counter("sim_days_total")
        self._m_signups = registry.counter("sim_signups_total")
        self._m_commits = registry.counter("sim_commits_total")
        self._m_shard_commits = registry.counter(
            "sim_shard_commits_total", label_names=("shard",)
        )
        # Per-shard running digests: day_us -> (hex digest per shard).
        # The checkpoint journal embeds the latest entry; a resumed run
        # re-derives the log and verifies the journal's segment matches.
        self.digest_log: dict[int, tuple] = {}
        self._shard_hashers = [
            hashlib.sha256(b"shard-segment:%d" % s) for s in range(n_shards)
        ]

    # ---------------------------------------------------------------- run --

    def run(self, progress=None) -> None:
        config = self.config
        world = self.world
        sim = self.sim
        world.shard_digest_log = self.digest_log
        scheduled = sorted(world.scheduled_actions, key=lambda item: item[0])
        sched_i = 0

        # The engine replays the whole world deterministically on every
        # run (including after a resume), so its families are recounted
        # from zero rather than checkpointed — clearing keeps a resumed
        # run's totals equal to an uninterrupted run's.
        tracer = world.telemetry.tracer
        for family in (self._m_days, self._m_signups, self._m_commits, self._m_shard_commits):
            family.clear()

        for day_us in day_range(config.start_us, config.end_us):
            day_end = day_us + US_PER_DAY
            day_traced = tracer.enabled and tracer.sampled("sim-day")
            day_wall0 = tracer.wall_us() if day_traced else 0.0
            # Keep the service directory's clock roughly current so
            # time-windowed faults apply to calls made outside the
            # retry helper (which sets it precisely per attempt).
            world.services.now_us = day_us

            joined_before = len(sim.joined)
            sim.begin_day(day_us)
            self._m_signups.inc((), len(sim.joined) - joined_before)
            batches = sim.generate_owned(day_us)

            if day_traced:
                # shard.day spans are recorded after generation: each ends
                # "now" and extends back by the shard's measured
                # generation wall time, so the spans overlap.
                now_us = tracer.wall_us()
                for batch in batches:
                    tracer.complete(
                        "shard.day s%02d" % batch.shard_id,
                        "shard",
                        now_us - batch.gen_wall_us,
                        args={"shard": batch.shard_id, "items": len(batch.items)},
                        virtual_ts_us=day_us,
                        virtual_dur_us=US_PER_DAY,
                    )
            merge_wall0 = tracer.wall_us() if day_traced else 0.0
            pending_update, commits_today = self._merge_day(day_us, batches)
            if day_traced:
                tracer.complete(
                    "relay.merge",
                    "shard",
                    merge_wall0,
                    args={"batches": len(batches)},
                    virtual_ts_us=day_us,
                    virtual_dur_us=US_PER_DAY,
                )
                # The exchange step proper: the merged pool update that
                # crosses the barrier into the next day tick.
                tracer.complete(
                    "shard.exchange",
                    "shard",
                    tracer.wall_us(),
                    args={"posts": len(pending_update)},
                    virtual_ts_us=day_us + US_PER_DAY - 1,
                    virtual_dur_us=0,
                )

            sim.apply_handles(day_us)
            sim.apply_tombstones(day_us)
            self._identity_noise(day_us, commits_today)
            while sched_i < len(scheduled) and scheduled[sched_i][0] < day_end:
                scheduled[sched_i][1](day_end - 1)
                sched_i += 1
            self._m_days.inc()
            self._m_commits.inc((), commits_today)
            if day_traced:
                tracer.complete(
                    "sim-day %s" % iso_timestamp(day_us)[:10],
                    "sim",
                    day_wall0,
                    args={"commits": commits_today},
                    virtual_ts_us=day_us,
                    virtual_dur_us=US_PER_DAY,
                )
            if progress is not None and day_us % (30 * US_PER_DAY) < US_PER_DAY:
                progress("simulated through %s" % iso_timestamp(day_us)[:10])

        # Fire any actions scheduled at/after the end of the timeline.
        while sched_i < len(scheduled):
            scheduled[sched_i][1](config.end_us - 1)
            sched_i += 1

        self._finalize_labels()
        world.appview.sync_labels()

    # --------------------------------------------------------------- merge --

    def _merge_day(self, day_us: int, batches: list[DayBatch]):
        """Apply one day's batches in merged order (the barrier step).

        Relay sequence numbers, label sequence numbers, pool contents,
        feed-routing order, and viewer-like order are all decided here,
        in ``(time_us, shard id, intra-shard seq)`` order — never by
        the order the shards ran in."""
        sim = self.sim
        world = self.world
        relay = world.relay
        pds_by_did = sim.pds_by_did
        recent_likes = world.recent_likes_by_viewer
        labelers = world.labelers
        update: list[RecentPost] = []
        commits_today = 0
        shard_commits = dict.fromkeys(range(sim.n_shards), 0)
        for time_us, shard_id, _index, item in merged_items(batches):
            kind = item[1]
            if kind == K_COMMIT:
                did, meta, counts = item[2]
                relay.publish_commit(pds_by_did[did], did, meta)
                shard_commits[shard_id] += 1
                if counts:
                    commits_today += 1
            elif kind == K_POST:
                post, features = item[2]
                sim.recent_posts.append(post)
                if post.popular:
                    sim.popular_posts.append(post)
                update.append(post)
                world.feed_router.route(features)
            elif kind == K_LABEL:
                labeler_index, uri, value, cts_us, neg = item[2]
                runtime = labelers[labeler_index]
                if neg:
                    runtime.service.rescind(uri, value, cts_us)
                else:
                    runtime.service.emit(uri, value, cts_us)
                    runtime.values_emitted.add(value)
            elif kind == K_VIEWER_LIKE:
                did, uri, like_us = item[2]
                likes = recent_likes.get(did)
                if likes is None:
                    likes = recent_likes[did] = deque(maxlen=20)
                likes.append((uri, like_us))
        for batch in batches:
            digest_batch(self._shard_hashers[batch.shard_id], batch)
        self.digest_log[day_us] = tuple(h.hexdigest() for h in self._shard_hashers)
        for shard_id, count in shard_commits.items():
            if count:
                self._m_shard_commits.inc(("s%02d" % shard_id,), count)
        return update, commits_today

    # ------------------------------------------------------------ labeling --

    def _finalize_labels(self) -> None:
        """Guarantee every by-construction-active labeler issued a label
        *visible by the label-dataset cutoff* (labels whose cts lies beyond
        2024-05-01 do not exist yet when the study closes)."""
        rng = self.sim.streams.finalize
        recent = self.sim.recent_posts
        for runtime in self.world.labelers:
            if runtime.service is None:
                continue
            key = runtime.spec.key
            should_be_active = not (key.startswith("idle") or key.startswith("broken"))
            visible = any(
                label.cts <= LABEL_SNAPSHOT_US
                for label in runtime.service.xrpc_subscribeLabels(cursor=0)
            )
            if should_be_active and not visible and recent:
                # Pick a post old enough that the (slow, manual) reaction
                # time survives the clamp to the dataset cutoff: a forced
                # label must not look like a sub-second automated one.
                margin = 5 * US_PER_DAY
                eligible = [
                    recent[i]
                    for i in range(len(recent))
                    if recent[i].time_us <= LABEL_SNAPSHOT_US - margin
                ]
                pool = eligible if eligible else recent.snapshot()
                post = pool[rng.randrange(len(pool))]
                delay_us = runtime.spec.reaction.sample_us(rng)
                # Emission happens while the labeler is live (possibly a
                # retroactive label on an old post) and before the cutoff.
                cts = min(
                    max(post.time_us + delay_us, runtime.spec.start_us + 3600 * US_PER_SECOND),
                    LABEL_SNAPSHOT_US - US_PER_SECOND,
                )
                runtime.service.emit(post.uri, runtime.spec.values[0], cts)

    # ------------------------------------------------------------ identity --

    def _identity_noise(self, day_us: int, commits_today: int) -> None:
        """Background #identity events (cache invalidations, key rotations)."""
        rng = self.sim.streams.identity
        joined = self.sim.joined
        expected = commits_today * IDENTITY_NOISE_RATE
        for _ in range(poisson(rng, expected)):
            if not joined:
                return
            user = joined[rng.randrange(len(joined))]
            if user.tombstoned:
                continue
            self.world.relay.publish_identity_event(
                user.did, day_us + rng.randrange(US_PER_DAY)
            )
