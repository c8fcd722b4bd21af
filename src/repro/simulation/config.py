"""Simulation calibration.

Every constant here traces to a number published in the paper; the
``scale`` knobs shrink population-level counts so the world fits in one
process while preserving shares and shapes.  DESIGN.md documents the
scaling policy: user/event volumes scale by ``scale``; ecosystem actor
counts (labelers, feed services) stay near their real sizes so the
ecosystem-structure figures remain meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.clock import date_us

# ---------------------------------------------------------------------------
# Paper ground truth (full-scale numbers, for calibration and reporting)
# ---------------------------------------------------------------------------

PAPER = {
    # Section 1 / 3 dataset sizes
    "users": 5_523_919,
    "identifiers": 5_591_824,
    "did_documents": 5_077_159,
    "did_web_documents": 6,
    "posts_total": 225_000_000,
    "likes_total": 740_000_000,
    "follows_total": 160_900_000,
    "reposts_total": 77_900_000,
    "blocks_total": 10_800_000,
    # Table 1 firehose event shares
    "firehose_events": 279_289_739,
    "share_commit": 0.9978,
    "share_identity": 0.0019,
    "share_handle": 0.0002,
    "share_tombstone": 0.0001,
    # Section 4 current status (April 2024 steady state)
    "daily_active_users": 500_000,
    "daily_likes": 3_000_000,
    "daily_posts": 800_000,
    "daily_reposts": 300_000,
    # Section 5 identity
    "bsky_social_handle_share": 0.989,
    "non_bsky_fqdn_handles": 57_202,
    "registered_domains": 51_879,
    "tranco_top1m_share": 0.028,
    "dns_txt_mechanism_share": 0.987,
    "well_known_mechanism_share": 0.013,
    "whois_response_rate": 0.92,
    "iana_id_extraction_rate": 0.76,
    "registrar_count": 249,
    "handle_updates": 44_456,
    "handle_update_unique_dids": 31_494,
    "final_handle_bsky_share": 0.7574,
    # Section 6 moderation
    "labelers_announced": 62,
    "labelers_functional": 46,
    "labelers_active": 36,
    "label_interactions": 3_402_009,
    "labels_rescinded": 23_394,
    "labeled_objects": 3_160_851,
    "distinct_label_values_raw": 222,
    "distinct_label_values_clean": 196,
    "share_labeled_posts": 0.9963,
    "share_labeled_accounts": 0.0023,
    "share_labeled_profile_media": 0.0014,
    "multi_labeler_object_share": 0.032,
    "bsky_and_community_overlap_share": 0.018,
    "labeler_cloud_share": 0.65,
    "labeler_residential_share": 0.10,
    "labeler_unreachable_share": 0.26,
    # Section 7 recommendation
    "feed_generators_discovered": 43_063,
    "feed_generators_reachable": 40_398,
    "feed_posts_collected": 21_520_083,
    "feedgen_never_posted_share": 0.094,
    "feedgen_inactive_share": 0.218,
    "feedgen_bogus_timestamp_count": 2_202,
    "skyfeed_feed_share": 0.8586,
    "goodfeeds_feed_share": 0.0436,
    "top3_service_share": 0.958,
    "skyfeed_post_share": 0.303,
    "skyfeed_like_share": 0.612,
    "goodfeeds_post_share": 0.356,
    "goodfeeds_like_share": 0.012,
    "pearson_feed_count_vs_followers": 0.005,
    "pearson_feed_likes_vs_followers": 0.533,
    "one_feed_manager_share": 0.621,
    "max_feeds_one_account": 1_799,
}

# Language communities: (tag, share of taggable posts, description share of
# feed generators).  Post shares approximate Figure 2's user mix; feed
# description shares come from Section 7.1 (en 45%, ja 36%, de 4.1%,
# ko 2.0%, fr 1.9%).
LANGUAGES = (
    ("en", 0.42, 0.45),
    ("ja", 0.36, 0.36),
    ("pt", 0.10, 0.012),
    ("de", 0.05, 0.041),
    ("ko", 0.03, 0.020),
    ("fr", 0.04, 0.019),
)

# Growth milestones (Section 4 / Figure 1).
LAUNCH_US = date_us("2022-11-17")
FEEDGEN_INTRO_US = date_us("2023-05-01")
OFFICIAL_LABELER_START_US = date_us("2023-04-01")
COMMUNITY_LABELERS_OPEN_US = date_us("2024-03-15")
PUBLIC_OPENING_US = date_us("2024-02-06")
SIM_END_US = date_us("2024-05-11")

# Collection windows (Section 3).
FIREHOSE_COLLECT_START_US = date_us("2024-03-06")
FIREHOSE_COLLECT_END_US = date_us("2024-04-30")
REPO_SNAPSHOT_US = date_us("2024-04-24")
DIDDOC_SNAPSHOT_US = date_us("2024-03-20")
FEED_COLLECT_START_US = date_us("2024-04-16")
FEED_COLLECT_END_US = date_us("2024-05-10")
LABEL_SNAPSHOT_US = date_us("2024-05-01")


@dataclass
class SimulationConfig:
    """All knobs of a simulated world."""

    seed: int = 2024
    # Population scale: fraction of the paper's 5.52M users.
    scale: float = 1 / 4000
    # Feed-generator scale: fraction of the paper's 43k generators.
    feed_scale: float = 1 / 250
    # Activity scale relative to per-user rates implied by the paper;
    # lowering it thins event volume without shrinking the population.
    activity_scale: float = 1.0
    start_us: int = LAUNCH_US
    end_us: int = SIM_END_US
    # Extension scenario (the paper's footnote 6): extend the timeline to
    # September 2024 and simulate the Brazilian X-ban migration wave that
    # happened after the measurement window closed.
    brazil_ban_scenario: bool = False
    # Logical shard count for the engine (matching the default PDS shard
    # layout).  This is a determinism invariant of the run, not a
    # parallelism knob: a user belongs to shard ``index % sim_shards`` and
    # every RNG stream is keyed per shard, so changing it changes the
    # generated world.
    sim_shards: int = 4

    def __post_init__(self):
        if self.brazil_ban_scenario and self.end_us <= SIM_END_US:
            self.end_us = date_us("2024-10-01")

    # -- derived population sizes ------------------------------------------------

    @property
    def n_users(self) -> int:
        return max(50, int(PAPER["users"] * self.scale))

    @property
    def n_feed_generators(self) -> int:
        return max(20, int(PAPER["feed_generators_discovered"] * self.feed_scale))

    @property
    def n_labelers(self) -> int:
        # Labelers are NOT scaled: the ecosystem is 62 actors in the paper
        # and its structure (Table 6) is the object of study.
        return PAPER["labelers_announced"]

    # -- presets -------------------------------------------------------------------

    @classmethod
    def tiny(cls, seed: int = 2024) -> "SimulationConfig":
        """Fast preset for unit/integration tests (seconds to build)."""
        return cls(seed=seed, scale=1 / 60_000, feed_scale=1 / 1200, activity_scale=0.5)

    @classmethod
    def small(cls, seed: int = 2024) -> "SimulationConfig":
        """Medium preset for example scripts."""
        return cls(seed=seed, scale=1 / 12_000, feed_scale=1 / 500)

    @classmethod
    def bench(cls, seed: int = 2024) -> "SimulationConfig":
        """Preset used by the benchmark harness (minutes to build)."""
        return cls(seed=seed, scale=1 / 4000, feed_scale=1 / 250)
