"""Logical-shard determinism.

The population is partitioned into fixed logical shards with per-shard
seed streams, and their day batches are merged with the deterministic
rule ``(time_us, shard id, intra-shard seq)``.  These tests cover the
primitives, the checkpoint segment check, and a pinned fingerprint of
the tiny study.  Its byte identity across execution axes (reruns,
hash seeds, crash/resume) is checked by ``tests/test_equivalence.py``.
"""

import hashlib

import pytest

from repro.core.checkpoint import CheckpointError
from repro.core.pipeline import MeasurementPipeline
from repro.simulation.config import SimulationConfig
from repro.simulation.sharding import (
    DayBatch,
    RecentPost,
    RecentPostPool,
    derive_seed,
    digest_batch,
    merged_items,
    shard_of,
)
from repro.simulation.world import World

# study_fingerprint of SimulationConfig.tiny() (seed 2024).  It may change
# only with a reason recorded in CHANGES.md.
TINY_STUDY_FINGERPRINT = (
    "d304d9194abdca2b56e4e2e4db7d7834f6c50b0e66d471927a71560aecd56058"
)


def _post(i: int, time_us: int = 0) -> RecentPost:
    return RecentPost(
        uri="at://did:plc:u%d/app.bsky.feed.post/3k%d" % (i, i),
        cid="cid%d" % i,
        author_did="did:plc:u%d" % i,
        time_us=time_us or i,
    )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(2024, "shard", 3) == derive_seed(2024, "shard", 3)

    def test_streams_independent(self):
        seeds = {
            derive_seed(2024, "schedule"),
            derive_seed(2024, "lifecycle"),
            derive_seed(2024, "signup"),
            derive_seed(2024, "shard", 0),
            derive_seed(2024, "shard", 1),
            derive_seed(2025, "shard", 0),
        }
        assert len(seeds) == 6

    def test_64_bit_range(self):
        for shard in range(16):
            assert 0 <= derive_seed(7, "shard", shard) < 2**64

    def test_shard_assignment_rule(self):
        # Same rule as the default PDS layout: index modulo shard count.
        assert [shard_of(i, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


class TestRecentPostPool:
    def test_bounded(self):
        pool = RecentPostPool(maxlen=3)
        for i in range(10):
            pool.append(_post(i))
        assert len(pool) == 3

    def test_fifo_eviction_oldest_first(self):
        pool = RecentPostPool(maxlen=3)
        for i in range(5):
            pool.append(_post(i))
        # Entries 0 and 1 were evicted; index 0 is the oldest survivor.
        assert [pool[i].cid for i in range(len(pool))] == ["cid2", "cid3", "cid4"]
        assert pool[0].cid == "cid2"
        assert pool[2].cid == "cid4"

    def test_indexing_stable_before_full(self):
        pool = RecentPostPool(maxlen=10)
        for i in range(4):
            pool.append(_post(i))
        assert [pool[i].cid for i in range(4)] == ["cid0", "cid1", "cid2", "cid3"]

    def test_out_of_range_raises(self):
        pool = RecentPostPool(maxlen=2)
        for i in range(3):
            pool.append(_post(i))
        with pytest.raises(IndexError):
            pool[2]

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            RecentPostPool(maxlen=0)


class TestMergeRule:
    def test_orders_by_time_then_shard_then_seq(self):
        batch0 = DayBatch(shard_id=0, items=[(200, 1, "a0"), (100, 1, "a1")])
        batch1 = DayBatch(shard_id=1, items=[(100, 1, "b0"), (100, 1, "b1")])
        merged = [item[3][2] for item in merged_items([batch0, batch1])]
        # time 100: shard 0 first, then shard 1 in intra-shard order.
        assert merged == ["a1", "b0", "b1", "a0"]

    def test_merge_independent_of_batch_arrival_order(self):
        batch0 = DayBatch(shard_id=0, items=[(5, 1, "x")])
        batch1 = DayBatch(shard_id=1, items=[(5, 1, "y")])
        forward = merged_items([batch0, batch1])
        reversed_ = merged_items([batch1, batch0])
        assert forward == reversed_

    def test_digest_excludes_wall_time(self):
        items = [(10, 1, (_post(1), frozenset()))]
        a, b = hashlib.sha256(), hashlib.sha256()
        digest_batch(a, DayBatch(shard_id=0, items=list(items), gen_wall_us=1.0))
        digest_batch(b, DayBatch(shard_id=0, items=list(items), gen_wall_us=99.0))
        assert a.hexdigest() == b.hexdigest()


@pytest.mark.slow
class TestPinnedFingerprint:
    """The clean seed-2024 reference study of the equivalence matrix: its
    fingerprint is pinned, so any change to the output bytes fails here.
    The pin may change only with a reason recorded in CHANGES.md."""

    def test_study_fingerprint_matches_pin(self, reference):
        assert reference.fingerprint["study"] == TINY_STUDY_FINGERPRINT

    def test_shard_digest_log_shape(self, reference):
        digests = reference.world.shard_digest_log
        assert digests, "the engine must record per-shard digests"
        n_shards = SimulationConfig.tiny().sim_shards
        assert all(len(day) == n_shards for day in digests.values())


class TestShardSegmentVerification:
    def test_divergent_digests_rejected(self):
        pipeline = MeasurementPipeline(World(SimulationConfig.tiny()))
        pipeline.world.shard_digest_log = {123: ("aa", "bb", "cc", "dd")}
        pipeline._expected_shard_segment = {
            "day_us": 123,
            "digests": ("aa", "bb", "cc", "ee"),
        }
        with pytest.raises(CheckpointError):
            pipeline._verify_shard_segment()

    def test_missing_day_rejected(self):
        pipeline = MeasurementPipeline(World(SimulationConfig.tiny()))
        pipeline.world.shard_digest_log = {}
        pipeline._expected_shard_segment = {"day_us": 123, "digests": ("aa",)}
        with pytest.raises(CheckpointError):
            pipeline._verify_shard_segment()

    def test_matching_segment_accepted(self):
        pipeline = MeasurementPipeline(World(SimulationConfig.tiny()))
        pipeline.world.shard_digest_log = {123: ("aa", "bb")}
        pipeline._expected_shard_segment = {"day_us": 123, "digests": ("aa", "bb")}
        pipeline._verify_shard_segment()  # must not raise
