"""The sampler must be a drop-in replacement for random.choices in the engine."""

import random

import pytest

from repro.simulation.sampling import CumulativeSampler, SamplingError


class TestCumulativeSampler:
    def test_stream_identical_to_rng_choices(self):
        """The whole point: swapping the sampler in must not move a single
        draw of a seeded RNG relative to rng.choices(weights=...)."""
        population = list(range(500))
        weights = [random.Random(1).random() + 0.01 for _ in population]
        sampler = CumulativeSampler(population, weights)

        rng_a = random.Random(99)
        rng_b = random.Random(99)
        for k in (1, 3, 10, 50):
            assert sampler.sample_k(rng_a, k) == rng_b.choices(population, weights=weights, k=k)
        # And the generators themselves stay in lockstep afterwards.
        assert rng_a.random() == rng_b.random()

    def test_single_sample_matches_choices(self):
        sampler = CumulativeSampler(["a", "b", "c"], [1.0, 5.0, 2.0])
        rng_a = random.Random(7)
        rng_b = random.Random(7)
        for _ in range(200):
            assert sampler.sample(rng_a) == rng_b.choices(
                ["a", "b", "c"], weights=[1.0, 5.0, 2.0], k=1
            )[0]

    def test_incremental_append_equals_bulk_build(self):
        pairs = [(i, 0.5 + (i % 7)) for i in range(100)]
        bulk = CumulativeSampler([p for p, _ in pairs], [w for _, w in pairs])
        incremental = CumulativeSampler()
        for item, weight in pairs:
            incremental.append(item, weight)
        assert incremental.items == bulk.items
        rng_a, rng_b = random.Random(3), random.Random(3)
        assert [incremental.sample(rng_a) for _ in range(300)] == [
            bulk.sample(rng_b) for _ in range(300)
        ]

    def test_items_alias_sees_appends(self):
        sampler = CumulativeSampler()
        alias = sampler.items
        sampler.append("x", 1.0)
        assert alias == ["x"]

    def test_default_weights_are_uniform(self):
        sampler = CumulativeSampler(["a", "b", "c"])
        rng_a, rng_b = random.Random(5), random.Random(5)
        for _ in range(200):
            assert sampler.sample(rng_a) == rng_b.choices(["a", "b", "c"], k=1)[0]

    def test_empty_sampler_is_falsy_and_raises(self):
        sampler = CumulativeSampler()
        assert not sampler
        assert len(sampler) == 0
        with pytest.raises(SamplingError):
            sampler.sample(random.Random(0))

    def test_rejects_negative_weight_and_zero_total(self):
        sampler = CumulativeSampler()
        with pytest.raises(SamplingError):
            sampler.append("x", -1.0)
        zero = CumulativeSampler(["x"], [0.0])
        with pytest.raises(SamplingError):
            zero.sample(random.Random(0))

    def test_mismatched_weights_rejected(self):
        with pytest.raises(SamplingError):
            CumulativeSampler(["a", "b"], [1.0])
