"""Tests for the randomness substrate (repro.rng)."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from repro.rng import RandomSource, max_of_geometrics


class TestGeometric:
    def test_support_starts_at_one(self, rng):
        samples = [rng.geometric() for _ in range(2000)]
        assert min(samples) == 1

    def test_mean_close_to_two_for_fair_coin(self):
        source = RandomSource(seed=7)
        samples = [source.geometric(0.5) for _ in range(20_000)]
        assert abs(statistics.fmean(samples) - 2.0) < 0.05

    def test_mean_matches_inverse_probability(self):
        source = RandomSource(seed=8)
        samples = [source.geometric(0.25) for _ in range(20_000)]
        assert abs(statistics.fmean(samples) - 4.0) < 0.15

    def test_probability_one_always_returns_one(self):
        source = RandomSource(seed=9)
        assert all(source.geometric(1.0) == 1 for _ in range(100))

    def test_rejects_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            rng.geometric(0.0)
        with pytest.raises(ValueError):
            rng.geometric(1.5)


class TestMaxOfGeometrics:
    def test_expectation_near_log2_n(self):
        source = np.random.default_rng(1)
        samples = [max_of_geometrics(source, 1024) for _ in range(400)]
        mean = statistics.fmean(samples)
        # Lemma D.4: log2(N) + 1 < E[M] < log2(N) + 3/2 for N >= 50.
        assert math.log2(1024) + 0.5 < mean < math.log2(1024) + 2.0

    def test_rejects_nonpositive_count(self, rng):
        with pytest.raises(ValueError):
            max_of_geometrics(rng.raw(), 0)

    def test_maximum_at_least_each_sample(self):
        source = RandomSource(seed=2)
        assert source.max_of_geometrics(100) >= 1


class TestRandomSource:
    def test_reproducible_with_same_seed(self):
        first = RandomSource(seed=42)
        second = RandomSource(seed=42)
        assert [first.geometric() for _ in range(50)] == [
            second.geometric() for _ in range(50)
        ]

    def test_uniform_pair_returns_distinct_agents(self):
        source = RandomSource(seed=3)
        for _ in range(500):
            receiver, sender = source.uniform_pair(10)
            assert receiver != sender
            assert 0 <= receiver < 10
            assert 0 <= sender < 10

    def test_uniform_pair_rejects_tiny_population(self):
        source = RandomSource(seed=3)
        with pytest.raises(ValueError):
            source.uniform_pair(1)

    def test_uniform_pair_covers_all_ordered_pairs(self):
        source = RandomSource(seed=4)
        seen = {source.uniform_pair(3) for _ in range(2000)}
        assert seen == {(a, b) for a in range(3) for b in range(3) if a != b}

    def test_fair_bit_is_binary_and_balanced(self):
        source = RandomSource(seed=5)
        bits = [source.fair_bit() for _ in range(5000)]
        assert set(bits) <= {0, 1}
        assert 0.45 < statistics.fmean(bits) < 0.55

    def test_sample_indices_distinct(self):
        source = RandomSource(seed=6)
        indices = source.sample_indices(20, 10)
        assert len(set(indices)) == 10

    def test_sample_indices_rejects_oversampling(self):
        source = RandomSource(seed=6)
        with pytest.raises(ValueError):
            source.sample_indices(5, 6)

    def test_spawn_gives_independent_stream(self):
        parent = RandomSource(seed=10)
        child = parent.spawn()
        assert child.seed != parent.seed
