"""Tests for the agent engine's metric collection."""

from __future__ import annotations

import pytest

from repro.engine.metrics import SimulationMetrics, StateUsageTracker


class TestStateUsageTracker:
    def test_counts_distinct_signatures(self):
        tracker = StateUsageTracker()
        tracker.observe("a")
        tracker.observe("a")
        tracker.observe("b")
        tracker.observe_many(["c", "b"])
        assert tracker.distinct_states == 3


class TestSimulationMetrics:
    def test_records_interactions_and_nulls(self):
        metrics = SimulationMetrics(population_size=10)
        metrics.record_interaction(changed=True)
        metrics.record_interaction(changed=False)
        metrics.record_interaction(changed=False)
        assert metrics.interactions == 3
        assert metrics.null_interactions == 2
        assert metrics.parallel_time == pytest.approx(0.3)
