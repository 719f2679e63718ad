"""Tests for the counting baselines: Alistarh approximate, leader exact, backup."""

from __future__ import annotations

import math

import pytest

from repro.engine.simulator import Simulation
from repro.exceptions import ProtocolError
from repro.protocols.approximate_counting import (
    AlistarhApproximateCounting,
    ApproximateCountingState,
    approximate_counting_converged,
)
from repro.protocols.exact_backup import ACTIVE, BackupState, ExactUpperBoundBackup
from repro.protocols.exact_counting_leader import LeaderExactCounting


class TestAlistarhApproximateCounting:
    def test_initial_state_has_no_value(self):
        protocol = AlistarhApproximateCounting()
        assert protocol.initial_state(0) == ApproximateCountingState(value=None)

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            AlistarhApproximateCounting(success_probability=1.0)

    def test_converges_to_common_value_within_multiplicative_bounds(self):
        n = 512
        protocol = AlistarhApproximateCounting()
        simulation = Simulation(protocol, n, seed=1)
        simulation.run_until(approximate_counting_converged, max_parallel_time=300)
        values = {protocol.output(state) for state in simulation.states}
        assert len(values) == 1
        (value,) = values
        # Lemma D.7 (applied to n agents): within [log n - log ln n, 2 log n] w.h.p.
        assert value >= math.log2(n) - math.log2(math.log(n)) - 2
        assert value <= 2 * math.log2(n) + 2

    def test_transition_takes_maximum(self, rng):
        protocol = AlistarhApproximateCounting()
        receiver, sender = protocol.transition(
            ApproximateCountingState(value=3), ApproximateCountingState(value=9), rng
        )
        assert receiver.value == 9
        assert sender.value == 9

    def test_convergence_time_is_logarithmic(self):
        protocol = AlistarhApproximateCounting()
        simulation = Simulation(protocol, 1024, seed=2)
        elapsed = simulation.run_until(
            approximate_counting_converged, max_parallel_time=300
        )
        assert elapsed < 10 * math.log2(1024)


class TestLeaderExactCounting:
    def test_patience_validated(self):
        with pytest.raises(ProtocolError):
            LeaderExactCounting(patience=0)

    def test_agent_zero_is_leader(self):
        protocol = LeaderExactCounting()
        assert protocol.initial_state(0).is_leader
        assert not protocol.initial_state(1).is_leader

    def test_announces_exact_population_size(self):
        n = 30
        protocol = LeaderExactCounting(patience=3)
        simulation = Simulation(protocol, n, seed=3)
        simulation.run_until(
            lambda sim: all(state.terminated for state in sim.states),
            max_parallel_time=5_000,
        )
        announced = {protocol.output(state) for state in simulation.states}
        assert announced == {n}

    def test_termination_time_grows_with_population(self):
        """The leader-driven protocol delays its signal as n grows (non-dense start)."""
        times = {}
        for n in (16, 128):
            protocol = LeaderExactCounting(patience=2)
            simulation = Simulation(protocol, n, seed=4)
            times[n] = simulation.run_until(
                lambda sim: any(state.terminated for state in sim.states),
                max_parallel_time=20_000,
            )
        assert times[128] > 2 * times[16]


class TestExactUpperBoundBackup:
    def test_initial_state(self):
        assert ExactUpperBoundBackup().initial_state(0) == BackupState(
            kind=ACTIVE, level=0, best=0
        )

    @pytest.mark.parametrize("n", [16, 33, 100])
    def test_stabilizes_to_floor_log2(self, n):
        protocol = ExactUpperBoundBackup()
        simulation = Simulation(protocol, n, seed=5)

        def stabilized(sim):
            # Merging has finished when no two active tokens share a level;
            # the run has stabilised once every ``best`` is the top level.
            levels = [state.level for state in sim.states if state.kind == ACTIVE]
            top = max(max(state.level, state.best) for state in sim.states)
            return len(levels) == len(set(levels)) and all(
                state.best == top for state in sim.states
            )

        simulation.run_until(stabilized, max_parallel_time=50 * n)
        values = {protocol.output(state) for state in simulation.states}
        assert values == {math.floor(math.log2(n))}
        # The active levels spell the binary representation of n.
        levels = sorted(
            state.level for state in simulation.states if state.kind == ACTIVE
        )
        assert levels == [bit for bit in range(n.bit_length()) if n >> bit & 1]

    def test_best_value_never_exceeds_floor_log2(self):
        n = 48
        protocol = ExactUpperBoundBackup()
        simulation = Simulation(protocol, n, seed=6)
        bound = math.floor(math.log2(n))
        for _ in range(20):
            simulation.run_parallel_time(5)
            assert all(state.best <= bound for state in simulation.states)

    def test_merge_transition(self, rng):
        protocol = ExactUpperBoundBackup()
        receiver, sender = protocol.transition(
            BackupState(ACTIVE, 2, 2), BackupState(ACTIVE, 2, 2), rng
        )
        assert receiver.kind == ACTIVE and receiver.level == 3
        assert sender.kind == "f" and sender.best == 3
