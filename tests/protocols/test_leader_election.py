"""Tests for the leader-election baselines."""

from __future__ import annotations

import pytest

from repro.engine.simulator import Simulation
from repro.exceptions import ProtocolError
from repro.protocols.leader_election import (
    CounterLeaderState,
    NonuniformCounterLeaderElection,
)


class TestNonuniformCounterProtocol:
    def test_threshold_validation(self):
        with pytest.raises(ProtocolError):
            NonuniformCounterLeaderElection(counter_threshold=0)

    def test_not_uniform(self):
        assert NonuniformCounterLeaderElection(10).is_uniform is False

    def test_initial_state(self):
        protocol = NonuniformCounterLeaderElection(5)
        state = protocol.initial_state(3)
        assert state == CounterLeaderState(candidate=True, counter=0, terminated=False)

    def test_counter_reaching_threshold_produces_termination_signal(self, rng):
        protocol = NonuniformCounterLeaderElection(counter_threshold=2, eliminate_on_meeting=False)
        first = protocol.initial_state(0)
        second = protocol.initial_state(1)
        first, second = protocol.transition(first, second, rng)
        assert first.counter == 1 and not first.terminated
        first, second = protocol.transition(first, second, rng)
        assert first.terminated

    def test_termination_signal_spreads(self):
        protocol = NonuniformCounterLeaderElection(counter_threshold=3)
        simulation = Simulation(protocol, 50, seed=3)
        simulation.run_until(
            lambda sim: all(state.terminated for state in sim.states),
            max_parallel_time=500,
        )
        assert all(state.terminated for state in simulation.states)

    def test_termination_time_does_not_grow_with_population(self):
        """The operational content of Theorem 4.1 for this uniform-transition protocol.

        The same transition algorithm (fixed threshold) deployed into larger
        populations produces its termination signal after roughly the same
        parallel time, because the signal only needs some agent to have
        `threshold` interactions.
        """
        protocol_factory = lambda: NonuniformCounterLeaderElection(counter_threshold=8)
        times = {}
        for n in (32, 256):
            simulation = Simulation(protocol_factory(), n, seed=4)
            times[n] = simulation.run_until(
                lambda sim: any(state.terminated for state in sim.states),
                max_parallel_time=200,
                check_interval=8,
            )
        assert times[256] < 4 * max(times[32], 1.0)

    def test_candidate_elimination_reduces_candidates(self):
        protocol = NonuniformCounterLeaderElection(counter_threshold=1_000_000)
        simulation = Simulation(protocol, 40, seed=5)
        simulation.run_parallel_time(100)
        candidates = simulation.count_where(lambda state: state.candidate)
        assert 1 <= candidates < 40

    def test_state_signature_round_trip(self):
        protocol = NonuniformCounterLeaderElection(counter_threshold=4)
        state = CounterLeaderState(candidate=False, counter=3, terminated=True)
        assert protocol.state_signature(state) == (False, 3, True)
