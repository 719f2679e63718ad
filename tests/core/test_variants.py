"""Tests for the protocol variants: synthetic coin (App. B), leader-terminating
(Thm 3.13) and probability-1 upper bound (Sec. 3.3)."""

from __future__ import annotations

import math

import pytest

from repro.core.leader_terminating import (
    LeaderTerminatingSizeEstimation,
    all_agents_terminated,
    termination_happened_after_convergence,
)
from repro.core.parameters import ProtocolParameters
from repro.core.probability_one import (
    ProbabilityOneUpperBoundProtocol,
    upper_bound_holds,
)
from repro.core.synthetic_coin import (
    CoinRole,
    SyntheticCoinLogSizeEstimation,
    all_workers_done,
)
from repro.engine.simulator import Simulation
from repro.exceptions import ProtocolError


class TestSyntheticCoinVariant:
    @pytest.fixture(scope="class")
    def converged(self):
        protocol = SyntheticCoinLogSizeEstimation(ProtocolParameters.fast_test())
        simulation = Simulation(protocol, 96, seed=13)
        simulation.run_until(all_workers_done, max_parallel_time=50_000)
        simulation.run_parallel_time(50)  # let the output epidemic finish
        return simulation

    def test_identical_initial_states(self):
        protocol = SyntheticCoinLogSizeEstimation(ProtocolParameters.fast_test())
        assert protocol.initial_state(0) == protocol.initial_state(9)

    def test_roles_split_between_workers_and_coins(self, converged):
        workers = converged.count_where(lambda s: s.role is CoinRole.WORKER)
        coins = converged.count_where(lambda s: s.role is CoinRole.COIN)
        assert workers + coins == 96
        assert abs(workers - 48) < 25

    def test_workers_complete_all_epochs(self, converged):
        assert all_workers_done(converged)

    def test_estimate_accuracy(self, converged):
        target = math.log2(96)
        estimates = [
            state.output for state in converged.states if state.output is not None
        ]
        assert estimates
        assert max(abs(value - target) for value in estimates) < 4.5

    def test_every_agent_eventually_reports(self, converged):
        assert all(state.output is not None for state in converged.states)

    def test_transition_uses_no_explicit_randomness(self):
        """The transition is deterministic given the ordered pair of states.

        (All randomness comes from the scheduler's sender/receiver choice.)
        """
        protocol = SyntheticCoinLogSizeEstimation(ProtocolParameters.fast_test())
        from repro.rng import RandomSource

        first = protocol.initial_state(0)
        second = protocol.initial_state(1)
        results = {
            protocol.transition(first, second, RandomSource(seed=s))[0].signature()
            for s in range(5)
        }
        assert len(results) == 1


class TestLeaderTerminatingVariant:
    @pytest.fixture(scope="class")
    def terminated(self):
        protocol = LeaderTerminatingSizeEstimation(
            params=ProtocolParameters.fast_test(),
            phase_count=16,
            termination_rounds_factor=2,
        )
        simulation = Simulation(protocol, 48, seed=3)
        simulation.run_until(all_agents_terminated, max_parallel_time=100_000)
        return simulation

    def test_parameter_validation(self):
        with pytest.raises(ProtocolError):
            LeaderTerminatingSizeEstimation(termination_rounds_factor=0)

    def test_agent_zero_is_leader(self):
        protocol = LeaderTerminatingSizeEstimation(params=ProtocolParameters.fast_test())
        assert protocol.initial_state(0).is_leader
        assert not protocol.initial_state(1).is_leader

    def test_everyone_terminates(self, terminated):
        assert all_agents_terminated(terminated)

    def test_termination_after_convergence(self, terminated):
        assert termination_happened_after_convergence(terminated)

    def test_announced_estimate_is_accurate(self, terminated):
        target = math.log2(48)
        values = {terminated.protocol.output(state) for state in terminated.states}
        assert all(value is not None for value in values)
        assert all(abs(value - target) < 4.5 for value in values)

    def test_termination_time_grows_with_population(self):
        """Termination is genuinely delayed as n grows (leader needed, Thm 4.1).

        Both the number of clock wraps (proportional to ``logSize2``) and the
        time per wrap (the new reading must spread before the leader can tick)
        grow with ``n``, so the leader-driven signal is produced later and
        later — in contrast with the flat curve of the uniform dense protocol
        measured in ``tests/termination``.
        """
        params = ProtocolParameters.fast_test()
        times = {}
        for n in (16, 256):
            protocol = LeaderTerminatingSizeEstimation(
                params=params, phase_count=8, termination_rounds_factor=1
            )
            simulation = Simulation(protocol, n, seed=5)
            times[n] = simulation.run_until(
                lambda simulation: any(state.terminated for state in simulation.states),
                max_parallel_time=100_000,
            )
        assert times[256] > 1.5 * times[16]


class TestProbabilityOneUpperBound:
    def test_slack_validation(self):
        with pytest.raises(ValueError):
            ProbabilityOneUpperBoundProtocol(upper_bound_slack=-1)

    def test_output_defined_from_the_start(self):
        protocol = ProbabilityOneUpperBoundProtocol(params=ProtocolParameters.fast_test())
        assert protocol.output(protocol.initial_state(0)) == 1.0  # backup level 0 + 1

    def test_upper_bound_holds_after_stabilisation(self):
        protocol = ProbabilityOneUpperBoundProtocol(
            params=ProtocolParameters.fast_test(), upper_bound_slack=3.7
        )
        simulation = Simulation(protocol, 64, seed=9)
        # Run long enough for the slow backup to stabilise (O(n) time).
        simulation.run_parallel_time(3_000)
        assert upper_bound_holds(simulation)

    def test_upper_bound_not_absurdly_loose(self):
        protocol = ProbabilityOneUpperBoundProtocol(
            params=ProtocolParameters.fast_test(), upper_bound_slack=3.7
        )
        simulation = Simulation(protocol, 64, seed=10)
        simulation.run_parallel_time(3_000)
        target = math.log2(64)
        values = [protocol.output(state) for state in simulation.states]
        assert all(value <= target + 12 for value in values)

    def test_diagnostic_accessors(self):
        protocol = ProbabilityOneUpperBoundProtocol(params=ProtocolParameters.fast_test())
        state = protocol.initial_state(0)
        assert protocol.fast_output(state) is None
        assert protocol.backup_output(state) == 0
