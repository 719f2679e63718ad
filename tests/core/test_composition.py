"""Tests for the restart-based composition scheme (Section 1.1)."""

from __future__ import annotations

import pytest

from repro.core.composition import (
    RestartComposition,
    StagedComposition,
    stage_signal_reached,
)
from repro.core.parameters import ProtocolParameters
from repro.engine.simulator import Simulation
from repro.exceptions import CompositionError
from repro.protocols.approximate_counting import AlistarhApproximateCounting
from repro.protocols.leader_election import (
    FiniteStatePairwiseElimination,
    NonuniformCounterLeaderElection,
)


class TestValidation:
    def test_requires_at_least_one_stage(self):
        with pytest.raises(CompositionError):
            StagedComposition(stages=[], stage_length_factor=10)

    def test_requires_positive_stage_length(self):
        with pytest.raises(CompositionError):
            StagedComposition(
                stages=[FiniteStatePairwiseElimination().as_agent_protocol()],
                stage_length_factor=0,
            )


class TestRestartComposition:
    def test_downstream_protocol_runs_and_converges(self):
        composition = RestartComposition(
            AlistarhApproximateCounting(), stage_length_factor=30
        )
        simulation = Simulation(composition, 64, seed=1)
        simulation.run_until(stage_signal_reached, max_parallel_time=5_000)
        outputs = set(simulation.outputs())
        assert len(outputs) == 1
        assert None not in outputs

    def test_signal_arrives_after_downstream_convergence_time(self):
        """The phase clock must not fire before f(s) interactions per agent."""
        composition = RestartComposition(
            AlistarhApproximateCounting(), stage_length_factor=30
        )
        simulation = Simulation(composition, 64, seed=2)
        elapsed = simulation.run_until(stage_signal_reached, max_parallel_time=5_000)
        # f(s) = 30 * s with s >= 3; each agent has ~2 interactions per unit
        # time, so the signal cannot appear before ~45 units of parallel time.
        assert elapsed > 20

    def test_estimates_agree_across_population(self):
        composition = RestartComposition(
            AlistarhApproximateCounting(), stage_length_factor=20
        )
        simulation = Simulation(composition, 48, seed=3)
        simulation.run_until(stage_signal_reached, max_parallel_time=5_000)
        estimates = {state.estimate for state in simulation.states}
        assert len(estimates) == 1

    def test_describe(self):
        composition = RestartComposition(
            AlistarhApproximateCounting(), stage_length_factor=20
        )
        assert "RestartComposition" in composition.describe()


class TestStagedComposition:
    def test_two_stages_run_in_sequence(self):
        stages = [
            AlistarhApproximateCounting(),
            FiniteStatePairwiseElimination().as_agent_protocol(),
        ]
        composition = StagedComposition(stages=stages, stage_length_factor=25)
        simulation = Simulation(composition, 48, seed=4)
        simulation.run_until(
            lambda sim: all(state.stage == 1 for state in sim.states),
            max_parallel_time=5_000,
        )
        # Stage 1 is leader election started afresh: leader count should be
        # between 1 and n and strictly decreasing over time.
        leaders = simulation.count_where(
            lambda state: composition.output(state) is True
        )
        assert 1 <= leaders <= 48

    def test_stage_index_never_exceeds_last_stage(self):
        stages = [
            AlistarhApproximateCounting(),
            FiniteStatePairwiseElimination().as_agent_protocol(),
        ]
        composition = StagedComposition(stages=stages, stage_length_factor=10)
        simulation = Simulation(composition, 32, seed=5)
        simulation.run_parallel_time(1_000)
        assert all(state.stage <= 1 for state in simulation.states)

    def test_uniformising_a_nonuniform_protocol_via_hook(self):
        """The configure_estimate hook feeds the weak size estimate to a
        nonuniform downstream protocol (the Figure-1 counter protocol)."""
        downstream = NonuniformCounterLeaderElection(counter_threshold=1)
        observed = []

        def configure_estimate(estimate: int) -> None:
            downstream.counter_threshold = 10 * estimate
            observed.append(estimate)

        downstream.configure_estimate = configure_estimate
        composition = RestartComposition(downstream, stage_length_factor=40)
        simulation = Simulation(composition, 48, seed=6)
        simulation.run_parallel_time(50)
        assert observed, "the estimate hook was never invoked"
        assert all(estimate >= 3 for estimate in observed)
        assert downstream.counter_threshold >= 30

    def test_state_signature_includes_stage_and_estimate(self):
        composition = RestartComposition(
            AlistarhApproximateCounting(), stage_length_factor=10
        )
        state = composition.initial_state(0)
        signature = composition.state_signature(state)
        assert signature[0] is None  # estimate not yet drawn
        assert signature[2] == 0  # stage
