"""End-to-end integration tests spanning several subsystems.

These tests run complete protocol executions and check paper-level claims:
the accuracy and agreement of the size estimate across engines and variants,
the composition scheme driving a downstream protocol, the contrast between
uniform-dense and leader-driven termination behaviour (Theorems 3.13 / 4.1),
and, in a slow-marked test, a run with the paper's own constants.
"""

from __future__ import annotations

import math

import pytest

from repro.core.array_simulator import LogSizeVectorProtocol, expected_convergence_time
from repro.core.composition import RestartComposition, stage_signal_reached
from repro.core.leader_terminating import (
    LeaderTerminatingSizeEstimation,
    all_agents_terminated,
)
from repro.core.log_size_estimation import (
    LogSizeEstimationProtocol,
    all_agents_done,
    estimate_error,
)
from repro.core.parameters import ProtocolParameters
from repro.core.synthetic_coin import SyntheticCoinLogSizeEstimation, all_workers_done
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorSimulator
from repro.protocols.approximate_counting import AlistarhApproximateCounting
from repro.protocols.leader_election import NonuniformCounterLeaderElection
from repro.termination.definitions import TerminationSpec
from repro.termination.impossibility import termination_time_sweep


class TestAllVariantsAgree:
    """The three size-estimation implementations agree on what they compute."""

    N = 96
    FAST = ProtocolParameters.fast_test()

    def test_estimates_agree_across_variants(self, run_to_done):
        target = math.log2(self.N)
        estimates = {}

        simulation = Simulation(LogSizeEstimationProtocol(self.FAST), self.N, seed=1)
        simulation.run_until(all_agents_done, max_parallel_time=50_000)
        estimates["sequential"] = estimate_error(simulation)["mean_estimate"]

        array_result = run_to_done(
            VectorSimulator(LogSizeVectorProtocol(self.FAST), self.N, seed=1), 5_000
        )
        estimates["array"] = array_result["final_estimate_mean"]

        coin = Simulation(SyntheticCoinLogSizeEstimation(self.FAST), self.N, seed=1)
        coin.run_until(all_workers_done, max_parallel_time=50_000)
        worker_outputs = [s.output for s in coin.states if s.output is not None]
        estimates["synthetic_coin"] = sum(worker_outputs) / len(worker_outputs)

        for name, value in estimates.items():
            assert abs(value - target) < 4.5, f"{name} estimate {value} too far from {target}"
        # All three estimate the same quantity, so they should agree pairwise
        # within the sum of their tolerances.
        values = list(estimates.values())
        assert max(values) - min(values) < 6.0


class TestCompositionEndToEnd:
    def test_size_estimate_drives_downstream_nonuniform_protocol(self):
        """The Section 1.1 pipeline: weak estimate -> phase clock -> downstream.

        The downstream protocol is the Figure-1 nonuniform counter protocol,
        uniformised by receiving its threshold from the live size estimate.
        """
        downstream = NonuniformCounterLeaderElection(counter_threshold=1)

        def configure(protocol, estimate):
            protocol.counter_threshold = 5 * estimate

        downstream.configure_estimate = lambda estimate: configure(downstream, estimate)
        composition = RestartComposition(downstream, stage_length_factor=40)
        simulation = Simulation(composition, 64, seed=2)
        simulation.run_until(stage_signal_reached, max_parallel_time=5_000)
        # The composition delivered an estimate-derived threshold well above
        # the hard-coded placeholder of 1.
        assert downstream.counter_threshold >= 15
        # And the downstream protocol has been running: candidates were
        # eliminated and the remaining candidate count is sane.
        candidates = simulation.count_where(
            lambda state: composition.output(state) is True
        )
        assert 1 <= candidates < 64


class TestTerminationContrast:
    """Theorem 4.1 vs Theorem 3.13, measured side by side."""

    def test_dense_uniform_flat_vs_leader_growing(self):
        spec = TerminationSpec(terminated_predicate=lambda state: state.terminated)
        sizes = [32, 128]

        dense = termination_time_sweep(
            protocol_factory=lambda: NonuniformCounterLeaderElection(counter_threshold=8),
            spec=spec,
            population_sizes=sizes,
            runs_per_size=2,
            max_parallel_time=100.0,
            seed=3,
            check_interval=16,
        )
        leader = termination_time_sweep(
            protocol_factory=lambda: LeaderTerminatingSizeEstimation(
                params=ProtocolParameters.fast_test(),
                phase_count=8,
                termination_rounds_factor=1,
            ),
            spec=spec,
            population_sizes=sizes,
            runs_per_size=2,
            max_parallel_time=50_000.0,
            seed=3,
        )
        dense_ratio = dense[-1].mean_time / dense[0].mean_time
        leader_ratio = leader[-1].mean_time / leader[0].mean_time
        # The uniform dense protocol's termination time stays flat while the
        # leader-driven protocol's termination time grows with n.
        assert dense_ratio < 2.0
        assert leader_ratio > dense_ratio

    def test_leader_terminating_protocol_is_accurate_and_terminates(self):
        protocol = LeaderTerminatingSizeEstimation(
            params=ProtocolParameters.fast_test(),
            phase_count=16,
            termination_rounds_factor=2,
        )
        simulation = Simulation(protocol, 64, seed=4)
        simulation.run_until(all_agents_terminated, max_parallel_time=100_000)
        outputs = {protocol.output(state) for state in simulation.states}
        assert len(outputs) == 1
        (value,) = outputs
        assert abs(value - math.log2(64)) < 4.5


class TestPaperConstants:
    @pytest.mark.slow
    def test_paper_constants_at_moderate_population(self, run_to_done):
        """One run with the paper's constants (clock 95, epochs 5).

        Uses the vectorised engine; checks the Figure 2 convergence criterion
        and the in-practice additive error of 2 reported in Appendix C.
        """
        params = ProtocolParameters.paper()
        n = 512
        simulator = VectorSimulator(LogSizeVectorProtocol(params), n, seed=2019)
        result = run_to_done(simulator, 4 * expected_convergence_time(n, params))
        assert result["convergence_time"] is not None
        assert result["max_additive_error"] <= 2.5
        # O(log^2 n) with the paper's constants: the convergence time should be
        # within a small factor of the a-priori estimate.
        assert result["convergence_time"] < 2 * expected_convergence_time(n, params)
