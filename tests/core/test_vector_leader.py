"""Tests for the vectorised leader-terminating protocol (Theorem 3.13)."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.core.leader_terminating import (
    LeaderTerminatingSizeEstimation,
    all_agents_terminated,
)
from repro.core.parameters import ProtocolParameters
from repro.core.vector_leader import (
    LeaderTerminatingVectorProtocol,
    expected_termination_time,
)
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorSimulator
from repro.exceptions import ProtocolError
from repro.harness.parallel import build_vector_trials, run_trial

FAST = ProtocolParameters.fast_test()
PHASES = 16
K2 = 2


def run_vector(
    run_to_done, population_size, seed, phase_count=PHASES, budget_factor=4.0
):
    kernel = LeaderTerminatingVectorProtocol(
        FAST, phase_count=phase_count, termination_rounds_factor=K2
    )
    simulator = VectorSimulator(kernel, population_size, seed=seed)
    budget = budget_factor * expected_termination_time(
        population_size, FAST, phase_count, K2
    )
    return run_to_done(simulator, budget), kernel


class TestValidation:
    def test_phase_count_too_small_rejected(self):
        with pytest.raises(ProtocolError):
            LeaderTerminatingVectorProtocol(FAST, phase_count=2)

    def test_termination_factor_validated(self):
        with pytest.raises(ProtocolError):
            LeaderTerminatingVectorProtocol(FAST, termination_rounds_factor=0)


class TestTermination:
    @pytest.fixture(scope="class")
    def outcome(self, run_to_done):
        return run_vector(run_to_done, 128, seed=11)

    def test_terminates_within_budget(self, outcome):
        result, _ = outcome
        assert result["convergence_time"] is not None
        assert result["convergence_time"] > 0

    def test_every_agent_terminated(self, outcome):
        _, kernel = outcome
        assert bool(kernel.terminated.all())
        assert kernel.any_terminated()

    def test_announced_estimate_accurate(self, outcome):
        result, _ = outcome
        # Theorem 3.1's additive-error bound carries over to the announced
        # estimate when the clock fires after the underlying convergence.
        assert result["max_additive_error"] < 5.7

    def test_reproducible_per_seed(self, run_to_done):
        times = [
            run_vector(run_to_done, 96, seed=17)[0]["convergence_time"]
            for _ in range(2)
        ]
        assert times[0] == times[1]

    def test_state_bound_includes_clock_fields(self, run_to_done):
        kernel = LeaderTerminatingVectorProtocol(
            FAST, phase_count=PHASES, termination_rounds_factor=K2
        )
        simulator = VectorSimulator(kernel, 96, seed=7)
        result = run_to_done(
            simulator, 4 * expected_termination_time(96, FAST, PHASES, K2)
        )
        assert result["convergence_time"] is not None
        fields = simulator.fields
        base = (
            (fields.max_observed("log_size2") + 1)
            * (fields.max_observed("gr") + 1)
            * (fields.max_observed("time") + 1)
            * (fields.max_observed("epoch") + 1)
        )
        clock = (
            (fields.max_observed("clock_phase") + 1)
            * (fields.max_observed("clock_round") + 1)
            * 2
        )
        # The bound must multiply the leader clock and termination flag into
        # the inherited log-size product, not silently report the smaller
        # base-protocol state machine.
        assert result["distinct_state_bound"] == base * clock
        # Every phase value was realised across the run's many clock wraps.
        assert fields.max_observed("clock_phase") == PHASES - 1

    def test_timeout_reports_non_converged(self, run_to_done):
        kernel = LeaderTerminatingVectorProtocol(
            FAST, phase_count=PHASES, termination_rounds_factor=K2
        )
        result = run_to_done(VectorSimulator(kernel, 64, seed=1), 1.0)
        assert result["convergence_time"] is None


class TestCrossEngineAgreement:
    """The vector port must agree with the agent-level reference protocol."""

    def test_termination_time_same_order_of_magnitude(self, run_to_done):
        n = 64
        agent_times = []
        for seed in range(3):
            simulation = Simulation(
                LeaderTerminatingSizeEstimation(
                    params=FAST, phase_count=PHASES, termination_rounds_factor=K2
                ),
                n,
                seed=seed,
            )
            agent_times.append(
                simulation.run_until(
                    all_agents_terminated, max_parallel_time=500_000
                )
            )
        vector_times = [
            run_vector(run_to_done, n, seed=seed)[0]["convergence_time"]
            for seed in range(3)
        ]
        ratio = statistics.fmean(agent_times) / statistics.fmean(vector_times)
        # The matching-round scheduler preserves the signal time up to a
        # constant factor (measured ~0.94 at these settings).
        assert 1 / 3 < ratio < 3, (agent_times, vector_times)

    def test_accuracy_agreement(self, run_to_done):
        n = 96
        result, _ = run_vector(run_to_done, n, seed=23)
        assert result["convergence_time"] is not None
        assert result["max_additive_error"] < 5.7

        simulation = Simulation(
            LeaderTerminatingSizeEstimation(
                params=FAST, phase_count=PHASES, termination_rounds_factor=K2
            ),
            n,
            seed=23,
        )
        simulation.run_until(all_agents_terminated, max_parallel_time=500_000)
        outputs = [
            simulation.protocol.output(state) for state in simulation.states
        ]
        agent_error = max(
            abs(value - math.log2(n)) for value in outputs if value is not None
        )
        assert agent_error < 5.7

    def test_termination_time_grows_with_n(self, run_to_done):
        """Theorem 3.13's qualitative claim: the signal time grows with n.

        (The uniform dense protocols of Theorem 4.1 terminate in O(1) time;
        the initial leader is what makes the growing delay possible.)
        """
        means = {}
        for n in (64, 4096):
            times = [
                run_vector(run_to_done, n, seed=seed)[0]["convergence_time"]
                for seed in (0, 2)
            ]
            means[n] = statistics.fmean(times)
        # Measured ratio ~4.3 at these settings; any clear growth suffices.
        assert means[4096] > 1.5 * means[64], means


class TestSweepIntegration:
    def test_registered_workload_runs_through_the_driver(self):
        specs = build_vector_trials(
            population_sizes=[64],
            runs_per_size=1,
            protocol="leader-terminating",
            params=FAST,
            base_seed=2,
            phase_count=PHASES,
        )
        assert len(specs) == 1
        assert specs[0].engine == "vector"
        record = run_trial(specs[0])
        assert record.converged
        assert record.extra["engine"] == "vector"
        assert record.extra["protocol"] == "leader-terminating"
        assert record.extra["interactions"] > 0
