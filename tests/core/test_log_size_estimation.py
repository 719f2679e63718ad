"""Tests for the main protocol (Protocol 1, Theorem 3.1)."""

from __future__ import annotations

import math

import pytest

from repro.core.fields import Role
from repro.core.log_size_estimation import (
    LogSizeEstimationProtocol,
    all_agents_done,
    estimate_error,
    worker_count,
)
from repro.core.parameters import ProtocolParameters
from repro.engine.simulator import Simulation


def _converged_simulation(n: int, seed: int, params: ProtocolParameters) -> Simulation:
    protocol = LogSizeEstimationProtocol(params)
    simulation = Simulation(protocol, n, seed=seed)
    simulation.run_until(all_agents_done, max_parallel_time=50_000)
    return simulation


class TestBasics:
    def test_leaderless_identical_initial_states(self):
        protocol = LogSizeEstimationProtocol(ProtocolParameters.fast_test())
        assert protocol.initial_state(0) == protocol.initial_state(41)
        assert protocol.is_uniform

    def test_transition_does_not_mutate_inputs(self, fast_params, rng):
        protocol = LogSizeEstimationProtocol(fast_params)
        receiver = protocol.initial_state(0)
        sender = protocol.initial_state(1)
        protocol.transition(receiver, sender, rng)
        assert receiver == protocol.initial_state(0)
        assert sender == protocol.initial_state(1)

    def test_first_interaction_assigns_roles(self, fast_params, rng):
        protocol = LogSizeEstimationProtocol(fast_params)
        receiver, sender = protocol.transition(
            protocol.initial_state(0), protocol.initial_state(1), rng
        )
        assert {receiver.role, sender.role} == {Role.WORKER, Role.STORAGE}

    def test_output_none_before_completion(self, fast_params):
        protocol = LogSizeEstimationProtocol(fast_params)
        assert protocol.output(protocol.initial_state(0)) is None

    def test_describe_mentions_constants(self, fast_params):
        assert "clock" in LogSizeEstimationProtocol(fast_params).describe()


class TestConvergedRun:
    """One converged run, inspected from several angles (shared for speed)."""

    N = 96
    SEED = 11

    @pytest.fixture(scope="class")
    def converged(self):
        return _converged_simulation(self.N, self.SEED, ProtocolParameters.fast_test())

    def test_all_agents_done(self, converged):
        assert all_agents_done(converged)

    def test_every_agent_reports_an_estimate(self, converged):
        assert all(
            converged.protocol.output(state) is not None for state in converged.states
        )

    def test_all_agents_agree_on_single_value(self, converged):
        values = {converged.protocol.output(state) for state in converged.states}
        assert len(values) == 1

    def test_estimate_close_to_log2_n(self, converged):
        error = estimate_error(converged)
        # With the scaled-down test constants the averaging uses fewer samples
        # than the paper's K >= 4 log2 n, so the tolerance is looser than 5.7's
        # in-practice value of 2, but still a constant additive error.
        assert error["max_additive_error"] < 4.0

    def test_partition_roughly_balanced(self, converged):
        workers = worker_count(converged)
        storages = converged.count_where(lambda state: state.role is Role.STORAGE)
        assert workers + storages == self.N
        # Lemma 3.2: deviation beyond sqrt(n ln n) ~ 21 is very unlikely.
        assert abs(workers - self.N / 2) < 25

    def test_log_size2_in_lemma_3_8_range(self, converged):
        log_size2_values = {state.log_size2 for state in converged.states}
        assert len(log_size2_values) == 1
        (value,) = log_size2_values
        n = self.N
        assert value >= math.log2(n) - math.log2(math.log(n)) - 1
        assert value <= 2 * math.log2(n) + 3

    def test_epoch_counts_consistent_with_parameters(self, converged):
        params = converged.protocol.params
        for state in converged.states:
            assert state.epoch >= params.total_epochs(state.log_size2)


class TestReproducibilityAndRobustness:
    def test_same_seed_same_outcome(self, fast_params):
        outputs = []
        for _ in range(2):
            simulation = _converged_simulation(48, 3, fast_params)
            outputs.append(simulation.protocol.output(simulation.states[0]))
        assert outputs[0] == outputs[1]

    def test_different_population_sizes_give_increasing_estimates(self, fast_params):
        estimates = {}
        for n in (32, 256):
            simulation = _converged_simulation(n, 5, fast_params)
            estimates[n] = simulation.protocol.output(simulation.states[0])
        assert estimates[256] > estimates[32]

    def test_estimate_error_raises_before_any_output(self, fast_params):
        protocol = LogSizeEstimationProtocol(fast_params)
        simulation = Simulation(protocol, 16, seed=1)
        with pytest.raises(ValueError):
            estimate_error(simulation)

    def test_moderate_parameters_accuracy(self, moderate_params):
        simulation = _converged_simulation(128, 7, moderate_params)
        assert estimate_error(simulation)["max_additive_error"] < 3.5
