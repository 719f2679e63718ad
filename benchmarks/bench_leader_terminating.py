"""T-LEADER — Theorem 3.13: terminating size estimation with an initial leader.

Measures, for growing population sizes, (a) the parallel time at which the
leader-driven protocol produces its termination signal and (b) whether the
signal appeared only after the underlying size estimate had converged, plus
the accuracy of the announced estimate.  In contrast with the flat curve of
``bench_termination_density``, the signal time here grows with ``n`` — the
leader (a non-dense initial configuration) is what makes the delay possible.

Two engines run the experiment:

* the agent-level reference engine sweeps ``n = 32 .. 128`` (it is ``O(n)``
  Python per time unit, so that is its ceiling);
* the vector engine (``bench_leader_terminating_vector``) sweeps
  ``n = 10^4 .. 10^6`` (override with ``REPRO_LEADER_VECTOR_SIZES``), the
  populations the tentpole targets.

Scaled-down protocol constants are used on both engines so the sweeps finish
in minutes; the qualitative claims (termination after convergence, growth
with ``n``, accurate announced estimate) are parameter-independent.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import run_to_done
from repro.core.leader_terminating import (
    LeaderTerminatingSizeEstimation,
    all_agents_terminated,
    termination_happened_after_convergence,
)
from repro.core.parameters import ProtocolParameters
from repro.core.vector_leader import (
    LeaderTerminatingVectorProtocol,
    expected_termination_time,
)
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorSimulator
from repro.workloads.populations import sizes_from_env

SIZES = [32, 64, 128]
PARAMS = ProtocolParameters.fast_test()

#: Vector-engine sweep grid (the tentpole target is a completed trial at 10^6).
VECTOR_SIZES = sizes_from_env("REPRO_LEADER_VECTOR_SIZES", [10_000, 1_000_000])
#: Constants for the large-n vector runs.  At ``n = 10^6`` one trial is
#: ~1.5k matching rounds over 10^6-element arrays (a few minutes of numpy);
#: the paper constants (95 / 5 / 289 phases) would multiply the round count
#: by three orders of magnitude without changing the qualitative claims.
VECTOR_PARAMS = ProtocolParameters(clock_threshold_factor=2, epochs_factor=1)
VECTOR_PHASES = 3
VECTOR_K2 = 1


@pytest.mark.parametrize("population_size", SIZES)
def bench_leader_terminating_size_estimation(benchmark, population_size):
    holder = {}

    def run_to_termination():
        protocol = LeaderTerminatingSizeEstimation(
            params=PARAMS, phase_count=16, termination_rounds_factor=2
        )
        simulation = Simulation(protocol, population_size, seed=5)
        elapsed = simulation.run_until(
            all_agents_terminated, max_parallel_time=500_000
        )
        holder["simulation"] = simulation
        holder["elapsed"] = elapsed
        return elapsed

    benchmark.pedantic(run_to_termination, rounds=1, iterations=1)

    simulation = holder["simulation"]
    target = math.log2(population_size)
    outputs = [simulation.protocol.output(state) for state in simulation.states]
    error = max(abs(value - target) for value in outputs if value is not None)
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["termination_parallel_time"] = holder["elapsed"]
    benchmark.extra_info["terminated_after_convergence"] = (
        termination_happened_after_convergence(simulation)
    )
    benchmark.extra_info["max_additive_error"] = error
    assert termination_happened_after_convergence(simulation)
    assert error < 5.7


@pytest.mark.parametrize("population_size", VECTOR_SIZES)
def bench_leader_terminating_vector(benchmark, population_size):
    """Theorem 3.13 on the vector engine, at populations the agent engine
    cannot touch; the trial must complete within the benchmark budget."""
    budget = 4 * expected_termination_time(
        population_size, VECTOR_PARAMS, VECTOR_PHASES, VECTOR_K2
    )
    holder = {}

    def run_to_termination():
        kernel = LeaderTerminatingVectorProtocol(
            VECTOR_PARAMS,
            phase_count=VECTOR_PHASES,
            termination_rounds_factor=VECTOR_K2,
        )
        simulator = VectorSimulator(kernel, population_size, seed=5)
        holder["simulator"] = simulator
        holder["result"] = run_to_done(simulator, budget)
        return holder["result"]["convergence_time"]

    benchmark.pedantic(run_to_termination, rounds=1, iterations=1)

    simulator, result = holder["simulator"], holder["result"]
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["budget_parallel_time"] = budget
    benchmark.extra_info["termination_parallel_time"] = result["convergence_time"]
    benchmark.extra_info["rounds"] = simulator.rounds
    benchmark.extra_info["interactions"] = simulator.interactions
    benchmark.extra_info["max_additive_error"] = result["max_additive_error"]
    assert result["convergence_time"] is not None, (
        f"vector leader-terminating trial at n={population_size} did not "
        f"finish within its budget of {budget} parallel time"
    )
