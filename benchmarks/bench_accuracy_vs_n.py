"""T-ACC — Theorem 3.1 accuracy: additive error of the estimate vs the claimed 5.7.

For each population size, run the protocol (paper constants) several times and
record the maximum additive error ``|estimate - log2 n|`` over agents and
runs.  Theorem 3.1 claims error <= 5.7 with probability 1 - 9/n; Appendix C
observes error <= 2 in practice.  Both numbers are attached for comparison.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import PAPER_PARAMS, TABLE_SIZES, run_to_done
from repro.analysis.error_bounds import final_error_probability
from repro.core.array_simulator import LogSizeVectorProtocol, expected_convergence_time
from repro.engine.vector import VectorSimulator

RUNS_PER_SIZE = 2


@pytest.mark.parametrize("population_size", TABLE_SIZES)
def bench_accuracy_vs_population(benchmark, population_size):
    collected = {"errors": []}

    def run_accuracy_trials():
        errors = []
        for run_index in range(RUNS_PER_SIZE):
            simulator = VectorSimulator(
                LogSizeVectorProtocol(PAPER_PARAMS),
                population_size,
                seed=7_000 + run_index,
            )
            outcome = run_to_done(
                simulator, 4 * expected_convergence_time(population_size, PAPER_PARAMS)
            )
            if outcome["convergence_time"] is not None:
                errors.append(outcome["max_additive_error"])
        collected["errors"] = errors
        return errors

    benchmark.pedantic(run_accuracy_trials, rounds=1, iterations=1)

    errors = collected["errors"]
    assert errors, "no accuracy run converged"
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["mean_additive_error"] = sum(errors) / len(errors)
    benchmark.extra_info["max_additive_error"] = max(errors)
    benchmark.extra_info["claimed_bound"] = 5.7
    benchmark.extra_info["claimed_failure_probability"] = final_error_probability(
        population_size
    )
    assert max(errors) <= 5.7
