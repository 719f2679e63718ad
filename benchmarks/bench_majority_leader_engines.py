"""T-CLASSIC — baseline workloads on the configuration-level engines.

Approximate majority and pairwise-elimination leader election are the two
classic constant-state baselines the paper's introduction positions the
polylog-time literature against.  This benchmark runs both on the count and
batched engines through the sweep driver
(:func:`repro.harness.parallel.run_trials`;
``REPRO_SWEEP_WORKERS`` parallelises the runs), recording consensus /
election times alongside wall-clock throughput so engine regressions on
*reactive-dense* protocols (where most pairs change state, unlike the
epidemic endgame) are caught.
"""

from __future__ import annotations

import statistics

import pytest

from benchmarks.conftest import SWEEP_WORKERS
from repro.harness.parallel import build_finite_state_trials, run_trials
from repro.protocols.leader_election import FiniteStatePairwiseElimination
from repro.protocols.majority import (
    ApproximateMajorityProtocol,
    majority_consensus_predicate,
)

RUNS = 3
TARGET_LEADERS = 8


def seventy_thirty_majority() -> ApproximateMajorityProtocol:
    """Module-level factory (picklable) for the 70/30 majority workload."""
    return ApproximateMajorityProtocol(x_fraction=0.7)


def at_most_target_leaders(simulator) -> bool:
    """Predicate: at most ``TARGET_LEADERS`` leader candidates remain."""
    return simulator.count(FiniteStatePairwiseElimination.LEADER) <= TARGET_LEADERS


@pytest.mark.parametrize("engine", ["count", "batched"])
@pytest.mark.parametrize("population_size", [10_000, 100_000])
def bench_majority_consensus(benchmark, population_size, engine):
    """3-state approximate majority to consensus (O(log n) time expected)."""
    holder = {"times": [], "correct": 0}

    def run_majority():
        specs = build_finite_state_trials(
            protocol_factory=seventy_thirty_majority,
            predicate=majority_consensus_predicate,
            population_sizes=[population_size],
            runs_per_size=RUNS,
            max_parallel_time=400.0,
            engine=engine,
            base_seed=31,
        )
        sweep = run_trials(specs, workers=SWEEP_WORKERS)
        assert all(record.converged for record in sweep.records)
        holder["times"] = [record.convergence_time for record in sweep.records]
        holder["correct"] = sum(
            record.extra["outputs"].get(ApproximateMajorityProtocol.OPINION_Y, 0) == 0
            for record in sweep.records
        )
        return holder["times"]

    benchmark.pedantic(run_majority, rounds=1, iterations=1)

    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["mean_consensus_time"] = statistics.fmean(holder["times"])
    benchmark.extra_info["initial_majority_won"] = holder["correct"]
    # With a 70/30 split the initial majority must win every run.
    assert holder["correct"] == RUNS


@pytest.mark.parametrize("engine", ["count", "batched"])
@pytest.mark.parametrize("population_size", [2_000, 20_000])
def bench_leader_election_time(benchmark, population_size, engine):
    """Pairwise elimination down to <= 8 leaders (the Theta(n) tail excluded).

    The full election needs ``Theta(n)`` parallel time dominated by the last
    few leaders, where both configuration-level engines step near-exactly;
    benchmarking to a small candidate count keeps the focus on the
    high-throughput bulk phase.
    """
    holder = {"times": []}

    def run_elections():
        specs = build_finite_state_trials(
            protocol_factory=FiniteStatePairwiseElimination,
            predicate=at_most_target_leaders,
            population_sizes=[population_size],
            runs_per_size=RUNS,
            max_parallel_time=4.0 * population_size,
            engine=engine,
            base_seed=7,
        )
        sweep = run_trials(specs, workers=SWEEP_WORKERS)
        assert all(record.converged for record in sweep.records)
        holder["times"] = [record.convergence_time for record in sweep.records]
        return holder["times"]

    benchmark.pedantic(run_elections, rounds=1, iterations=1)

    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["target_leaders"] = TARGET_LEADERS
    benchmark.extra_info["mean_time_to_target"] = statistics.fmean(holder["times"])
