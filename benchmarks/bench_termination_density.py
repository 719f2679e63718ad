"""T-TERM — Theorem 4.1: termination-signal time of a uniform dense protocol stays O(1).

Measures, for growing population sizes, the parallel time until the first
agent of the uniform Figure-1 counter protocol (deployed from the dense
all-identical configuration) sets ``terminated = True``.  Theorem 4.1 predicts
this time does not grow with ``n`` — which also means the signal fires long
before any ``omega(1)``-time task could have completed.  The companion
benchmark ``bench_leader_terminating`` measures the contrasting leader-driven
behaviour.
"""

from __future__ import annotations

import statistics

import pytest

from benchmarks.conftest import SWEEP_WORKERS, TERMINATION_SIZES
from repro.harness.parallel import build_finite_state_trials, run_trials
from repro.protocols.leader_election import (
    FiniteStateCounterTermination,
    NonuniformCounterLeaderElection,
    termination_signal_predicate,
)
from repro.termination.definitions import TerminationSpec
from repro.termination.impossibility import termination_time_sweep

COUNTER_THRESHOLD = 8
RUNS_PER_SIZE = 3


def counter_termination_protocol() -> FiniteStateCounterTermination:
    """Module-level factory (picklable) for the Figure-1 counter workload."""
    return FiniteStateCounterTermination(counter_threshold=COUNTER_THRESHOLD)


@pytest.mark.parametrize("population_size", TERMINATION_SIZES)
def bench_uniform_dense_termination_time(benchmark, population_size):
    spec = TerminationSpec(
        terminated_predicate=lambda state: state.terminated,
        description="uniform counter protocol",
    )
    holder = {}

    def run_sweep():
        observations = termination_time_sweep(
            protocol_factory=lambda: NonuniformCounterLeaderElection(
                counter_threshold=COUNTER_THRESHOLD
            ),
            spec=spec,
            population_sizes=[population_size],
            runs_per_size=RUNS_PER_SIZE,
            max_parallel_time=200.0,
            seed=17,
            check_interval=max(8, population_size // 8),
        )
        holder["observation"] = observations[0]
        return observations

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    observation = holder["observation"]
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["mean_signal_time"] = observation.mean_time
    benchmark.extra_info["max_signal_time"] = observation.max_time
    benchmark.extra_info["termination_probability"] = observation.termination_probability
    # Theorem 4.1's shape: the signal appears within O(1) time at every size
    # (the counter only needs some agent to have `threshold` interactions).
    assert observation.termination_probability == 1.0
    assert observation.max_time is not None and observation.max_time < 40.0


@pytest.mark.parametrize("population_size", [10_000, 100_000, 1_000_000])
def bench_uniform_dense_termination_batched(benchmark, population_size):
    """Theorem 4.1 at population sizes only the batched engine can reach.

    The Figure-1 counter protocol has a finite reachable state space
    (:class:`FiniteStateCounterTermination`), so the batched count engine can
    measure the first-termination-signal time at ``n`` up to 10^6 — the flat
    O(1) shape of Theorem 4.1 over three more decades of population size.
    """
    holder = {"times": []}

    def run_sweep():
        specs = build_finite_state_trials(
            protocol_factory=counter_termination_protocol,
            predicate=termination_signal_predicate,
            population_sizes=[population_size],
            runs_per_size=RUNS_PER_SIZE,
            max_parallel_time=40.0,
            engine="batched",
            base_seed=17,
            check_interval=max(population_size // 16, 256),
        )
        sweep = run_trials(specs, workers=SWEEP_WORKERS)
        assert all(record.converged for record in sweep.records)
        holder["times"] = [record.convergence_time for record in sweep.records]
        return holder["times"]

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    times = holder["times"]
    benchmark.extra_info["engine"] = "batched"
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["mean_signal_time"] = statistics.fmean(times)
    benchmark.extra_info["max_signal_time"] = max(times)
    # The signal time must stay O(1): it does not grow with n.
    assert max(times) < 40.0
