"""T-BASE — Related-work baseline: Alistarh et al. [2] vs this paper's protocol.

The baseline computes the maximum of per-agent geometric variables, which
estimates ``log2 n`` only within a constant *multiplicative* factor
(``0.5 log2 n <= k <= 2 log2 n`` w.h.p.), in ``O(log n)`` time; the paper's
protocol spends ``O(log^2 n)`` time to reduce that to a constant *additive*
error.  For each population size the benchmark records both errors, making the
accuracy/time trade-off the paper describes visible in one table.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import PAPER_PARAMS, TABLE_SIZES, run_to_done
from repro.core.array_simulator import LogSizeVectorProtocol, expected_convergence_time
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorSimulator
from repro.protocols.approximate_counting import (
    AlistarhApproximateCounting,
    approximate_counting_converged,
)


@pytest.mark.parametrize("population_size", TABLE_SIZES)
def bench_baseline_vs_paper_protocol(benchmark, population_size):
    holder = {}

    def run_both():
        target = math.log2(population_size)

        baseline_protocol = AlistarhApproximateCounting()
        baseline = Simulation(baseline_protocol, population_size, seed=23)
        baseline_time = baseline.run_until(
            approximate_counting_converged, max_parallel_time=400
        )
        baseline_value = float(baseline_protocol.output(baseline.states[0]))

        paper = run_to_done(
            VectorSimulator(
                LogSizeVectorProtocol(PAPER_PARAMS), population_size, seed=23
            ),
            4 * expected_convergence_time(population_size, PAPER_PARAMS),
        )

        holder.update(
            baseline_time=baseline_time,
            baseline_error=abs(baseline_value - target),
            paper_time=paper["convergence_time"],
            paper_error=paper["max_additive_error"],
        )
        return holder

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["baseline_convergence_time"] = holder["baseline_time"]
    benchmark.extra_info["baseline_additive_error"] = holder["baseline_error"]
    benchmark.extra_info["paper_convergence_time"] = holder["paper_time"]
    benchmark.extra_info["paper_additive_error"] = holder["paper_error"]

    # Shape checks from the paper: the baseline converges much faster but its
    # error can be as large as ~log2 n; the paper's protocol pays ~log n more
    # time and achieves a small constant additive error.
    assert holder["baseline_time"] < holder["paper_time"]
    assert holder["paper_error"] < 5.7
    assert holder["baseline_error"] <= math.log2(population_size) + 1
