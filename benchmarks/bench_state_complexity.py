"""T-STATE — Lemma 3.9: state complexity of the protocol vs O(log^4 n).

Runs the protocol (paper constants) at each population size and records the
realised range of every field (``logSize2``, ``gr``, ``time``, ``epoch``) and
the product of those ranges — the quantity Lemma 3.9 bounds by ``O(log^4 n)``
with probability ``1 - O(log n / n)``.  The ratio of the realised bound to
``log2(n)^4`` should stay bounded (in fact well below 1 because the per-field
constants of the lemma are conservative).
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import PAPER_PARAMS, TABLE_SIZES, run_to_done
from repro.core.array_simulator import LogSizeVectorProtocol, expected_convergence_time
from repro.engine.vector import VectorSimulator


@pytest.mark.parametrize("population_size", TABLE_SIZES)
def bench_state_complexity(benchmark, population_size):
    holder = {}

    def run_and_measure():
        simulator = VectorSimulator(
            LogSizeVectorProtocol(PAPER_PARAMS), population_size, seed=11
        )
        run_to_done(
            simulator, 4 * expected_convergence_time(population_size, PAPER_PARAMS)
        )
        holder["simulator"] = simulator
        return simulator

    benchmark.pedantic(run_and_measure, rounds=1, iterations=1)

    simulator = holder["simulator"]
    log4 = math.log2(population_size) ** 4
    state_bound = simulator.protocol.distinct_state_bound(simulator.fields)
    observed = {
        name: simulator.fields.max_observed(name)
        for name in ("log_size2", "gr", "time", "epoch")
    }
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["max_log_size2"] = observed["log_size2"]
    benchmark.extra_info["max_gr"] = observed["gr"]
    benchmark.extra_info["max_time"] = observed["time"]
    benchmark.extra_info["max_epoch"] = observed["epoch"]
    benchmark.extra_info["state_bound"] = state_bound
    benchmark.extra_info["log2_n_to_the_4"] = log4
    benchmark.extra_info["ratio_to_log4"] = state_bound / log4

    # Lemma 3.9's field ranges (with the paper's constants): logSize2 and gr at
    # most ~2 log n + O(1), epoch at most ~11 log n, time at most ~191 log n.
    log_n = math.log2(population_size)
    assert observed["log_size2"] <= 2 * log_n + 4
    assert observed["gr"] <= 2 * log_n + 4
    assert observed["epoch"] <= 11 * log_n + 5
    assert observed["time"] <= 240 * log_n
