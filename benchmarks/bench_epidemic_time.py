"""T-EPI — Lemma A.1 / Corollaries 3.4-3.5: epidemic completion times.

Measures the completion time of (a) a full-population epidemic and (b) an
epidemic restricted to a one-third sub-population, against the closed-form
expectation ``(n-1)/n * H_{n-1}`` and the ``24 ln n`` budget that fixes the
protocol's phase-clock constant.  The full-population experiment runs on both
configuration-level engines (count-based and batched) through the sweep
driver (the registered ``"epidemic"`` workload; ``REPRO_SWEEP_WORKERS``
parallelises the runs), so large populations are cheap and the two engines
are continuously cross-checked against the same theoretical budgets; the
sub-population variant stays on the count engine because its inert third
state lies outside the protocol's declared state set.
"""

from __future__ import annotations

import math
import statistics

import pytest

from benchmarks.conftest import SWEEP_WORKERS
from repro.analysis.epidemic_theory import expected_epidemic_time
from repro.engine.configuration import Configuration
from repro.engine.count_simulator import CountSimulator
from repro.harness.parallel import get_workload, run_trials
from repro.protocols.epidemic import EpidemicProtocol, EpidemicState

POPULATIONS = [1_000, 10_000, 100_000]
RUNS = 3


@pytest.mark.parametrize("engine", ["count", "batched"])
@pytest.mark.parametrize("population_size", POPULATIONS)
def bench_full_population_epidemic(benchmark, population_size, engine):
    holder = {"times": []}

    def run_epidemics():
        specs = get_workload("epidemic").trials(
            [population_size],
            RUNS,
            max_parallel_time=50 * math.log(population_size),
            engine=engine,
            base_seed=0,
        )
        sweep = run_trials(specs, workers=SWEEP_WORKERS)
        assert all(record.converged for record in sweep.records)
        holder["times"] = [record.convergence_time for record in sweep.records]
        return holder["times"]

    benchmark.pedantic(run_epidemics, rounds=1, iterations=1)

    times = holder["times"]
    expected = expected_epidemic_time(population_size)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["mean_completion_time"] = statistics.fmean(times)
    benchmark.extra_info["expected_lemma_a1"] = expected
    benchmark.extra_info["budget_24_ln_n"] = 24 * math.log(population_size)
    assert statistics.fmean(times) < 24 * math.log(population_size)


@pytest.mark.parametrize("population_size", [3_000, 30_000])
def bench_subpopulation_epidemic(benchmark, population_size):
    """Corollary 3.4/3.5: an epidemic among n/3 agents still finishes in 24 ln n."""
    third = population_size // 3
    holder = {"times": []}

    def run_subpopulation_epidemics():
        times = []
        for run_index in range(RUNS):
            # Only the sub-population participates: the rest of the agents are
            # modelled as an inert third state that never reacts.
            configuration = Configuration(
                {
                    EpidemicState.INFECTED: 1,
                    EpidemicState.SUSCEPTIBLE: third - 1,
                    "inert": population_size - third,
                }
            )
            protocol = EpidemicProtocol()
            simulator = CountSimulator(
                protocol,
                population_size,
                seed=100 + run_index,
                initial_configuration=configuration,
            )
            times.append(
                simulator.run_until(
                    lambda sim: sim.count(EpidemicState.SUSCEPTIBLE) == 0,
                    max_parallel_time=60 * math.log(population_size),
                )
            )
        holder["times"] = times
        return times

    benchmark.pedantic(run_subpopulation_epidemics, rounds=1, iterations=1)

    times = holder["times"]
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["subpopulation"] = third
    benchmark.extra_info["mean_completion_time"] = statistics.fmean(times)
    benchmark.extra_info["budget_24_ln_n"] = 24 * math.log(population_size)
    # Corollary 3.5: 24 ln n suffices w.h.p. even restricted to a third.
    assert max(times) < 24 * math.log(population_size)
