"""Theorem-level tables built from simulation sweeps.

The paper's evaluation contains a single figure; its theorem statements,
however, make quantitative claims that can be tabulated against simulation.
The builders here produce those tables (as rows of plain data plus a rendered
text form) for the CLI and the benchmarks:

* :func:`accuracy_table` — Theorem 3.1 / Lemma 3.12: the observed maximum
  additive error per population size against the claimed 5.7 (and the
  paper's empirical 2).
* :func:`state_complexity_table` — Lemma 3.9: realised per-field ranges and
  the implied state-count bound against ``O(log^4 n)``.

The comparison with the Alistarh et al. baseline is the T-BASE benchmark
(``benchmarks/bench_baseline_comparison.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.error_bounds import final_error_probability
from repro.core.array_simulator import LogSizeVectorProtocol, expected_convergence_time
from repro.core.parameters import ProtocolParameters
from repro.engine.vector import VectorSimulator
from repro.exceptions import ConvergenceError
from repro.harness.parallel import get_workload, run_trials
from repro.harness.reporting import format_table
from repro.rng import spawn_seed


@dataclass(frozen=True)
class TableResult:
    """A built table: raw rows plus a rendered text form."""

    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    text: str


def _run_log_size(population_size, params, seed, time_budget_factor):
    """One Log-Size-Estimation run on the vector engine, to all-done or the
    budget; ``simulator.all_done()`` then says which."""
    simulator = VectorSimulator(LogSizeVectorProtocol(params), population_size, seed=seed)
    try:
        simulator.run_until(
            VectorSimulator.all_done,
            max_parallel_time=time_budget_factor
            * expected_convergence_time(population_size, params),
        )
    except ConvergenceError:
        pass
    return simulator


def accuracy_table(
    population_sizes: Sequence[int],
    runs_per_size: int = 3,
    params: ProtocolParameters | None = None,
    base_seed: int = 7,
    time_budget_factor: float = 4.0,
) -> TableResult:
    """Observed additive error vs the claimed bound, per population size.

    The runs are the ``figure2`` workload's trials.  ``runs`` counts the
    converged runs the error statistics are taken over and ``non-conv`` the
    runs that exhausted their budget, so every size keeps its row.
    """
    params = params or ProtocolParameters.paper()
    sweep = run_trials(
        get_workload("figure2").trials(
            population_sizes, runs_per_size, params=params, base_seed=base_seed,
            max_parallel_time=lambda n: (
                time_budget_factor * expected_convergence_time(n, params)
            ),
        )
    )
    headers = (
        "n",
        "runs",
        "non-conv",
        "mean |err|",
        "max |err|",
        "claimed bound",
        "claimed failure prob",
    )
    rows = []
    for population_size in sweep.population_sizes():
        records = sweep.records_for(population_size)
        errors = [
            record.max_additive_error for record in records if record.converged
        ]
        rows.append(
            (
                population_size,
                len(errors),
                len(records) - len(errors),
                sum(errors) / len(errors) if errors else math.nan,
                max(errors) if errors else math.nan,
                5.7,
                final_error_probability(population_size),
            )
        )
    return TableResult(headers=headers, rows=tuple(rows), text=format_table(headers, rows))


def state_complexity_table(
    population_sizes: Sequence[int],
    params: ProtocolParameters | None = None,
    base_seed: int = 11,
    time_budget_factor: float = 4.0,
) -> TableResult:
    """Realised field ranges and state-count bound vs ``log2^4 n`` (Lemma 3.9)."""
    params = params or ProtocolParameters.paper()
    headers = (
        "n",
        "max logSize2",
        "max epoch",
        "max time",
        "max gr",
        "state bound",
        "log2(n)^4",
    )
    rows = []
    for size_index, population_size in enumerate(population_sizes):
        simulator = _run_log_size(
            population_size,
            params,
            spawn_seed(base_seed, size_index),
            time_budget_factor,
        )
        rows.append(
            (
                population_size,
                simulator.fields.max_observed("log_size2"),
                simulator.fields.max_observed("epoch"),
                simulator.fields.max_observed("time"),
                simulator.fields.max_observed("gr"),
                simulator.protocol.distinct_state_bound(simulator.fields),
                math.log2(population_size) ** 4,
            )
        )
    return TableResult(headers=headers, rows=tuple(rows), text=format_table(headers, rows))
