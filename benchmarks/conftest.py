"""Shared configuration for the benchmark harness.

Every benchmark below regenerates one of the experiment-index entries of
``DESIGN.md`` (Figure 2 plus the theorem-level tables).  Each benchmark runs
one complete simulation per population size (``benchmark.pedantic`` with a
single round — these are end-to-end experiments, not micro-benchmarks) and
attaches the scientifically relevant numbers (convergence time, additive
error, termination time, ...) to ``benchmark.extra_info`` so they appear in
the pytest-benchmark report alongside the wall-clock time.

Population grids are intentionally modest so the full suite finishes in a few
minutes of pure Python; environment variables scale them up towards the
paper's ranges:

=========================  ==========================================
Variable                    Effect
=========================  ==========================================
``REPRO_FIG2_SIZES``        comma-separated sizes for the Figure 2 sweep
``REPRO_FIG2_RUNS``         runs per size for the Figure 2 sweep
``REPRO_BENCH_SIZES``       sizes for the accuracy / state / baseline tables
``REPRO_TERM_SIZES``        sizes for the termination experiments
``REPRO_SWEEP_WORKERS``     worker processes for sweep-driver benchmarks
=========================  ==========================================

Benchmarks built on the sweep driver (epidemic, majority/leader,
termination) run their trials through
:func:`repro.harness.parallel.run_trials`; setting
``REPRO_SWEEP_WORKERS > 1`` fans the trials out over a worker pool with
bit-identical results (wall-clock numbers then measure the parallel
harness, not a single engine).
"""

from __future__ import annotations

import os

import pytest

from repro.core.parameters import ProtocolParameters
from repro.engine.vector import VectorSimulator
from repro.exceptions import ConvergenceError
from repro.workloads.populations import sizes_from_env


def _runs_from_env(variable: str, default: int) -> int:
    raw = os.environ.get(variable)
    if not raw:
        return default
    return max(1, int(raw))


#: Figure 2 sweep grid (paper: 100 .. 100 000; default capped for pure Python).
FIGURE2_SIZES = sizes_from_env("REPRO_FIG2_SIZES", [128, 256, 512, 1024])
FIGURE2_RUNS = _runs_from_env("REPRO_FIG2_RUNS", 2)

#: Grid for the accuracy / state-complexity / baseline tables.
TABLE_SIZES = sizes_from_env("REPRO_BENCH_SIZES", [256, 512, 1024])

#: Grid for the termination-time experiments.
TERMINATION_SIZES = sizes_from_env("REPRO_TERM_SIZES", [64, 256, 1024])

#: Worker processes used by sweep-driver benchmarks (1 = serial).
SWEEP_WORKERS = _runs_from_env("REPRO_SWEEP_WORKERS", 1)

#: The paper's protocol constants, used by all benchmarks.
PAPER_PARAMS = ProtocolParameters.paper()


@pytest.fixture
def paper_params() -> ProtocolParameters:
    """The paper's constants (clock 95, epochs 5)."""
    return PAPER_PARAMS


def run_to_done(simulator: VectorSimulator, max_parallel_time: float) -> dict:
    """Run a vector-engine kernel to its own convergence condition.

    Returns the kernel's ``result_extra`` plus ``convergence_time``
    (``None`` when the budget ran out).
    """
    try:
        time = simulator.run_until(VectorSimulator.all_done, max_parallel_time)
    except ConvergenceError:
        time = None
    return {
        "convergence_time": time,
        **simulator.protocol.result_extra(simulator.fields),
    }
