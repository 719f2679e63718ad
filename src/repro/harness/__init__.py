"""Experiment harness: sweeps, statistics and table/figure regeneration.

The harness turns the simulators into the artefacts the paper reports:

* :mod:`repro.harness.results` — result records and summary statistics;
* :mod:`repro.harness.experiment` — repeatable experiment runners (one
  protocol, several seeds) for both engines;
* :mod:`repro.harness.parallel` — the sweep driver: picklable
  :class:`TrialSpec` per trial, deterministic seed spawning, and a claim
  loop over a result store (:mod:`repro.store`, keyed by trial-spec hashes)
  with a ``multiprocessing`` worker pool behind ``workers=N``, making
  interrupted sweeps resumable and repeated invocations incremental;
* :mod:`repro.harness.figures` — the Figure 2 reproduction (convergence time
  vs population size) as data series plus an ASCII rendering and CSV export;
* :mod:`repro.harness.tables` — the theorem-level tables (accuracy, state
  complexity, termination times, baseline comparison);
* :mod:`repro.harness.reporting` — plain-text table formatting used by the
  CLI, the benchmarks and EXPERIMENTS.md.
"""

from repro.harness.results import (
    RunRecord,
    SeriesSummary,
    SweepResult,
    records_equal,
    summarize,
)
from repro.harness.experiment import (
    ExperimentSpec,
    run_array_experiment,
    run_finite_state_experiment,
    run_sequential_experiment,
)
from repro.harness.parallel import (
    SweepOutcome,
    TrialSpec,
    build_finite_state_trials,
    build_vector_trials,
    run_trial,
    run_trials,
)
from repro.harness.figures import Figure2Point, Figure2Result, reproduce_figure2
from repro.harness.tables import (
    accuracy_table,
    baseline_comparison_table,
    state_complexity_table,
)
from repro.harness.reporting import format_table, render_ascii_series

__all__ = [
    "RunRecord",
    "SeriesSummary",
    "SweepResult",
    "records_equal",
    "summarize",
    "SweepOutcome",
    "TrialSpec",
    "build_finite_state_trials",
    "build_vector_trials",
    "run_trial",
    "run_trials",
    "ExperimentSpec",
    "run_array_experiment",
    "run_finite_state_experiment",
    "run_sequential_experiment",
    "Figure2Point",
    "Figure2Result",
    "reproduce_figure2",
    "accuracy_table",
    "baseline_comparison_table",
    "state_complexity_table",
    "format_table",
    "render_ascii_series",
]
