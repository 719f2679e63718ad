"""Experiment harness: sweeps, statistics and table/figure regeneration.

The harness turns the simulators into the artefacts the paper reports:

* :mod:`repro.harness.results` — result records and summary statistics;
* :mod:`repro.harness.parallel` — the workload registry and the sweep
  driver: picklable :class:`TrialSpec` per trial, deterministic seed
  spawning, and :func:`run_trials`, a claim loop over a result store
  (:mod:`repro.store`, keyed by trial-spec hashes) with a
  ``multiprocessing`` worker pool behind ``workers=N``, making interrupted
  sweeps resumable and repeated invocations incremental.  A sweep is
  ``run_trials(get_workload(name).trials(sizes, runs, ...))``;
* :mod:`repro.harness.figures` — the Figure 2 reproduction (convergence time
  vs population size) as data series plus an ASCII rendering and CSV export;
* :mod:`repro.harness.tables` — the theorem-level tables (accuracy, state
  complexity);
* :mod:`repro.harness.reporting` — plain-text table formatting used by the
  CLI and the benchmarks.
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "results": ["RunRecord", "SeriesSummary", "SweepResult"],
    "parallel": [
        "TrialSpec",
        "build_finite_state_trials",
        "build_vector_trials",
        "get_workload",
        "run_trial",
        "run_trials",
    ],
    "figures": ["Figure2Point", "Figure2Result", "reproduce_figure2"],
    "tables": ["accuracy_table", "state_complexity_table"],
    "reporting": ["format_table", "render_ascii_series"],
})
