"""Simulation engines for population protocols.

Five engines are provided:

* :class:`repro.engine.simulator.Simulation` — the *agent-level* engine.  It
  stores one state object per agent and applies the protocol's transition to
  uniformly random ordered pairs, exactly as in the paper's model.  This is
  the reference engine: every protocol in the library runs on it and all
  correctness tests use it.

* :class:`repro.engine.count_simulator.CountSimulator` — the
  *configuration-level* engine for finite-state protocols.  It stores only
  the count of each state, which makes classic constant-state protocols
  (epidemics, majority, leader election) fast even for very large
  populations, and it is the representation the termination analysis
  operates on.

* :class:`repro.engine.batched_simulator.BatchedCountSimulator` — the
  *batched* configuration-level engine.  It compiles the protocol into dense
  transition tables and advances ``~sqrt(n)`` interactions per numpy
  multinomial draw (with an exact sequential fallback at small counts),
  which is the fastest option for finite-state protocols at ``n >= 10^5``.

* :mod:`repro.engine.vector` — the *vector* engine: per-agent state held in
  numpy struct-of-arrays, advanced one synchronous random-matching round at
  a time with exact per-round convergence measurement.  It runs bespoke
  :class:`~repro.engine.vector.VectorProtocol` kernels (the
  ``Log-Size-Estimation`` and leader-terminating paper protocols, whose
  unbounded per-agent fields rule out count compression) and, through
  :class:`~repro.engine.vector.VectorFiniteStateSimulator`, any finite-state
  protocol with the count queries of the other engines.

* :class:`repro.crn.multiscale.MultiscaleSimulator` — the *multiscale*
  engine: adaptive exact-SSA / tau-leap / mean-field-ODE regime switching
  over a finite-state protocol's compiled channels, approximate but
  count-bound, for ``n`` up to ``10^12``.

Every engine derives from :class:`repro.engine.running.Engine`, which
holds the interface they share (``run_parallel_time``, ``run_until``,
``run_with_trace``, ``outputs``); the engines that keep one count per
compiled state also share ``configuration`` and ``count`` through
:class:`~repro.engine.running.CountArrayEngine`.
:func:`repro.engine.selection.build_engine` constructs any of the five by
one lookup in its engine table; see ``DESIGN.md`` (Engine selection).

Supporting pieces: the interaction schedulers
(:mod:`repro.engine.scheduler`), configuration multisets
(:mod:`repro.engine.configuration`) and metric collection
(:mod:`repro.engine.metrics`).
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "batched_simulator": ["BatchedCountSimulator"],
    "configuration": ["Configuration"],
    "count_simulator": ["CountSimulator"],
    "running": ["CountArrayEngine", "CountTracePoint", "Engine"],
    "selection": [
        "ENGINE_NAMES",
        "CountingSimulationAdapter",
        "build_engine",
        "engine_scheduler_matrix",
        "schedulers_for_engine",
    ],
    "metrics": ["SimulationMetrics", "StateUsageTracker"],
    "scheduler": [
        "InteractionScheduler",
        "MatchingRoundScheduler",
        "RandomMatchingScheduler",
        "RoundScheduler",
        "SchedulerPolicy",
        "SchedulerSpec",
        "SequentialScheduler",
        "draw_matching_arrays",
        "scheduler_names",
    ],
    "simulator": ["Simulation"],
    "vector": [
        "FiniteStateVectorProtocol",
        "VectorFields",
        "VectorFiniteStateSimulator",
        "VectorProtocol",
        "VectorSimulator",
    ],
})
