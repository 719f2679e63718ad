"""Repeatable experiment runners.

For the size-estimation protocol, two runners are provided, one per engine:

* :func:`run_sequential_experiment` — the agent-level engine (exact paper
  scheduler), used for small populations and for cross-validating the
  vectorised engine;
* :func:`run_array_experiment` — the vector engine running the ``figure2``
  workload (:class:`~repro.core.array_simulator.LogSizeVectorProtocol`), used
  for the Figure 2 sweep at larger populations.

For classic finite-state workloads (epidemic, majority, leader election,
counter termination), :func:`run_finite_state_experiment` sweeps any
:class:`~repro.protocols.base.FiniteStateProtocol` over population sizes on a
selectable engine (``"agent"``, ``"count"`` or ``"batched"`` — see
:func:`repro.engine.selection.build_engine`).

All three runners expand their sweep into picklable
:class:`~repro.harness.parallel.TrialSpec` lists and execute them through
:func:`~repro.harness.parallel.run_trials`, so every sweep can fan out over a
worker pool (``workers > 1``) and resume from a result store (``store=`` — a
:mod:`repro.store` URL such as ``jsonl:DIR``, ``sqlite:PATH`` or
``http://HOST:PORT``, so several drivers on several hosts can cooperate on
one sweep) — results are identical record-for-record to the serial
``workers=1`` path.  All runners return
:class:`~repro.harness.results.RunRecord` lists so downstream figure/table
builders do not care which engine produced the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.array_simulator import expected_convergence_time
from repro.core.parameters import ProtocolParameters
from repro.exceptions import SimulationError
from repro.harness.parallel import (
    KIND_SEQUENTIAL,
    TrialSpec,
    build_finite_state_trials,
    build_vector_trials,
    run_trials,
)
from repro.harness.results import SweepResult
from repro.protocols.base import FiniteStateProtocol
from repro.rng import spawn_seed


@dataclass(frozen=True)
class ExperimentSpec:
    """Specification of a size-estimation sweep.

    Attributes
    ----------
    population_sizes:
        The sizes to sweep over (each must be at least 2).
    runs_per_size:
        Independent runs (seeds) per size; the paper's Figure 2 uses 10.
    params:
        Protocol constants (paper values by default).
    time_budget_factor:
        Multiple of the a-priori convergence-time estimate allotted to each
        run before it is declared non-converged.
    base_seed:
        Sweep-level seed; run ``j`` at size index ``i`` uses
        ``spawn_seed(base_seed, i, j)`` (collision-free for any number of
        runs, unlike the old ``base_seed + 1000 i + j`` scheme).
    """

    population_sizes: Sequence[int]
    runs_per_size: int = 3
    params: ProtocolParameters = field(default_factory=ProtocolParameters.paper)
    time_budget_factor: float = 4.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.population_sizes:
            raise SimulationError("population_sizes must be non-empty")
        too_small = [size for size in self.population_sizes if size < 2]
        if too_small:
            raise SimulationError(
                f"every population size must be >= 2, got {too_small}"
            )
        if self.runs_per_size < 1:
            raise SimulationError(
                f"runs_per_size must be >= 1, got {self.runs_per_size}"
            )
        if self.time_budget_factor <= 0:
            raise SimulationError(
                f"time_budget_factor must be positive, got {self.time_budget_factor}"
            )

    def seed_for(self, size_index: int, run_index: int) -> int:
        """Deterministic, collision-free per-run seed."""
        return spawn_seed(self.base_seed, size_index, run_index)

    def budget_for(self, population_size: int) -> float:
        """Parallel-time budget for one run at ``population_size``."""
        return self.time_budget_factor * expected_convergence_time(
            population_size, self.params
        )

    def trials(self, kind: str, engine: str, track_states: bool = False) -> list[TrialSpec]:
        """Expand the sweep into one :class:`TrialSpec` per run."""
        return [
            TrialSpec(
                kind=kind,
                population_size=population_size,
                size_index=size_index,
                run_index=run_index,
                base_seed=self.base_seed,
                engine=engine,
                max_parallel_time=self.budget_for(population_size),
                params=self.params,
                track_states=track_states,
            )
            for size_index, population_size in enumerate(self.population_sizes)
            for run_index in range(self.runs_per_size)
        ]


def run_array_experiment(
    spec: ExperimentSpec,
    name: str = "figure2-array",
    workers: int = 1,
    store=None,
) -> SweepResult:
    """Run the sweep as ``figure2`` vector trials and collect run records."""
    specs = build_vector_trials(
        spec.population_sizes,
        spec.runs_per_size,
        protocol="figure2",
        params=spec.params,
        base_seed=spec.base_seed,
        max_parallel_time=spec.budget_for,
    )
    outcome = run_trials(specs, workers=workers, store=store)
    return SweepResult(name=name, records=outcome.records)


def run_finite_state_experiment(
    protocol_factory: Callable[[], FiniteStateProtocol] | str,
    predicate: Callable | None = None,
    population_sizes: Sequence[int] = (),
    runs_per_size: int = 3,
    max_parallel_time: float | Callable[[int], float] = 100.0,
    engine: str = "count",
    base_seed: int = 0,
    name: str | None = None,
    check_interval: int | None = None,
    workers: int = 1,
    store=None,
    scheduler: str | None = None,
    scheduler_options: dict | None = None,
    **engine_options,
) -> SweepResult:
    """Sweep a finite-state protocol over population sizes on one engine.

    Parameters
    ----------
    protocol_factory:
        Zero-argument callable building a fresh protocol per run, or the
        name of a registered workload (see
        :data:`repro.harness.parallel.WORKLOADS`), in which case
        ``predicate`` may be omitted.
    predicate:
        Convergence predicate evaluated against the engine.  All engines
        share the count-level interface, so a module-level
        ``def no_susceptibles(sim): return sim.count("S") == 0`` works on
        every engine.  Factory and predicate key the trials by
        ``module:qualname``, so lambdas, closures and ``functools.partial``
        objects are rejected.
    max_parallel_time:
        Per-run parallel-time budget; may be a callable ``n -> budget``.
    engine:
        One of :data:`repro.engine.selection.ENGINE_NAMES`.
    workers:
        Worker processes.
    store:
        Optional :class:`~repro.store.base.ResultStore` instance or store
        URL (``jsonl:DIR`` / ``sqlite:PATH`` / ``http://HOST:PORT``) for
        resumable, incremental sweeps; sqlite and http stores are shared
        safely by many concurrent drivers.
    scheduler / scheduler_options:
        Scheduling policy for every trial (a registered scheduler name plus
        options); ``None`` keeps the engine's default.  Participates in the
        trial cache keys.
    engine_options:
        Forwarded to :func:`repro.engine.selection.build_engine` (e.g.
        ``batch_size`` for the batched engine).

    Returns
    -------
    SweepResult
        One :class:`RunRecord` per run; ``extra`` carries the engine name,
        interactions executed and the final output histogram.
    """
    protocol_name = protocol_factory if isinstance(protocol_factory, str) else None
    specs = build_finite_state_trials(
        population_sizes=population_sizes,
        runs_per_size=runs_per_size,
        base_seed=base_seed,
        engine=engine,
        max_parallel_time=max_parallel_time,
        check_interval=check_interval,
        protocol=protocol_name,
        protocol_factory=None if protocol_name else protocol_factory,
        predicate=predicate,
        scheduler=scheduler,
        scheduler_options=scheduler_options,
        **engine_options,
    )
    outcome = run_trials(specs, workers=workers, store=store)
    return SweepResult(
        name=name or f"finite-state-{engine}", records=outcome.records
    )


def run_sequential_experiment(
    spec: ExperimentSpec,
    name: str = "figure2-sequential",
    track_states: bool = False,
    workers: int = 1,
    store=None,
) -> SweepResult:
    """Run the sweep on the agent-level engine and collect run records."""
    outcome = run_trials(
        spec.trials(KIND_SEQUENTIAL, "sequential", track_states=track_states),
        workers=workers,
        store=store,
    )
    return SweepResult(name=name, records=outcome.records)
