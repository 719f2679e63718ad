"""Shared construction and run-loop helpers for the engines.

The engines behind :func:`repro.engine.selection.build_engine`, the
agent-level :class:`~repro.engine.simulator.Simulation` and the vector
engine's :class:`~repro.engine.vector.VectorSimulator` share an interface
(``population_size``, ``interactions``, ``parallel_time``,
``run_interactions``, ``configuration``).  The predicate loop of
``run_until`` and the snapshot loop of ``run_with_trace`` are pure functions
of that interface, so they live here once instead of being copied into every
engine — a fix to the budget accounting or the snapshot boundaries applies
to all engines at the same time.  The same holds for the checked starting
configuration (:func:`initial_configuration_for`) of the engines that store
counts.

Both loops measure progress on the engine's own clock (``parallel_time``),
not by the chunk sizes they asked for, so an engine that can only stop at
round boundaries overshoots a chunk without the overshoot adding up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Hashable

from repro.engine.configuration import Configuration
from repro.exceptions import ConvergenceError, SimulationError
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol
from repro.types import interactions_for_time, snapshot_boundaries

__all__ = [
    "CountTracePoint",
    "initial_configuration_for",
    "run_until_predicate",
    "run_with_trace",
]


@dataclass
class CountTracePoint:
    """One sampled configuration of a count-level run."""

    interaction: int
    parallel_time: float
    configuration: Configuration


def initial_configuration_for(
    protocol: FiniteStateProtocol,
    population_size: int,
    initial_configuration: Configuration | None,
    states: Container[Hashable],
) -> Configuration:
    """The starting configuration of a count-level engine, checked.

    ``initial_configuration`` when given, else the protocol's own
    ``initial_configuration(population_size)`` — ``O(|states|)`` for the
    protocols with a closed form.  Both must hold exactly
    ``population_size`` agents, every one in ``states``.

    Raises
    ------
    SimulationError
        On a size mismatch or a state outside ``states``.
    """
    if initial_configuration is None:
        initial_configuration = protocol.initial_configuration(population_size)
    if initial_configuration.size != population_size:
        raise SimulationError(
            f"initial configuration has size {initial_configuration.size}, "
            f"expected {population_size}"
        )
    for state in initial_configuration:
        if state not in states:
            raise SimulationError(
                f"initial configuration contains state {state!r} outside "
                f"the protocol's state set"
            )
    return initial_configuration


def _trace_point(simulator) -> CountTracePoint:
    return CountTracePoint(
        interaction=simulator.interactions,
        parallel_time=simulator.parallel_time,
        configuration=simulator.configuration(),
    )


def _elapsed(simulator, start: float) -> int:
    """Interactions on the engine's clock since parallel time ``start``."""
    return round((simulator.parallel_time - start) * simulator.population_size)


def run_until_predicate(
    simulator,
    predicate: Callable,
    max_parallel_time: float,
    check_interval: int | None = None,
    budget: int | None = None,
) -> float:
    """Run ``simulator`` until ``predicate(simulator)`` holds.

    The predicate is evaluated every ``check_interval`` interactions
    (default: every ``n`` interactions, i.e. once per unit of parallel time).
    The run ends once the engine's clock has advanced ``budget``
    interactions (default: ``ceil(max_parallel_time * n)``, exactly, for the
    engines that stop at any interaction).  Returns the parallel time
    reached.

    Raises
    ------
    ConvergenceError
        If the predicate does not hold within the budget.
    """
    interval = (
        check_interval if check_interval is not None else simulator.population_size
    )
    if interval <= 0:
        raise SimulationError("check_interval must be positive")
    if budget is None:
        budget = interactions_for_time(max_parallel_time, simulator.population_size)
    start = simulator.parallel_time
    executed = 0
    if predicate(simulator):
        return simulator.parallel_time
    while executed < budget:
        # One telemetry block per chunk (step time vs convergence-check
        # time), never per interaction.
        t0 = _REC.now_ns()
        simulator.run_interactions(min(interval, budget - executed))
        t1 = _REC.now_ns()
        hit = predicate(simulator)
        _REC.add_time("engine.step", t1 - t0)
        _REC.add_time("engine.convergence_check", _REC.now_ns() - t1)
        _REC.count("engine.convergence_checks")
        if hit:
            return simulator.parallel_time
        executed = _elapsed(simulator, start)
    raise ConvergenceError(
        f"predicate did not hold within {max_parallel_time} units of parallel time "
        f"(n={simulator.population_size})"
    )


def run_with_trace(
    simulator, total_parallel_time: float, samples: int
) -> list[CountTracePoint]:
    """Run for ``total_parallel_time``; return evenly spaced snapshots.

    The initial configuration is always the first point; the remaining
    checkpoints are the exact boundaries of
    :func:`repro.types.snapshot_boundaries` — precisely ``samples`` further
    points whenever the run is at least ``samples`` interactions long.  An
    engine that stops only at round boundaries takes each snapshot at the
    first boundary at or after its checkpoint.
    """
    if samples < 1:
        raise SimulationError("samples must be at least 1")
    total_interactions = interactions_for_time(
        total_parallel_time, simulator.population_size
    )
    start = simulator.parallel_time
    trace = [_trace_point(simulator)]
    for boundary in snapshot_boundaries(total_interactions, samples):
        simulator.run_interactions(max(0, boundary - _elapsed(simulator, start)))
        trace.append(_trace_point(simulator))
    return trace
