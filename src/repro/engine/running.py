"""The engine interface, and the run loops every engine shares.

Every engine derives from :class:`Engine`.  An engine provides only what
differs: its constructor, its clock (``population_size``, ``interactions``,
``parallel_time``), ``run_interactions``, its count representation
(``configuration``) and ``states_seen``.  :class:`Engine` derives
``run_parallel_time``, ``run_until``, ``run_with_trace`` and ``outputs``
from those, and :class:`CountArrayEngine` adds ``configuration`` and
``count`` for the engines that keep one count per compiled state, so a fix
to the budget accounting or an argument check applies to every engine.

The predicate loop (:func:`run_until_predicate`) and the snapshot loop
(:func:`run_with_trace`) measure progress on the engine's own clock, not by
the chunk sizes they asked for, so an engine that can only stop at round
boundaries overshoots a chunk without the overshoot adding up.  The
construction checks the engines share live here too.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Container, Hashable, Mapping

from repro.engine.configuration import Configuration
from repro.exceptions import ConvergenceError, SimulationError
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol
from repro.types import interactions_for_time, snapshot_boundaries

__all__ = [
    "CountArrayEngine",
    "CountTracePoint",
    "Engine",
    "check_population_size",
    "initial_configuration_for",
    "initial_states_for",
    "run_until_predicate",
    "run_with_trace",
]


@dataclass
class CountTracePoint:
    """One sampled configuration of a count-level run."""

    interaction: int
    parallel_time: float
    configuration: Configuration


class Engine(ABC):
    """The interface every simulation engine shares.

    Three engines override one method each: ``VectorSimulator.run_until``
    (checks every round, round-aligned budget),
    ``MultiscaleSimulator.run_parallel_time`` (advances exactly ``time``)
    and ``Simulation.outputs`` (the per-agent list).

    ``run_with_trace`` and ``outputs`` read ``configuration``, which the
    agent and count engines and every :class:`CountArrayEngine` (batched,
    multiscale, vector finite-state) have.  A plain
    :class:`~repro.engine.vector.VectorSimulator` of a per-agent-field
    protocol (``Log-Size-Estimation``, the leader-terminating protocol) has
    none, and both methods raise :class:`SimulationError` there before the
    clock moves.
    """

    protocol: Any
    population_size: int

    @abstractmethod
    def run_interactions(self, count: int) -> None:
        """Execute ``count`` additional interactions on the engine's clock."""

    def run_parallel_time(self, time: float) -> None:
        """Execute (at least) ``time`` additional units of parallel time."""
        if not 0 <= time < math.inf:
            raise SimulationError(
                f"parallel time must be non-negative and finite, got {time}"
            )
        self.run_interactions(interactions_for_time(time, self.population_size))

    def run_until(
        self,
        predicate: Callable[[Any], bool],
        max_parallel_time: float,
        check_interval: int | None = None,
    ) -> float:
        """Run until ``predicate(self)`` holds; return the parallel time
        reached (see :func:`run_until_predicate`)."""
        return run_until_predicate(self, predicate, max_parallel_time, check_interval)

    def run_with_trace(
        self, total_parallel_time: float, samples: int
    ) -> list[CountTracePoint]:
        """Run for ``total_parallel_time``; return evenly spaced snapshots
        (see :func:`run_with_trace`)."""
        return run_with_trace(self, total_parallel_time, samples)

    def configuration(self) -> Configuration:
        """The current configuration; an engine without one raises."""
        raise SimulationError(
            f"{type(self.protocol).__name__} has no count configuration, "
            f"which run_with_trace and outputs need"
        )

    def outputs(self) -> Counter:
        """Histogram of outputs over the population."""
        histogram: Counter = Counter()
        for state, count in self.configuration().items():
            histogram[self.protocol.output(state)] += count
        return histogram


class CountArrayEngine(Engine):
    """An engine that keeps one count per compiled state: subclasses set
    ``_states`` (table order) and ``_state_index`` (state → position)."""

    _states: tuple[Hashable, ...]
    _state_index: Mapping[Hashable, int]

    @abstractmethod
    def _state_counts(self):
        """The current integer count of every state, indexed like ``_states``."""

    def configuration(self) -> Configuration:
        """Return the current configuration (immutable copy)."""
        pairs = zip(self._states, self._state_counts())
        return Configuration({state: int(count) for state, count in pairs if count > 0})

    def count(self, state: Hashable) -> int:
        """Return the current count of ``state`` (0 for unknown states)."""
        position = self._state_index.get(state)
        if position is None:
            return 0
        return int(self._state_counts()[position])


def check_population_size(population_size: int) -> None:
    """Reject populations of fewer than two agents (no pair can interact)."""
    if population_size < 2:
        raise SimulationError(
            f"population must contain at least 2 agents, got {population_size}"
        )


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
    _check_size(initial_configuration, population_size)
    for state in initial_configuration:
        if state not in states:
            raise SimulationError(
                f"initial configuration contains state {state!r} outside "
                f"the protocol's state set"
            )
    return initial_configuration


def initial_states_for(
    initial_configuration: Configuration | None, population_size: int
) -> list[Hashable] | None:
    """The per-agent layout of a configuration (``None`` passes through),
    state by state in ``repr`` order, so the agent engines' RNG streams do
    not depend on the configuration's key order."""
    if initial_configuration is None:
        return None
    _check_size(initial_configuration, population_size)
    return [
        state
        for state, count in sorted(
            initial_configuration.items(), key=lambda item: repr(item[0])
        )
        for _ in range(count)
    ]


def _check_size(configuration: Configuration, population_size: int) -> None:
    if configuration.size != population_size:
        raise SimulationError(
            f"initial configuration has size {configuration.size}, "
            f"expected {population_size}"
        )


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
