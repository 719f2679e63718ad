"""Shared type aliases and small value objects used across the library.

The population-protocol model of the paper measures time in *parallel time*
(number of interactions divided by the population size ``n``).  Several parts
of the library need to convert between interaction counts and parallel time,
and to talk about agents, states and population sizes in a uniform way; the
aliases and helpers here keep those conversions explicit and tested in one
place.  :class:`Workload` is the base of every registry entry the sweep
driver, the CLI and the benchmarks run by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Hashable, Mapping, TypeVar

from repro.exceptions import ConvergenceError, SimulationError

if TYPE_CHECKING:
    from repro.harness.results import RunRecord

#: Index of an agent within the population, in ``range(n)``.
AgentId = int

#: Number of agents in the population.
PopulationSize = int

#: Number of pairwise interactions executed so far.
InteractionCount = int

#: Parallel time = interactions / population size (float, unitless).
ParallelTime = float

#: A protocol state.  For the count-based engine states must be hashable; the
#: agent-based engine accepts arbitrary (mutable) objects.
State = TypeVar("State", bound=Hashable)


def parallel_time(interactions: int, n: int) -> float:
    """Convert an interaction count to parallel time for population size ``n``.

    Parameters
    ----------
    interactions:
        Total number of pairwise interactions executed.
    n:
        Population size; must be positive.

    Returns
    -------
    float
        ``interactions / n``, the standard parallel-time normalisation used
        throughout the paper ("we expect each agent to have O(1) interactions
        per unit of time").
    """
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n}")
    if interactions < 0:
        raise ValueError(f"interaction count must be non-negative, got {interactions}")
    return interactions / n


def interactions_for_time(time: float, n: int) -> int:
    """Number of interactions corresponding to ``time`` units of parallel time.

    The result is rounded up so that simulating ``interactions_for_time(t, n)``
    interactions covers *at least* ``t`` units of parallel time.
    """
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n}")
    if time < 0:
        raise ValueError(f"parallel time must be non-negative, got {time}")
    interactions = int(time * n)
    if interactions < time * n:
        interactions += 1
    return interactions


def snapshot_boundaries(total_interactions: int, samples: int) -> list[int]:
    """Exact evenly spaced snapshot checkpoints for a trace of a run.

    Returns the interaction counts ``floor(k * total / samples)`` for
    ``k = 1 .. samples`` with duplicates removed, in increasing order.  For
    ``total_interactions >= samples`` this is exactly ``samples`` strictly
    increasing checkpoints ending at ``total_interactions``; for shorter runs
    every interaction becomes a checkpoint.  Chunking by
    ``total // samples`` instead (as the count engine once did) produces far
    more or fewer snapshots than requested whenever ``samples`` does not
    divide ``total``.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if total_interactions < 0:
        raise ValueError(
            f"interaction count must be non-negative, got {total_interactions}"
        )
    boundaries: list[int] = []
    previous = 0
    for k in range(1, samples + 1):
        boundary = (k * total_interactions) // samples
        if boundary > previous:
            boundaries.append(boundary)
            previous = boundary
    return boundaries


@dataclass(frozen=True, slots=True)
class InteractionPair:
    """An ordered pair of agents chosen by the scheduler.

    The paper's transition algorithm distinguishes the two participants (the
    pseudocode uses ``rec``/``sen``); we follow the same convention.  The
    *receiver* is listed first to match ``Protocol 1``'s signature
    ``Log-Size-Estimation(rec, sen)``.
    """

    receiver: AgentId
    sender: AgentId

    def __post_init__(self) -> None:
        if self.receiver == self.sender:
            raise ValueError("an agent cannot interact with itself")
        if self.receiver < 0 or self.sender < 0:
            raise ValueError("agent identifiers must be non-negative")

    def reversed(self) -> "InteractionPair":
        """Return the pair with the roles of receiver and sender swapped."""
        return InteractionPair(receiver=self.sender, sender=self.receiver)

    def as_tuple(self) -> tuple[int, int]:
        """Return ``(receiver, sender)`` as a plain tuple."""
        return (self.receiver, self.sender)


#: Trial kinds: which engine path runs a trial (``TrialSpec.kind``) and, for
#: all but the sequential reference, which kind of workload a registry entry is.
KIND_FINITE_STATE = "finite-state"
KIND_SEQUENTIAL = "sequential"
KIND_VECTOR = "vector"
KIND_CRN = "crn"


@dataclass(frozen=True, kw_only=True)
class Workload:
    """A workload the sweep driver, the CLI and the benchmarks run by name.

    One subclass per kind (``ProtocolWorkload``, ``KernelWorkload`` and
    ``ReferenceWorkload`` in :mod:`repro.harness.parallel`,
    ``NetworkWorkload`` in :mod:`repro.crn.library`) holds the kind's fields
    and behaviour, so callers use only this interface: :meth:`trials`
    expands a sweep into specs with the workload's default engine and
    budget, :meth:`check` rejects a spec the entry cannot run, and
    :meth:`run` builds the engine for one spec's ``(n, seed)``, runs it to
    the predicate or the budget and records the kind's extras.

    Attributes
    ----------
    name:
        Registry key (``repro simulate --protocol NAME`` or ``--crn NAME``);
        ``None`` for the unnamed entry a spec's own callables fill in.
    description:
        One line for ``--help`` and ``repro protocols`` output.
    default_population:
        Default ``n`` for single-shot CLI runs.
    kind:
        Class attribute: the ``TrialSpec.kind`` of the workload's trials.
    store_prefix:
        Class attribute: a sweep stores to ``<store_prefix><name>-<engine>``.
    """

    name: str | None
    description: str = ""
    default_population: int = 0

    kind: ClassVar[str]
    store_prefix: ClassVar[str] = ""

    @property
    def engines(self) -> tuple[str, ...]:
        """The engines the workload runs on."""
        from repro.engine.selection import ENGINE_NAMES

        return ENGINE_NAMES

    def trials(self, population_sizes, runs_per_size, **options) -> list:
        """One ``TrialSpec`` per (size, run), through the kind's builder."""
        raise NotImplementedError

    def scheduler_capability(self, spec) -> str:
        """The scheduler capability the spec's trial consumes: its engine's."""
        from repro.engine.selection import ENGINE_SCHEDULER_CAPABILITY

        return ENGINE_SCHEDULER_CAPABILITY[spec.engine]

    def check(self, spec) -> None:
        """Fail fast on a spec this entry cannot run (build time, not inside
        a worker mid-sweep).  The base rejects a network and checks an
        explicit scheduler against :meth:`scheduler_capability`."""
        if spec.crn is not None:
            raise SimulationError(
                f"{spec.kind} trials do not take a CRN (crn=...); use kind='crn'"
            )
        if spec.scheduler is None:
            return
        from repro.engine.scheduler import get_scheduler_policy

        policy_cls = get_scheduler_policy(spec.scheduler)
        capability = self.scheduler_capability(spec)
        if capability not in policy_cls.capabilities:
            raise SimulationError(
                f"scheduler {spec.scheduler!r} is not compatible with "
                f"{spec.kind} trials on the {spec.engine} engine "
                f"(needs the {capability!r} capability; see `repro engines`)"
            )
        # Instantiate once so malformed options surface now as well.
        spec.scheduler_spec().build_policy()

    @staticmethod
    def _check_engine(spec) -> None:
        from repro.engine.selection import ENGINE_NAMES

        if spec.engine not in ENGINE_NAMES:
            raise SimulationError(
                f"unknown engine {spec.engine!r}; expected one of "
                f"{', '.join(ENGINE_NAMES)}"
            )

    def run(self, spec) -> RunRecord:
        """Build, run and record one trial; an exhausted budget is recorded
        as a non-converged trial, not raised."""
        raise NotImplementedError

    @staticmethod
    def _run_until(simulator, predicate, spec) -> tuple[bool, float | None]:
        """``(converged, convergence_time)`` of ``simulator`` run to
        ``predicate`` within the spec's budget."""
        try:
            return True, simulator.run_until(
                predicate,
                max_parallel_time=spec.max_parallel_time,
                check_interval=spec.check_interval,
            )
        except ConvergenceError:
            return False, None

    @staticmethod
    def _record(spec, converged, convergence_time, extra, error=math.nan) -> RunRecord:
        from repro.harness.results import RunRecord

        return RunRecord(
            population_size=spec.population_size,
            seed=spec.seed,
            converged=converged,
            convergence_time=convergence_time,
            max_additive_error=error,
            extra=extra,
        )


def lookup_workload(
    registry: Mapping[str, Workload], name: str, label: str = "workload"
) -> Workload:
    """``registry[name]``, or a :class:`SimulationError` naming the entries."""
    try:
        return registry[name]
    except KeyError:
        raise SimulationError(
            f"unknown {label} {name!r}; registered: {', '.join(sorted(registry))}"
        ) from None
