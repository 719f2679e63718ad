"""Engine selection: the engine table behind :func:`build_engine`.

Five engines can run a :class:`~repro.protocols.base.FiniteStateProtocol`
(see :mod:`repro.engine` and ``DESIGN.md``, Engine selection, for which
fits which experiment): ``"agent"`` (the reference
:class:`~repro.engine.simulator.Simulation`, exact and ``O(n)``),
``"count"`` (:class:`~repro.engine.count_simulator.CountSimulator`, one
Python step per interaction), ``"batched"``
(:class:`~repro.engine.batched_simulator.BatchedCountSimulator`, the
fastest for ``n >= 10^5``), ``"vector"``
(:class:`~repro.engine.vector.VectorFiniteStateSimulator`, synchronous
matching rounds over per-agent arrays) and ``"multiscale"``
(:class:`~repro.crn.multiscale.MultiscaleSimulator`, approximate but
count-bound, to ``n = 10^12``).

:func:`build_engine` is one lookup in the engine table (:data:`ENGINES`):
each row names the engine's class, the scheduler capability it consumes,
its default scheduler, whether it runs on an array backend and the extra
options it accepts.  Every engine derives from
:class:`~repro.engine.running.Engine`, and
:class:`CountingSimulationAdapter` gives the agent engine the count-level
interface of the other four, so harness code, the CLI and the benchmarks
treat the engine as a string parameter.  The scheduler is a second one:
each engine's capability (:data:`ENGINE_SCHEDULER_CAPABILITY`) together
with the policies' declared capabilities forms the engine × scheduler
compatibility matrix (:func:`engine_scheduler_matrix`; printed by ``repro
engines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro._lazy import Reference
from repro.backend import ENV_BACKEND, ArrayBackend
from repro.engine.configuration import Configuration
from repro.engine.running import Engine, initial_states_for
from repro.engine.scheduler import (
    SchedulerSpec,
    get_scheduler_policy,
    scheduler_names,
)
from repro.exceptions import SimulationError
from repro.protocols.base import FiniteStateProtocol

__all__ = [
    "ARRAY_ENGINE_NAMES",
    "DEFAULT_SCHEDULERS",
    "ENGINES",
    "ENGINE_NAMES",
    "ENGINE_SCHEDULER_CAPABILITY",
    "SEQUENTIAL_ENGINE_NAMES",
    "CountingSimulationAdapter",
    "EngineEntry",
    "build_engine",
    "check_engine_options",
    "engine_scheduler_matrix",
    "resolve_scheduler_spec",
    "schedulers_for_engine",
]


class CountingSimulationAdapter(Engine):
    """Run a finite-state protocol on the agent engine behind the count API.

    Wraps a :class:`Simulation` over ``protocol.as_agent_protocol()`` and
    adds ``count`` and ``configuration`` over its agents, so engine-generic
    code (predicates written against ``.count(state)``, tracing,
    ``run_until``, ``outputs``) works unchanged.  Count queries are
    ``O(n)`` — acceptable at the small populations where the agent engine
    is the right choice anyway.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        scheduler: SchedulerSpec | str | None = None,
    ) -> None:
        from repro.engine.simulator import Simulation

        self.protocol = protocol
        self.population_size = population_size
        self.simulation = Simulation(
            protocol=protocol.as_agent_protocol(),
            population_size=population_size,
            seed=seed,
            scheduler=scheduler,
            initial_states=initial_states_for(initial_configuration, population_size),
        )

    @property
    def interactions(self) -> int:
        """Interactions executed so far."""
        return self.simulation.interactions

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.simulation.parallel_time

    def configuration(self) -> Configuration:
        """Return the current configuration multiset."""
        return self.simulation.configuration()

    def count(self, state: Hashable) -> int:
        """Return the number of agents currently in ``state``."""
        return self.simulation.count_where(lambda current: current == state)

    def run_interactions(self, count: int) -> None:
        """Execute exactly ``count`` additional interactions."""
        self.simulation.run_interactions(count)


@dataclass(frozen=True)
class EngineEntry:
    """One row of the engine table: the engine class :func:`build_engine`
    constructs, the scheduler capability it consumes, the scheduler used
    when a caller does not choose one, whether it runs its hot loop on an
    array backend, and the extra keyword options its constructor accepts.

    The class may be given by its ``module:qualname``; it is imported when
    ``cls`` is first read, so the table loads no engine module."""

    cls: type[Engine] | str = Reference()
    capability: str
    default_scheduler: str
    array_backend: bool = False
    options: tuple[str, ...] = ()


#: The engines :func:`build_engine` (and the CLI) accept.  The agent engine
#: takes any per-pair scheduler stream, the count-level engines any policy
#: exposing per-state interaction weights, the vector engine any round
#: scheduler, and the multiscale engine only the uniform well-mixed pair
#: distribution its mean-field propensity model presupposes
#: (``"mean-field"``, carried only by the sequential policy).  The default
#: is the paper's sequential policy wherever it is expressible, the
#: matching substitution on the round-based vector engine.
ENGINES: dict[str, EngineEntry] = {
    "agent": EngineEntry(CountingSimulationAdapter, "pair", "sequential"),
    "count": EngineEntry(
        "repro.engine.count_simulator:CountSimulator", "counts", "sequential"
    ),
    "batched": EngineEntry(
        "repro.engine.batched_simulator:BatchedCountSimulator", "counts",
        "sequential", array_backend=True,
        options=("batch_size", "small_count_threshold"),
    ),
    "vector": EngineEntry(
        "repro.engine.vector:VectorFiniteStateSimulator", "rounds", "matching",
        array_backend=True,
    ),
    "multiscale": EngineEntry(
        "repro.crn.multiscale:MultiscaleSimulator", "mean-field", "sequential",
        array_backend=True, options=("leap_eps", "regime_thresholds"),
    ),
}

#: The engine identifiers accepted by :func:`build_engine` (and the CLI).
ENGINE_NAMES = tuple(ENGINES)

#: Which scheduler-policy capability each engine consumes.  Together with
#: each policy's declared capabilities this *is* the engine × scheduler
#: compatibility matrix (``repro engines`` prints it).
ENGINE_SCHEDULER_CAPABILITY = {name: row.capability for name, row in ENGINES.items()}

#: The scheduler used when a caller does not choose one.
DEFAULT_SCHEDULERS = {name: row.default_scheduler for name, row in ENGINES.items()}

#: The engines whose default scheduler is the exact sequential uniform-pair
#: policy (the vector engine substitutes synchronous matching rounds,
#: agreeing only up to constant factors in time — see ``DESIGN.md``,
#: Schedulers).
SEQUENTIAL_ENGINE_NAMES = tuple(
    engine for engine in ENGINE_NAMES if DEFAULT_SCHEDULERS[engine] == "sequential"
)

#: The engines that run a kernel from the array-backend seam
#: (:mod:`repro.backend`); only they resolve a backend.
ARRAY_ENGINE_NAMES = tuple(name for name, row in ENGINES.items() if row.array_backend)


def schedulers_for_engine(engine: str) -> tuple[str, ...]:
    """Registered scheduler names the given engine can run."""
    try:
        capability = ENGINE_SCHEDULER_CAPABILITY[engine]
    except KeyError:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
        ) from None
    return tuple(
        name
        for name in scheduler_names()
        if capability in get_scheduler_policy(name).capabilities
    )


def engine_scheduler_matrix() -> dict[str, tuple[str, ...]]:
    """The full engine × scheduler compatibility matrix."""
    return {engine: schedulers_for_engine(engine) for engine in ENGINE_NAMES}


def resolve_scheduler_spec(
    engine: str,
    scheduler: SchedulerSpec | str | None,
    scheduler_options: Mapping[str, object] | None = None,
) -> SchedulerSpec:
    """Coerce a scheduler choice for ``engine``, validating compatibility.

    Besides the engine × scheduler compatibility check, option names are
    validated and option values type-coerced against the policy's declared
    :attr:`~repro.engine.scheduler.SchedulerPolicy.option_types` — an
    unknown ``--scheduler-opt`` key or an uncoercible value (``intra=abc``)
    raises a :class:`SimulationError` here, before any policy constructor
    sees a raw string.
    """
    spec = SchedulerSpec.coerce(
        scheduler, default=DEFAULT_SCHEDULERS[engine], options=scheduler_options
    )
    supported = schedulers_for_engine(engine)
    if spec.name not in supported:
        raise SimulationError(
            f"scheduler {spec.name!r} is not compatible with the {engine} engine; "
            f"supported: {', '.join(supported)} (see `repro engines`)"
        )
    return spec.coerced()


def check_engine_options(engine: str, options: Mapping[str, object]) -> dict:
    """``options`` checked for ``engine``, in canonical form.

    Rejects an unknown engine, option names its constructor does not take
    and values its ``check_options``, which the constructor also runs,
    rejects.  :func:`build_engine` runs it, and a trial spec when it is
    built, keeping the canonical values.  ``backend`` is never a trial
    option: the array backend is a setting of the process, so it reaches
    no record or cache key."""
    entry = ENGINES.get(engine)
    if entry is None:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
        )
    unknown = set(options) - set(entry.options)
    if "backend" in unknown:
        raise SimulationError(
            f"the array backend is a setting of the process, not an engine "
            f"option: pass --backend NAME or set {ENV_BACKEND}"
        )
    if unknown:
        raise SimulationError(
            f"the {engine} engine does not accept options {sorted(unknown)}; "
            f"allowed: {sorted(entry.options) or 'none'}"
        )
    return entry.cls.check_options(**options) if entry.options else {}


def build_engine(
    engine: str,
    protocol: FiniteStateProtocol,
    population_size: int,
    seed: int | None = None,
    initial_configuration: Configuration | None = None,
    scheduler: SchedulerSpec | str | None = None,
    scheduler_options: Mapping[str, object] | None = None,
    backend: "ArrayBackend | str | None" = None,
    **engine_options,
) -> Engine:
    """Construct the requested engine for ``protocol`` at ``population_size``.

    Parameters
    ----------
    engine:
        One of :data:`ENGINE_NAMES` (``"agent"``, ``"count"``, ``"batched"``,
        ``"vector"``, ``"multiscale"``).
    scheduler:
        Scheduling policy: a registered name or a
        :class:`~repro.engine.scheduler.SchedulerSpec`.  ``None`` selects the
        engine's default (:data:`DEFAULT_SCHEDULERS`).  The (engine,
        scheduler) pair is validated against the compatibility matrix
        (:func:`engine_scheduler_matrix`) before the engine is built.
    scheduler_options:
        Options for a scheduler given by name (e.g. ``{"intra": 0.95}``).
    backend:
        Array backend for the engines that run a kernel from the seam
        (:data:`ARRAY_ENGINE_NAMES`): a registered name (``"numpy"``,
        ``"native"``), an :class:`~repro.backend.ArrayBackend` instance, or
        ``None`` for the process's backend (``REPRO_BACKEND`` or numpy).
        The batched engine takes its count advance from it, the vector
        engine its matching draw and ``Log-Size-Estimation`` round, and the
        multiscale engine its regime loop.  Every backend makes the same
        draws, so the choice never changes a trajectory.  The agent and
        count engines have no kernel on the seam and reject an explicit
        backend.
    engine_options:
        Extra keyword arguments forwarded to the engine constructor (the
        batched engine takes ``batch_size`` / ``small_count_threshold``, the
        multiscale engine ``leap_eps`` / ``regime_thresholds``).

    Raises
    ------
    SimulationError
        For an unknown engine name, an incompatible (engine, scheduler)
        combination, options or option values the engine does not accept,
        or a backend for an engine that runs no kernel from the seam.
    """
    engine_options = check_engine_options(engine, engine_options)
    spec = resolve_scheduler_spec(engine, scheduler, scheduler_options)
    entry = ENGINES[engine]
    if entry.array_backend:
        engine_options["backend"] = backend
    elif backend is not None:
        raise SimulationError(
            f"the {engine} engine runs no kernel from the array-backend seam "
            f"and takes no backend"
        )
    return entry.cls(
        protocol, population_size, seed=seed,
        initial_configuration=initial_configuration,
        scheduler=spec,
        **engine_options,
    )
