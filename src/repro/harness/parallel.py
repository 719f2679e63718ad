"""Parallel sweep orchestration: picklable trial specs + a worker-pool driver.

PR 1 made *single runs* fast (the batched engine); this module makes *sweeps*
fast.  A sweep — every Figure-2 / termination / cross-engine experiment — is
a list of independent trials, one per ``(protocol, n, run, engine)``
combination.  Each trial is described by a frozen, picklable
:class:`TrialSpec`; :func:`run_trial` executes one spec to a
:class:`~repro.harness.results.RunRecord`; :func:`run_trials` claims each
spec from a result store (:mod:`repro.store`; in memory when the sweep has
none), runs it serially for ``workers=1`` or on a ``multiprocessing`` worker
pool, and appends its record, so interrupted sweeps resume without
recomputing finished trials.

Determinism
-----------
A trial's randomness depends only on its spec: the per-trial seed is derived
from ``(base_seed, size_index, run_index)`` via
:func:`repro.rng.spawn_seed` (``numpy.random.SeedSequence`` spawning), never
from worker identity or scheduling order, and results are collected in spec
order.  ``workers=4`` therefore produces record-for-record identical output
to ``workers=1``.

Workload registry
-----------------
Cached/parallel sweeps driven from the CLI reference workloads *by name*.
Every named workload is a :class:`~repro.types.Workload` entry whose
subclass builds, runs and records its trials, so :func:`run_trial` runs
``spec.workload().run(spec)`` for every kind.  :data:`WORKLOADS` holds the
protocols: :class:`ProtocolWorkload` entries, finite-state protocols
runnable on any engine of :data:`repro.engine.selection.ENGINE_NAMES`, and
:class:`KernelWorkload` entries, the vector-engine kernels of the paper
protocols that are not finite-state (``figure2``, ``leader-terminating``).
:data:`repro.crn.library.CRN_WORKLOADS` holds the reaction networks.
Worker processes re-import both modules, so both registries are available
on the far side of the pickle boundary.  A spec's name is resolved when the
spec is built, and the entry checks the spec (:meth:`Workload.check`), so an
unknown or wrong-kind name or a spec the entry cannot run fails before any
trial runs; a spec naming none runs on its kind's unnamed entry.  CRN trials
(``kind="crn"``, :func:`build_crn_trials`) embed the *network itself* in
the spec, so the full reaction system — every rate constant — participates
in the cache key.
Library callers may instead embed ``protocol_factory``/``predicate``
callables in the spec.  Their ``module:qualname`` keys the trial, so they
must be importable by that name (module-level functions or classes, not
lambdas, closures or ``functools.partial`` objects) — the same rule pickle
applies when ``workers > 1`` sends them to worker processes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from collections import deque
from queue import Empty, SimpleQueue
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Mapping, Sequence

from repro._lazy import Reference, resolve
from repro.core.parameters import ProtocolParameters
from repro.exceptions import SimulationError
from repro.harness.results import RunRecord, SweepResult
from repro.obs.manifest import TELEMETRY_KEY, trial_manifest
from repro.obs.progress import SweepProgress
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol
from repro.rng import spawn_seed
from repro.types import (
    KIND_CRN,
    KIND_FINITE_STATE,
    KIND_SEQUENTIAL,
    KIND_VECTOR,
    Workload,
    lookup_workload,
)

__all__ = [
    "KIND_CRN",
    "KIND_FINITE_STATE",
    "KIND_SEQUENTIAL",
    "KIND_VECTOR",
    "WORKLOADS",
    "KernelWorkload",
    "ProtocolWorkload",
    "ReferenceWorkload",
    "TrialSpec",
    "build_crn_trials",
    "build_finite_state_trials",
    "build_vector_trials",
    "get_workload",
    "register_workload",
    "run_trial",
    "run_trials",
]

# ---------------------------------------------------------------------------
# Workload registry (protocols referenced by name)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ProtocolWorkload(Workload):
    """A finite-state protocol, runnable on every engine.

    ``factory`` builds a fresh protocol per trial and ``predicate`` (over
    the count-level engine interface) says when it has converged; either
    may be given as the callable or as its ``module:qualname``, imported
    when first read.  ``default_budget`` maps ``n`` to a parallel-time
    budget.  A spec's own ``protocol_factory`` and ``predicate`` take the
    place of the entry's.
    """

    kind: ClassVar[str] = KIND_FINITE_STATE
    factory: Callable[[], FiniteStateProtocol] | str | None = Reference(None)
    predicate: Callable[..., bool] | str | None = Reference(None)
    default_budget: Callable[[int], float] | None = None

    def trials(self, population_sizes, runs_per_size, *, engine="batched",
               max_parallel_time=None, **options) -> list[TrialSpec]:
        if max_parallel_time is None:
            max_parallel_time = self.default_budget
        return build_finite_state_trials(
            population_sizes, runs_per_size, engine=engine, protocol=self.name,
            max_parallel_time=max_parallel_time, **options,
        )

    def check(self, spec: TrialSpec) -> None:
        if spec.protocol is None and (
            spec.protocol_factory is None or spec.predicate is None
        ):
            raise SimulationError(
                "a finite-state trial needs either a registered workload name "
                "(protocol=...) or explicit protocol_factory and predicate"
            )
        self._check_engine(spec)
        super().check(spec)

    def run(self, spec: TrialSpec) -> RunRecord:
        from repro.engine.selection import build_engine

        simulator = build_engine(
            spec.engine, (spec.protocol_factory or self.factory)(),
            spec.population_size, seed=spec.seed,
            scheduler=spec.scheduler_spec(), **dict(spec.engine_options),
        )
        converged, convergence_time = self._run_until(
            simulator, spec.predicate or self.predicate, spec
        )
        return self._record(spec, converged, convergence_time, {
            "engine": spec.engine,
            "interactions": int(simulator.interactions),
            "outputs": {
                str(output): int(count)
                for output, count in simulator.outputs().items()
            },
        })


@dataclass(frozen=True, kw_only=True)
class KernelWorkload(Workload):
    """A paper protocol that is not finite-state, as a vector-engine kernel.

    ``factory(params, **options)`` builds the kernel, which carries its own
    convergence condition (the callable or its ``module:qualname``, imported
    when first read); ``default_budget(n, params, **options)`` is the
    parallel-time budget for those constants and options.  A spec's
    ``engine_options`` are the kernel's: :meth:`check` builds the kernel
    with them, so a bad option fails before the trial has a key.
    """

    kind: ClassVar[str] = KIND_VECTOR
    factory: Callable[..., object] | str | None = Reference(None)
    default_budget: Callable[..., float] | None = None

    @property
    def engines(self) -> tuple[str, ...]:
        return ("vector",)

    def trials(self, population_sizes, runs_per_size, *, engine="vector",
               params=None, **options) -> list[TrialSpec]:
        if engine != "vector":
            raise SimulationError(
                f"workload {self.name!r} runs on the vector engine; "
                f"pass --engine vector"
            )
        return build_vector_trials(
            population_sizes, runs_per_size, protocol=self.name,
            params=params or ProtocolParameters.paper(), **options,
        )

    def kernel(self, params: ProtocolParameters, **options):
        """The kernel for ``params`` and ``options``; an option the factory
        does not take is a :class:`SimulationError`."""
        try:
            inspect.signature(self.factory).bind(params, **options)
        except TypeError as error:
            raise SimulationError(
                f"vector workload {self.name!r} does not accept options "
                f"{sorted(options)}: {error}"
            ) from None
        return self.factory(params, **options)

    def check(self, spec: TrialSpec) -> None:
        _check_params(spec)
        if spec.engine != "vector":
            raise SimulationError(
                f"workload {self.name!r} runs on the vector engine; its trials "
                f"need engine='vector', got {spec.engine!r}"
            )
        self.kernel(spec.params, **dict(spec.engine_options))
        super().check(spec)

    def run(self, spec: TrialSpec) -> RunRecord:
        from repro.engine.vector import VectorSimulator

        simulator = VectorSimulator(
            self.kernel(spec.params, **dict(spec.engine_options)),
            spec.population_size, seed=spec.seed, scheduler=spec.scheduler_spec(),
        )
        converged, convergence_time = self._run_until(
            simulator, VectorSimulator.all_done, spec
        )
        fields = simulator.protocol.result_extra(simulator.fields)
        extra = {
            "engine": "vector",
            "protocol": spec.protocol,
            "interactions": simulator.interactions,
        }
        # Estimation-style result fields, absent from a custom registered
        # kernel's result_extra.
        for name in ("log_size2", "distinct_state_bound", "final_estimate_mean"):
            if name in fields:
                extra[name] = fields[name]
        error = fields.get("max_additive_error", math.nan)
        return self._record(spec, converged, convergence_time, extra, error)


@dataclass(frozen=True, kw_only=True)
class ReferenceWorkload(Workload):
    """Agent-level ``Log-Size-Estimation`` to all-done: the unnamed entry of
    the sequential kind, the reference the vector engine is tested against."""

    kind: ClassVar[str] = KIND_SEQUENTIAL

    def trials(self, population_sizes, runs_per_size, *, params=None,
               max_parallel_time=None, **spec_fields) -> list[TrialSpec]:
        """``spec_fields`` are further :class:`TrialSpec` fields
        (``base_seed``, ``scheduler``, ...); the default budget is the
        ``figure2`` workload's."""
        params = params or ProtocolParameters.paper()
        if max_parallel_time is None:
            figure2 = get_workload("figure2")
            budget = lambda n: figure2.default_budget(n, params)
        else:
            budget = _as_budget(max_parallel_time)
        return _expand(
            population_sizes, runs_per_size, budget, kind=KIND_SEQUENTIAL,
            engine="sequential", params=params, **spec_fields,
        )

    def scheduler_capability(self, spec: TrialSpec) -> str:
        return "pair"

    def check(self, spec: TrialSpec) -> None:
        _check_params(spec)
        if spec.engine != "sequential":
            # The engine joins the key: any other name would key this one
            # trial a second way.
            raise SimulationError(
                f"a sequential trial runs on the agent-level engine its "
                f"workload names (engine='sequential'), got {spec.engine!r}"
            )
        if spec.engine_options or spec.protocol_factory or spec.predicate:
            raise SimulationError(
                "a sequential trial runs agent-level Log-Size-Estimation to "
                "all-done; it reads no engine_options, protocol_factory or "
                "predicate"
            )
        super().check(spec)

    def run(self, spec: TrialSpec) -> RunRecord:
        from repro.core.log_size_estimation import (
            LogSizeEstimationProtocol,
            all_agents_done,
            estimate_error,
        )
        from repro.engine.simulator import Simulation

        simulator = Simulation(
            protocol=LogSizeEstimationProtocol(spec.params),
            population_size=spec.population_size, seed=spec.seed,
            scheduler=spec.scheduler_spec(),
        )
        converged, convergence_time = self._run_until(
            simulator, all_agents_done, spec
        )
        try:
            error = estimate_error(simulator)["max_additive_error"]
        except ValueError:
            error = math.nan
        return self._record(spec, converged, convergence_time, {
            "engine": "sequential",
            "interactions": simulator.metrics.interactions,
            "distinct_states": simulator.metrics.distinct_states,
        }, error)


#: Named protocol workloads: finite-state protocols and vector kernels.
WORKLOADS: dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    """Register a named workload (overwrites an existing entry)."""
    WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Look up a registered workload, raising :class:`SimulationError` if absent."""
    return lookup_workload(WORKLOADS, name)


#: The unnamed entry of each kind that has one, which a spec's own callables
#: fill in; a vector trial names its kernel.
_UNNAMED: dict[str, Workload] = {
    KIND_FINITE_STATE: ProtocolWorkload(name=None),
    KIND_SEQUENTIAL: ReferenceWorkload(name=None),
}


def _workload(name: str | None, kind: str) -> Workload:
    """The entry ``name`` registers for ``kind`` (CRNs resolve in
    ``CRN_WORKLOADS``), or for ``None`` the kind's unnamed entry."""
    if kind == KIND_CRN:
        from repro.crn.library import NetworkWorkload, get_crn_workload

        return NetworkWorkload(name=None) if name is None else get_crn_workload(name)
    if name is None:
        try:
            return _UNNAMED[kind]
        except KeyError:
            raise SimulationError(
                f"a {kind} trial needs a registered {kind} workload name "
                f"(protocol=...)"
            ) from None
    workload = get_workload(name)
    if workload.kind != kind:
        raise SimulationError(
            f"workload {name!r} is a {workload.kind} workload; a {kind} trial "
            f"cannot run it"
        )
    return workload


def _check_params(spec: TrialSpec) -> None:
    if spec.params is None:
        raise SimulationError(
            f"{spec.kind} trials need ProtocolParameters (params=...)"
        )


def _counter_termination() -> FiniteStateProtocol:
    """The ``termination`` workload's protocol: the Figure-1 counter with
    threshold 8."""
    from repro.protocols.leader_election import FiniteStateCounterTermination

    return FiniteStateCounterTermination(counter_threshold=8)


def _figure2_budget(population_size, params, **_options):
    from repro.core.array_simulator import expected_convergence_time

    return 4.0 * expected_convergence_time(population_size, params)


def _leader_budget(population_size, params, **options):
    from repro.core.vector_leader import expected_termination_time

    return 4.0 * expected_termination_time(population_size, params, **options)


def _register_builtin_workloads() -> None:
    # Entries name their protocols by module:qualname, imported when a trial
    # first reads them (the functions above import when called), so
    # importing the harness loads no protocol module; a worker re-runs this
    # at import, so name lookups succeed in any start method.
    for workload in (
        ProtocolWorkload(
            name="epidemic",
            factory="repro.protocols.epidemic:EpidemicProtocol",
            predicate="repro.protocols.epidemic:epidemic_completion_predicate",
            description="one-way epidemic until the whole population is infected",
            default_population=100_000,
            default_budget=lambda n: 200.0,
        ),
        ProtocolWorkload(
            name="majority",
            factory="repro.protocols.majority:ApproximateMajorityProtocol",
            predicate="repro.protocols.majority:majority_consensus_predicate",
            description="3-state approximate majority until consensus",
            default_population=100_000,
            default_budget=lambda n: 200.0,
        ),
        ProtocolWorkload(
            name="leader",
            factory="repro.protocols.leader_election:FiniteStatePairwiseElimination",
            predicate="repro.protocols.leader_election:unique_leader_predicate",
            description="pairwise-elimination leader election until one leader remains",
            default_population=2_000,
            # The election needs Theta(n) parallel time (Theta(n^2) interactions).
            default_budget=lambda n: 4.0 * n,
        ),
        ProtocolWorkload(
            name="termination",
            factory=_counter_termination,
            predicate="repro.protocols.leader_election:termination_signal_predicate",
            description="Figure-1 counter protocol until the first termination signal",
            default_population=100_000,
            default_budget=lambda n: 200.0,
        ),
        KernelWorkload(
            name="figure2",
            factory="repro.core.array_simulator:LogSizeVectorProtocol",
            description=(
                "Log-Size-Estimation until every agent is done (the Figure 2 "
                "convergence sweep)"
            ),
            default_population=100_000,
            default_budget=_figure2_budget,
        ),
        KernelWorkload(
            name="leader-terminating",
            factory="repro.core.vector_leader:LeaderTerminatingVectorProtocol",
            description=(
                "Theorem 3.13 leader-driven terminating size estimation until "
                "the termination signal reaches every agent"
            ),
            default_population=100_000,
            default_budget=_leader_budget,
        ),
    ):
        register_workload(workload)


_register_builtin_workloads()


# ---------------------------------------------------------------------------
# Trial specification
# ---------------------------------------------------------------------------


def _callable_ref(value: Callable | None) -> str | None:
    """Stable textual reference to a callable, for hashing into cache keys.

    The reference is ``module:qualname``, so it must import back to the
    callable itself: a lambda, closure, bound method, callable instance or
    ``functools.partial`` has no such name, and two different ones would
    share one cache key (and replay each other's records).
    """
    if value is None:
        return None
    module = getattr(value, "__module__", None)
    qualname = getattr(value, "__qualname__", None)
    try:
        target = resolve(f"{module}:{qualname}")
    except (AttributeError, ImportError, TypeError, ValueError):
        target = None
    if target is not value:
        raise SimulationError(
            f"{value!r} cannot key a sweep: its module:qualname does not "
            f"import back to it (lambdas, closures, bound methods and "
            f"functools.partial objects have no importable name); pass a "
            f"module-level function or class instead, e.g. "
            f"def factory(): return Protocol(option=...)"
        )
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class TrialSpec:
    """One simulation trial, fully described by picklable data.

    The spec is the unit of parallelism *and* the unit of caching: a worker
    process receives the spec (nothing else), and the cache key is a hash of
    every field, so any change to the sweep — protocol, size, run index,
    base seed, engine, budget, options — invalidates exactly the affected
    trials.

    Attributes
    ----------
    kind:
        ``"finite-state"`` (any registered/supplied finite-state protocol on
        a selectable engine), ``"vector"`` (a registered vector kernel on
        the vector engine, e.g. the ``"figure2"`` Log-Size-Estimation
        sweep), ``"crn"`` (a chemical reaction network) or ``"sequential"``
        (agent-level ``Log-Size-Estimation``, the reference the vector
        engine is tested against).
    population_size / size_index / run_index / base_seed:
        Trial coordinates; the per-trial seed is
        ``spawn_seed(base_seed, size_index, run_index)``.
    engine:
        Engine name for finite-state and CRN trials (one of
        :data:`repro.engine.selection.ENGINE_NAMES`); ``"vector"`` for
        vector trials; informational for the sequential kind.
    max_parallel_time:
        Budget before the trial is recorded as non-converged.
    protocol:
        Name of a registered workload of the spec's kind (preferred for
        cached sweeps; CRN names resolve in ``CRN_WORKLOADS``), checked at
        construction, or ``None`` when ``protocol_factory``/``predicate``
        are given directly.  A sequential spec names none.
    protocol_factory / predicate:
        Direct callables.  Their ``module:qualname`` joins the cache key,
        so it must import back to the callable (checked here; the same
        rule pickle applies for ``workers > 1``).
    engine_options:
        ``(key, value)`` pairs forwarded to
        :func:`repro.engine.selection.build_engine` (to the kernel factory
        for the vector kind), checked, values included, when the spec is
        built and kept in the engine's canonical form.  The multiscale
        engine's ``leap_eps`` and ``regime_thresholds`` join the key at its
        top level.  Never the array backend: that is a setting of the
        process, so it keys no trial.
    scheduler / scheduler_options:
        Scheduling policy name and canonicalised option pairs.  ``None``
        selects the engine's default policy (sequential, or matching on the
        round-based kinds); an explicit choice is validated against the
        engine × scheduler compatibility matrix at spec construction and
        participates in the cache key, so a cached uniform-scheduler trial
        is never replayed for a non-uniform run.
    params:
        :class:`ProtocolParameters` for the estimation kinds.
    crn / crn_mode:
        CRN kind only: the embedded :class:`~repro.crn.model.CRN` (the full
        network travels in the spec, so its canonical form — every rate
        constant, product orientation and initial condition — participates
        in the cache key; a cached trial is never replayed for a modified
        network) and the lowering mode (``"uniform"`` or ``"thinned"``; the
        thinned lowering runs only on the count and batched engines).
    """

    kind: str
    population_size: int
    size_index: int
    run_index: int
    base_seed: int = 0
    engine: str = "count"
    max_parallel_time: float = 100.0
    check_interval: int | None = None
    protocol: str | None = None
    protocol_factory: Callable[[], FiniteStateProtocol] | None = None
    predicate: Callable[..., bool] | None = None
    engine_options: tuple[tuple[str, object], ...] = ()
    scheduler: str | None = None
    scheduler_options: tuple[tuple[str, object], ...] = ()
    params: ProtocolParameters | None = None
    crn: "object | None" = None
    crn_mode: str = "uniform"

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise SimulationError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        _callable_ref(self.protocol_factory)
        _callable_ref(self.predicate)
        if self.size_index < 0 or self.run_index < 0:
            raise SimulationError(
                f"size_index and run_index must be >= 0, got "
                f"({self.size_index}, {self.run_index})"
            )
        if self.max_parallel_time <= 0:
            raise SimulationError(
                f"max_parallel_time must be positive, got {self.max_parallel_time}"
            )
        if self.scheduler is None and self.scheduler_options:
            raise SimulationError(
                "scheduler_options were given without a scheduler; they would "
                "be silently ignored (set scheduler=... as well)"
            )
        # An unknown or wrong-kind name, or a spec its entry cannot run,
        # fails here, not inside a worker.
        self.workload().check(self)

    def scheduler_spec(self):
        """The trial's scheduler as a :class:`SchedulerSpec` (or ``None``).

        ``None`` means "the engine's default policy" and keeps the engines'
        historical draw-for-draw RNG streams.  The spec is returned in its
        coerced (canonical) form, so ``intra="0.95"`` and ``intra=0.95``
        build the same policy *and* hash to the same sweep cache key.
        """
        if self.scheduler is None:
            return None
        from repro.engine.scheduler import SchedulerSpec

        return SchedulerSpec(
            name=self.scheduler, options=self.scheduler_options
        ).coerced()

    @property
    def seed(self) -> int:
        """Deterministic per-trial seed (collision-free across the sweep)."""
        return spawn_seed(self.base_seed, self.size_index, self.run_index)

    def cache_payload(self) -> dict:
        """The canonical key payload hashed by :meth:`cache_key`.

        Public so the staticcheck contract audit (rule ``K405``) can prove
        that *store-selection* names never leak into the key: the payload
        describes the trial — what to simulate, with which seed and budget —
        and deliberately says nothing about where its record is persisted.
        """
        options = dict(self.engine_options)
        knobs = {
            name: options.pop(name, None) for name in ("leap_eps", "regime_thresholds")
        }
        payload = {
            "kind": self.kind,
            "population_size": self.population_size,
            "size_index": self.size_index,
            "run_index": self.run_index,
            "base_seed": self.base_seed,
            "engine": self.engine,
            "max_parallel_time": self.max_parallel_time,
            "check_interval": self.check_interval,
            "protocol": self.protocol,
            "protocol_factory": _callable_ref(self.protocol_factory),
            "predicate": _callable_ref(self.predicate),
            "engine_options": sorted(
                (str(key), repr(value)) for key, value in options.items()
            ),
            "params": None if self.params is None else {
                f.name: getattr(self.params, f.name) for f in fields(self.params)
            },
            # A field of the sequential kind that nothing set; the constant
            # keeps every key written while it existed.
            "track_states": False,
        }
        # The scheduler joins the payload only when one is explicitly
        # chosen: default-scheduler specs keep hashing exactly as they did
        # before schedulers became pluggable, so caches written by earlier
        # releases stay valid, while any non-default scheduler (or option
        # change) still gets its own key.  The canonical encoding lives on
        # SchedulerSpec (one implementation, shared with its unit tests).
        scheduler_spec = self.scheduler_spec()
        if scheduler_spec is not None:
            payload["scheduler"] = scheduler_spec.cache_payload()
        # Same join-only-when-present rule for the CRN kind: the canonical
        # network form (reactions, rate constants, product orientations,
        # initial condition) plus the lowering mode key the cache, so a
        # cached trial is never replayed for a CRN differing in any of them
        # — notably a single rate constant.
        if self.crn is not None:
            payload["crn"] = {
                "network": self.crn.canonical(),
                "mode": self.crn_mode,
            }
        # The multiscale engine's error-control options join at the top
        # level, only when set, as they did when they were fields of their
        # own: every key written then stays valid.
        payload.update(
            (name, value) for name, value in knobs.items() if value is not None
        )
        return payload

    def cache_key(self) -> str:
        """Stable content hash of the spec, used as the result-store key."""
        canonical = json.dumps(self.cache_payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def workload(self) -> Workload:
        """The entry that runs this trial.

        ``protocol`` names a registered workload of the spec's kind (an
        unknown or wrong-kind name raises :class:`SimulationError`); a spec
        naming none runs on its kind's unnamed entry, which the spec's own
        callables or network fill in.
        """
        return _workload(self.protocol, self.kind)


def _as_budget(budget: float | Callable[[int], float]) -> Callable[[int], float]:
    """A budget given as a constant or a callable ``n -> budget``, as a callable."""
    if callable(budget):
        return budget
    constant = float(budget)
    return lambda n: constant


def _expand(
    population_sizes: Sequence[int],
    runs_per_size: int,
    budget: Callable[[int], float],
    **spec_fields,
) -> list[TrialSpec]:
    """One :class:`TrialSpec` per (size, run); ``budget`` maps ``n`` to the
    parallel-time budget."""
    if not population_sizes:
        raise SimulationError("population_sizes must be non-empty")
    if runs_per_size < 1:
        raise SimulationError(f"runs_per_size must be >= 1, got {runs_per_size}")
    return [
        TrialSpec(
            population_size=population_size,
            size_index=size_index,
            run_index=run_index,
            max_parallel_time=budget(population_size),
            **spec_fields,
        )
        for size_index, population_size in enumerate(population_sizes)
        for run_index in range(runs_per_size)
    ]


def build_finite_state_trials(
    population_sizes: Sequence[int],
    runs_per_size: int,
    base_seed: int = 0,
    engine: str = "count",
    max_parallel_time: float | Callable[[int], float] = 100.0,
    check_interval: int | None = None,
    protocol: str | None = None,
    protocol_factory: Callable[[], FiniteStateProtocol] | None = None,
    predicate: Callable[..., bool] | None = None,
    scheduler: str | None = None,
    scheduler_options: Mapping[str, object] | None = None,
    **engine_options,
) -> list[TrialSpec]:
    """Expand a finite-state sweep into one :class:`TrialSpec` per trial.

    ``max_parallel_time`` may be a callable ``n -> budget`` for workloads
    whose budget scales with the population (e.g. leader election's ``4n``).
    ``scheduler`` (with ``scheduler_options``) selects a scheduling policy
    for every trial; ``None`` keeps the engine default.
    """
    return _expand(
        population_sizes,
        runs_per_size,
        _as_budget(max_parallel_time),
        kind=KIND_FINITE_STATE,
        base_seed=base_seed,
        engine=engine,
        check_interval=check_interval,
        protocol=protocol,
        protocol_factory=protocol_factory,
        predicate=predicate,
        engine_options=tuple(sorted(engine_options.items())),
        scheduler=scheduler,
        scheduler_options=tuple(sorted((scheduler_options or {}).items())),
    )


def build_vector_trials(
    population_sizes: Sequence[int],
    runs_per_size: int,
    protocol: str,
    params: ProtocolParameters,
    base_seed: int = 0,
    max_parallel_time: float | Callable[[int], float] | None = None,
    scheduler: str | None = None,
    scheduler_options: Mapping[str, object] | None = None,
    **engine_options,
) -> list[TrialSpec]:
    """Expand a vector-workload sweep into one :class:`TrialSpec` per trial.

    ``max_parallel_time`` may be a constant, a callable ``n -> budget``, or
    ``None`` to use the workload's default budget (which accounts for the
    protocol constants and any ``engine_options``, e.g. ``phase_count``).
    ``scheduler`` selects the round scheduler (default: uniform matching).
    """
    workload = _workload(protocol, KIND_VECTOR)
    # The options must suit the kernel before the default budget reads them.
    workload.kernel(params, **engine_options)
    if max_parallel_time is None:
        budget = lambda n: workload.default_budget(n, params, **engine_options)
    else:
        budget = _as_budget(max_parallel_time)
    return _expand(
        population_sizes,
        runs_per_size,
        budget,
        kind=KIND_VECTOR,
        base_seed=base_seed,
        engine="vector",
        protocol=protocol,
        params=params,
        engine_options=tuple(sorted(engine_options.items())),
        scheduler=scheduler,
        scheduler_options=tuple(sorted((scheduler_options or {}).items())),
    )


def build_crn_trials(
    population_sizes: Sequence[int],
    runs_per_size: int,
    crn: "str | object",
    base_seed: int = 0,
    engine: str = "batched",
    mode: str = "uniform",
    max_chemical_time: float | Callable[[int], float] | None = None,
    predicate: Callable[..., bool] | None = None,
    check_interval: int | None = None,
    **engine_options,
) -> list[TrialSpec]:
    """Expand a CRN sweep into one :class:`TrialSpec` per trial.

    ``crn`` is a registered :data:`~repro.crn.library.CRN_WORKLOADS` name or
    a :class:`~repro.crn.model.CRN` object (an ad-hoc network then needs an
    explicit ``predicate``).  Budgets are stated in *chemical* time
    (``max_chemical_time``, a constant or a callable ``n -> budget``;
    default: the workload's budget) and converted to the engines'
    parallel-time budgets through the compiled rate scale; for the thinned
    lowering the same scale is a generous event-clock heuristic (see
    ``DESIGN.md``, CRN front-end).  ``engine_options`` are the engine's
    options, checked when the specs are built: ``batch_size`` and
    ``small_count_threshold`` on the batched engine, ``leap_eps`` and
    ``regime_thresholds`` on the multiscale engine.
    """
    from repro.crn.compile import compile_crn
    from repro.crn.model import CRN

    protocol_name = None
    if isinstance(crn, str):
        workload = _workload(crn, KIND_CRN)
        protocol_name = workload.name
        network = workload.crn
        chemical_budget = (
            max_chemical_time
            if max_chemical_time is not None
            else workload.default_budget
        )
    elif isinstance(crn, CRN):
        network = crn
        if predicate is None:
            raise SimulationError(
                "an ad-hoc CRN sweep needs an explicit convergence predicate "
                "(predicate=...); registered workloads carry their own"
            )
        if max_chemical_time is None:
            raise SimulationError(
                "an ad-hoc CRN sweep needs an explicit chemical-time budget "
                "(max_chemical_time=...); registered workloads carry their own"
            )
        chemical_budget = max_chemical_time
    else:
        raise SimulationError(
            f"crn must be a registered workload name or a CRN, got {crn!r}"
        )
    chemical_budget = _as_budget(chemical_budget)
    # Compiling here fails fast on a bad mode/network before any worker;
    # rate_scale is the uniform Gamma in either mode (in thinned mode it is
    # the budget heuristic — see DESIGN.md, CRN front-end).
    rate_scale = compile_crn(network, mode=mode).rate_scale
    return _expand(
        population_sizes,
        runs_per_size,
        lambda n: rate_scale * chemical_budget(n),
        kind=KIND_CRN,
        base_seed=base_seed,
        engine=engine,
        check_interval=check_interval,
        protocol=protocol_name,
        predicate=predicate,
        engine_options=tuple(sorted(engine_options.items())),
        crn=network,
        crn_mode=mode,
    )


# ---------------------------------------------------------------------------
# Trial execution (runs inside worker processes)
# ---------------------------------------------------------------------------


def run_trial(spec: TrialSpec) -> RunRecord:
    """Execute one trial (in whatever process this is called from).

    With telemetry enabled (``repro.obs.set_telemetry``), the trial's run
    manifest — spec hash, seed lineage, resolved engine/backend/scheduler,
    hot-path counters and the timing breakdown accumulated during *this*
    execution window — is attached under ``record.extra["telemetry"]``.
    The key is contractually excluded from cache keys (staticcheck K406)
    and the simulated trajectory is bit-identical either way: telemetry
    only observes.
    """
    if not _REC.enabled:
        return spec.workload().run(spec)
    mark = _REC.mark()
    record = spec.workload().run(spec)
    end_ns = _REC.now_ns()
    delta = _REC.since(mark)
    _REC.add_span(
        "trial",
        mark.t_ns,
        end_ns,
        category="sweep",
        args={
            "kind": spec.kind,
            "engine": spec.engine,
            "n": spec.population_size,
            "seed": spec.seed,
        },
    )
    record.extra[TELEMETRY_KEY] = trial_manifest(spec, delta)
    # Workers persist their span events per trial so a crashed worker
    # loses at most one trial's trace; a no-op without a spool directory.
    _REC.flush_spool()
    return record


def _enable_worker_telemetry(spool_dir: str | None) -> None:
    """``multiprocessing.Pool`` initializer: mirror the driver's telemetry
    state into the worker process (fresh processes start disabled)."""
    from repro.obs.recorder import set_telemetry

    set_telemetry(True, spool_dir)


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


def run_trials(
    specs: Sequence[TrialSpec],
    workers: int = 1,
    store=None,
    lease_seconds: float | None = None,
    owner: str | None = None,
    poll_interval: float = 0.05,
    progress: Callable[[SweepProgress], None] | None = None,
) -> SweepResult:
    """Run a sweep of trials through a claim-loop over a result store.

    The driver repeatedly *claims* the next unowned spec from the store,
    runs it (inline or on a ``multiprocessing`` pool), appends the record,
    and moves on.  Claims are atomic compare-and-claim with lease expiry,
    so any number of concurrent drivers — in other processes, on other
    hosts — can point at the same store and cooperate on one sweep: each
    trial executes exactly once, a crashed driver's leased trials are
    reclaimed after the lease expires, and the sweep resumes from any mix
    of completed/leased/failed trials.  Specs sharing a cache key run once
    and every index gets the record.  If a trial raises, the driver
    releases every lease it still holds and re-raises.

    Parameters
    ----------
    specs:
        The trials, typically from a workload entry's ``trials`` (e.g.
        ``get_workload("epidemic").trials(...)``) or one of the
        ``build_*_trials`` builders.
    workers:
        Worker processes.  ``1`` runs claimed trials serially in-process
        (no pickling constraints); ``> 1`` runs them on a
        ``multiprocessing.Pool``, at most ``workers`` in flight.  Claims
        and appends always happen in the driver process.
    store:
        A :class:`~repro.store.base.ResultStore`, a parsed
        :class:`~repro.store.base.StoreSpec`, or a store URL
        (``jsonl:DIR`` / ``sqlite:PATH`` / ``http://HOST:PORT``).  ``None``
        claims from an in-memory :class:`~repro.store.jsonl.JsonlStore`
        that writes no file.
    lease_seconds:
        Lease duration for each claim; ``None`` uses the store's default.
        Size it to comfortably exceed the slowest single trial.
    owner:
        Lease-owner identity; defaults to ``hostname:pid``.
    poll_interval:
        Seconds to wait between claim passes while other drivers hold the
        leases of every remaining trial.  While this driver's own trials
        are in flight it wakes on their completion instead.
    progress:
        Optional callback invoked with a
        :class:`~repro.obs.progress.SweepProgress` after every resolved
        trial (executed locally *or* replayed from the store); drives the
        ``repro sweep --progress`` live view.  Purely observational — it
        must not raise.

    Returns
    -------
    SweepResult
        Records in spec order plus executed / from-cache provenance.
        Records depend only on the specs — identical regardless of
        ``workers``, driver count, or which store served them.
    """
    from repro.store import open_store
    from repro.store.base import default_owner
    from repro.store.jsonl import JsonlStore

    specs = list(specs)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    resolved = JsonlStore() if store is None else open_store(store)
    if owner is None:
        owner = default_owner()
    records: list[RunRecord | None] = [None] * len(specs)

    indices_by_key: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        indices_by_key.setdefault(spec.cache_key(), []).append(index)

    executed_keys: list[str] = []
    from_cache = 0
    replayed_unique = 0
    total_unique = len(indices_by_key)

    def _resolve(key: str, record: RunRecord) -> None:
        for index in indices_by_key[key]:
            records[index] = record
        if progress is not None:
            progress(
                SweepProgress(
                    total=total_unique,
                    done=replayed_unique + len(executed_keys),
                    executed=len(executed_keys),
                    from_cache=replayed_unique,
                )
            )

    def _replay(key: str, record: RunRecord) -> None:
        nonlocal from_cache, replayed_unique
        from_cache += len(indices_by_key[key])
        replayed_unique += 1
        _REC.count("store.replays")
        _resolve(key, record)

    # Keys this driver holds a lease on and has not appended yet: a pooled
    # trial in flight, or the serial trial running right now.
    in_flight: dict[str, object] = {}

    def _finish(key: str, record: RunRecord) -> None:
        t0 = _REC.now_ns()
        resolved.append(key, record)
        _REC.add_time("store.append", _REC.now_ns() - t0)
        _REC.count("store.appends")
        del in_flight[key]
        executed_keys.append(key)
        _resolve(key, record)

    # Replay everything already finished (batch query), then claim-loop
    # over the remainder.
    unique_keys = list(indices_by_key)
    missing = set(resolved.pending(unique_keys))
    for key in unique_keys:
        if key in missing:
            continue
        record = resolved.get(key)
        if record is None:  # vanished between the two queries; claim it
            missing.add(key)
        else:
            _replay(key, record)

    queue = deque(key for key in unique_keys if key in missing)
    deferred: list[str] = []  # leased by another live driver; retry later
    completed: SimpleQueue[str] = SimpleQueue()  # pool completions, by key
    pool = None
    try:
        if workers > 1 and len(queue) > 1:
            import multiprocessing

            # Workers start with telemetry disabled; when the driver
            # records, the initializer mirrors its state into each worker.
            telemetry = (
                {"initializer": _enable_worker_telemetry, "initargs": (_REC.spool_dir,)}
                if _REC.enabled
                else {}
            )
            pool = multiprocessing.get_context().Pool(
                processes=min(workers, len(queue)), **telemetry
            )
        while queue or deferred or in_flight:
            # 1. Claim and dispatch up to ``workers`` trials in flight.
            while queue and len(in_flight) < workers:
                key = queue.popleft()
                t0 = _REC.now_ns()
                claim = resolved.claim(key, lease=lease_seconds, owner=owner)
                _REC.add_time("store.claim", _REC.now_ns() - t0)
                _REC.count("store.claims")
                if claim.acquired:
                    _REC.count("store.claims_acquired")
                if claim.done:
                    _replay(key, claim.record)
                elif not claim.acquired:
                    deferred.append(key)
                elif pool is None:
                    in_flight[key] = None
                    _finish(key, run_trial(specs[indices_by_key[key][0]]))
                else:
                    in_flight[key] = pool.apply_async(
                        run_trial,
                        (specs[indices_by_key[key][0]],),
                        callback=lambda _result, key=key: completed.put(key),
                        error_callback=lambda _error, key=key: completed.put(key),
                    )
            # 2. Wait for the next pool completion (re-polling deferred keys
            #    every poll_interval), or, with nothing in flight, sleep
            #    while foreign leases either complete or expire.
            if in_flight:
                try:
                    key = completed.get(
                        timeout=poll_interval if deferred else None
                    )
                except Empty:
                    pass
                else:
                    _finish(key, in_flight[key].get())
            elif deferred:
                time.sleep(poll_interval)
            if not queue:
                queue.extend(deferred)
                deferred.clear()
    finally:
        # Hand back the leases of trials that will never be appended (one
        # raised, or the driver was interrupted), so a resumed sweep claims
        # them at once instead of waiting out the lease.
        try:
            for key in in_flight:
                resolved.release(key, owner=owner)
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
            if _REC.enabled:
                _REC.flush_spool()

    return SweepResult(
        records=records,
        executed=len(executed_keys),
        from_cache=from_cache,
        executed_keys=executed_keys,
    )
