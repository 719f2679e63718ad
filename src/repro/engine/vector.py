"""The vector engine: struct-of-arrays state + synchronous matching rounds.

PR 1 made configuration-level runs fast for *finite-state* protocols; the
protocols the paper actually headlines (``Log-Size-Estimation``, the
leader-driven terminating variant of Theorem 3.13) carry unbounded integer
fields per agent and cannot be count-compressed.  This module generalises the
one-off numpy simulator that used to live in ``core/array_simulator.py`` into
a reusable *vector engine*: per-agent state is a struct-of-arrays
(:class:`VectorFields`), the scheduler is the shared random-matching round
(one uniformly random perfect matching per round, each pair randomly
oriented), and a protocol plugs in as a :class:`VectorProtocol` — a
vectorised transition kernel applied to all matched pairs at once.

Three kinds of protocol run on it:

* :class:`~repro.core.array_simulator.LogSizeVectorProtocol` — the paper's
  Protocol 1 (the Figure 2 engine);
* :class:`~repro.core.vector_leader.LeaderTerminatingVectorProtocol` — the
  terminating-with-a-leader protocol of Theorem 3.13, scaling that
  experiment to ``n >= 10^6``;
* any :class:`~repro.protocols.base.FiniteStateProtocol`, through the
  generic :class:`FiniteStateVectorProtocol` kernel compiled from the same
  transition tables as the batched engine.  :class:`VectorFiniteStateSimulator`
  adds the count queries of the other engines to that kernel's simulator,
  so ``build_engine("vector", ...)`` is a drop-in engine like the others.

Scheduling is pluggable at the *round* level: the engine consumes any
:class:`~repro.engine.scheduler.RoundScheduler` (default: the shared
uniform :class:`~repro.engine.scheduler.MatchingRoundScheduler`, the
substitution documented in ``DESIGN.md`` — every agent has exactly one
interaction per round instead of the sequential scheduler's
Poisson-distributed number per time unit, preserving epidemic completion,
phase-clock behaviour and geometric-maximum averaging up to constant
factors).  Non-uniform round schedulers (``weighted``, ``two-block``,
``quiescing``) may emit fewer than ``floor(n/2)`` pairs per round; every
round still advances the parallel-time clock by its nominal
``floor(n/2) / n`` tick (idle agents cost time, so lazy or starved
populations converge later — consistent with the per-pair realisations of
the same scenarios), while ``interactions`` reports the pairs actually
executed.  :class:`VectorSimulator` is an
:class:`~repro.engine.running.Engine` on that clock.  Convergence is measured
*exactly*: by default the convergence condition is evaluated after every
round, never on a coarser grid — see :meth:`VectorSimulator.run_until`.

A protocol may bind a compiled run loop (:meth:`VectorProtocol.matching_loop`:
the native ``Log-Size-Estimation`` kernel has one).  Under the uniform
matching scheduler the engine then runs whole stretches of rounds, draw and
apply, in one C call, and checks its own :meth:`VectorSimulator.all_done`
there, with the same rounds, range samples, budget and telemetry counters
as round by round; every other case draws and applies each round itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.engine.configuration import Configuration
from repro.engine.running import (
    CountArrayEngine,
    Engine,
    check_population_size,
    initial_states_for,
    run_until_predicate,
)
from repro.engine.scheduler import MatchingRoundScheduler, RoundScheduler, SchedulerSpec
from repro.exceptions import ConvergenceError, SimulationError
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol, ProtocolOutput
from repro.protocols.compiled import CompiledTransitionTable, compile_transition_table

__all__ = [
    "FiniteStateVectorProtocol",
    "VectorFields",
    "VectorFiniteStateSimulator",
    "VectorProtocol",
    "VectorSimulator",
]


class VectorFields:
    """Struct-of-arrays registry of per-agent fields.

    A vector protocol allocates one numpy array per agent field through
    :meth:`add`; the registry owns the arrays (kernels mutate them in place)
    and samples running maxima of *tracked* fields for state-complexity
    reporting (Lemma 3.9), so range bookkeeping is not re-implemented per
    protocol.
    """

    def __init__(self, population_size: int) -> None:
        check_population_size(population_size)
        self.n = population_size
        self._arrays: dict[str, np.ndarray] = {}
        self._observed_max: dict[str, int] = {}

    def add(self, name: str, dtype, fill=0) -> np.ndarray:
        """Allocate (and return) the per-agent array for field ``name``."""
        if name in self._arrays:
            raise SimulationError(f"field {name!r} is already registered")
        array = np.full(self.n, fill, dtype=dtype)
        self._arrays[name] = array
        return array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> tuple[str, ...]:
        """Registered field names, in registration order."""
        return tuple(self._arrays)

    # -- range tracking ------------------------------------------------------

    def track(self, *names: str) -> None:
        """Start sampling the running maximum of the given fields."""
        for name in names:
            if name not in self._arrays:
                raise SimulationError(f"cannot track unregistered field {name!r}")
            self._observed_max.setdefault(name, 0)

    def sample_ranges(self) -> None:
        """Fold the current per-field maxima into the running maxima."""
        for name in self._observed_max:
            current = int(self._arrays[name].max())
            if current > self._observed_max[name]:
                self._observed_max[name] = current

    def max_observed(self, name: str) -> int:
        """Largest sampled value of a tracked field."""
        return self._observed_max[name]


class VectorProtocol(ABC):
    """A protocol expressed as vectorised transition kernels.

    One instance drives one :class:`VectorSimulator` (kernels may keep array
    references and scalar flags as instance state); build a fresh instance
    per run.
    """

    #: Field names whose running maxima the simulator samples (Lemma 3.9
    #: style state-complexity reporting).  Override in subclasses.
    tracked_fields: tuple[str, ...] = ()

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description."""

    @abstractmethod
    def init_fields(self, fields: VectorFields, rng: np.random.Generator) -> None:
        """Allocate the per-agent arrays and set the initial configuration."""

    @abstractmethod
    def apply_round(
        self,
        fields: VectorFields,
        rec: np.ndarray,
        sen: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Apply one matching round to the matched pairs ``(rec[i], sen[i])``."""

    def bind_backend(self, backend: ArrayBackend) -> None:
        """Take the round kernels from ``backend`` (called after
        :meth:`init_fields`; default: none)."""

    def matching_loop(self):
        """A compiled loop of whole rounds under the uniform matching
        scheduler, or ``None`` (default).

        The loop's ``run(rounds, stop_when_done, tallies)`` draws each
        round's matching on the generator given to :meth:`init_fields` and
        applies the round, exactly as :meth:`VectorSimulator.run_round` would
        (see :class:`~repro.backend.native_backend.NativeLogSizeRound`), and
        its ``all_done()`` is :meth:`all_done`.
        """
        return None

    def all_done(self, fields: VectorFields) -> bool:
        """The protocol's intrinsic convergence condition (default: none).

        Protocols without an intrinsic notion of "done" (e.g. generic
        finite-state kernels, which are driven by external predicates through
        :class:`VectorFiniteStateSimulator`) keep the default.
        """
        return False

    def result_extra(self, fields: VectorFields) -> dict:
        """Protocol-specific result fields at the end of a run."""
        return {}


class VectorSimulator(Engine):
    """Drive a :class:`VectorProtocol` over synchronous random-matching rounds.

    An :class:`~repro.engine.running.Engine`: ``run_parallel_time`` and
    ``run_with_trace`` are the shared ones, and :meth:`run_until` is the
    shared predicate loop with a round-aligned budget (or, to
    :meth:`all_done` through a compiled run loop, one loop call).  All of
    them read one clock in nominal interactions, which every round advances
    by ``floor(n/2)``, so every run stops at a round boundary.

    Parameters
    ----------
    protocol:
        The vectorised kernel (one fresh instance per simulator).
    population_size:
        Number of agents (at least 2).
    seed:
        Seed of the numpy generator; runs are reproducible per seed.
    scheduler:
        Round-level scheduling policy: a registered scheduler name with a
        round form (``"matching"``, ``"weighted"``, ``"two-block"``,
        ``"quiescing"``), a :class:`~repro.engine.scheduler.SchedulerSpec`
        carrying options, or a pre-built
        :class:`~repro.engine.scheduler.RoundScheduler`.  Defaults to the
        uniform matching round.
    backend:
        Array backend for the round kernels (a registered name, an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` for the
        process default).  The scheduler's matching/thinning draws and the
        protocol's round kernel (:meth:`VectorProtocol.bind_backend`) are
        bound to the backend's kernels.
    """

    #: Consecutive empty rounds tolerated before the engine concludes the
    #: scheduler cannot make progress (e.g. a weighted policy whose active
    #: set keeps drawing fewer than two agents) and raises.  Every round
    #: advances the clock, so every run loop ends within its budget anyway;
    #: the guard turns a scheduler that has stopped emitting pairs into an
    #: error instead of a run that idles through the rest of its budget.
    MAX_CONSECUTIVE_EMPTY_ROUNDS = 10_000

    #: Rounds between samples of the tracked field ranges (each sample is
    #: one pass over every tracked array); :meth:`run_until` takes a last
    #: sample when it returns.
    RANGE_SAMPLE_ROUNDS = 64

    def __init__(
        self,
        protocol: VectorProtocol,
        population_size: int,
        seed: int | None = None,
        scheduler: "RoundScheduler | SchedulerSpec | str | None" = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.protocol = protocol
        self.population_size = population_size
        self.rng = np.random.default_rng(seed)
        self.backend = resolve_backend(backend)
        if isinstance(scheduler, RoundScheduler):
            if scheduler.n != population_size:
                raise SimulationError(
                    "round scheduler population size does not match the simulation"
                )
            self.scheduler = scheduler
        else:
            spec = SchedulerSpec.coerce(scheduler, default="matching")
            self.scheduler = spec.build_policy().make_round_scheduler(population_size)
        self.scheduler.bind_backend(self.backend)
        self.rounds = 0
        self._clock = 0
        self._interactions = 0
        self._empty_rounds = 0
        self.fields = VectorFields(population_size)
        protocol.init_fields(self.fields, self.rng)
        protocol.bind_backend(self.backend)
        self.fields.track(*protocol.tracked_fields)
        # Uniform matching rounds run in the protocol's compiled loop when it
        # binds one; every other scheduler draws round by round.
        self._loop = (
            protocol.matching_loop()
            if type(self.scheduler) is MatchingRoundScheduler
            else None
        )

    # -- round / time accounting --------------------------------------------

    @property
    def interactions(self) -> int:
        """Total interactions executed so far (summed over emitted pairs).

        Under the default matching scheduler every round executes exactly
        ``floor(n / 2)`` interactions; non-uniform round schedulers may emit
        fewer (see :attr:`parallel_time` for how time is accounted then).
        """
        return self._interactions

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far.

        Every round is one synchronous tick of ``floor(n/2) / n`` time units
        — the interval in which each agent *could* interact once —
        regardless of how many pairs the scheduler actually emitted.  Idle
        agents therefore cost time: a lazy or starved population converges
        *later*, matching the per-pair realisations of the same scenarios
        (where the global clock also keeps running while an agent idles).
        Under the default matching scheduler this coincides exactly with
        ``interactions / n``.
        """
        return self._clock / self.population_size

    def run_round(self) -> None:
        """Execute one synchronous round of scheduler-matched pairs."""
        # Per-round telemetry (scheduler draw vs protocol apply) only when
        # enabled: always-on round timing costs ~2% of a Figure 2 trial.
        recording = _REC.enabled
        if recording:
            t0 = _REC.now_ns()
        rec, sen = self.scheduler.draw_round(self.rng, self.parallel_time)
        if recording:
            t1 = _REC.now_ns()
            _REC.add_time("scheduler.draw_round", t1 - t0)
            _REC.count("scheduler.rounds")
        if rec.size:
            self.protocol.apply_round(self.fields, rec, sen, self.rng)
            if recording:
                _REC.add_time("engine.apply_round", _REC.now_ns() - t1)
            self._empty_rounds = 0
        else:
            if recording:
                _REC.count("scheduler.empty_rounds")
            self._empty_rounds += 1
            if self._empty_rounds >= self.MAX_CONSECUTIVE_EMPTY_ROUNDS:
                raise SimulationError(
                    f"round scheduler emitted no pairs for "
                    f"{self._empty_rounds} consecutive rounds "
                    f"(n={self.population_size})"
                )
        self.rounds += 1
        self._clock += self.population_size // 2
        self._interactions += int(rec.size)
        if self.rounds % self.RANGE_SAMPLE_ROUNDS == 0:
            self.fields.sample_ranges()

    def _run_rounds(self, rounds: int, stop_when_done: bool = False) -> int:
        """Run up to ``rounds`` rounds in the protocol's compiled loop, in
        calls that end at each range-sample boundary; with
        ``stop_when_done``, stop after the first round that leaves every
        agent done.  The clock, the range samples and the round telemetry
        are :meth:`run_round`'s.  Returns the rounds run."""
        tallies = np.zeros(2, dtype=np.int64) if _REC.enabled else None
        half = self.population_size // 2
        ran = 0
        while ran < rounds:
            chunk = min(
                rounds - ran,
                self.RANGE_SAMPLE_ROUNDS - self.rounds % self.RANGE_SAMPLE_ROUNDS,
            )
            step = self._loop.run(chunk, stop_when_done, tallies)
            ran += step
            self.rounds += step
            self._clock += step * half
            self._interactions += step * half
            if self.rounds % self.RANGE_SAMPLE_ROUNDS == 0:
                self.fields.sample_ranges()
            if stop_when_done and self._loop.all_done():
                break
        if tallies is not None:
            _REC.count("scheduler.rounds", ran)
            _REC.add_time("scheduler.draw_round", int(tallies[0]))
            _REC.add_time("engine.apply_round", int(tallies[1]))
        return ran

    def all_done(self) -> bool:
        """Whether the protocol's convergence condition currently holds."""
        return self.protocol.all_done(self.fields)

    # -- run loops -----------------------------------------------------------

    def run_interactions(self, count: int) -> None:
        """Run whole rounds until the clock advanced ``count`` nominal
        interactions (``count / n`` parallel time) or more."""
        if count < 0:
            raise SimulationError(
                f"interaction count must be non-negative, got {count}"
            )
        if self._loop is not None:
            self._run_rounds(-(-count // (self.population_size // 2)))
            return
        target = self._clock + count
        while self._clock < target:
            self.run_round()

    def run_until(
        self,
        predicate: Callable[["VectorSimulator"], bool],
        max_parallel_time: float,
        check_interval: int | None = None,
    ) -> float:
        """Run until ``predicate(self)`` holds; return the parallel time reached.

        The shared predicate loop, with two vector-engine defaults: the
        predicate is checked after every round (default), so the time
        returned is exact to the round, or every ``ceil(check_interval /
        floor(n/2))`` rounds.  The run stops at the round that crosses
        ``floor(max_parallel_time * n)`` nominal interactions.  The tracked
        field ranges are sampled once more on return.

        Under the protocol's compiled loop (see :meth:`run_interactions`),
        a run to :meth:`all_done` checked after every round is one call of
        that loop, which checks it in C and stops on the same round as the
        shared loop, with the same telemetry counters.

        Raises
        ------
        ConvergenceError
            If the predicate does not hold within ``max_parallel_time``.
        """
        interval = 1 if check_interval is None else check_interval
        budget = int(max_parallel_time * self.population_size) + 1
        half = self.population_size // 2
        try:
            if not (
                self._loop is not None
                and predicate is VectorSimulator.all_done
                and 0 < interval <= half
            ):
                return run_until_predicate(
                    self, predicate, max_parallel_time, interval, budget=budget
                )
            if self.all_done():
                return self.parallel_time
            t0 = _REC.now_ns()
            ran = self._run_rounds(-(-budget // half), stop_when_done=True)
            t1 = _REC.now_ns()
            hit = self.all_done()
            _REC.add_time("engine.step", t1 - t0)
            _REC.add_time("engine.convergence_check", _REC.now_ns() - t1)
            _REC.count("engine.convergence_checks", ran)
            if not hit:
                raise ConvergenceError(
                    f"predicate did not hold within {max_parallel_time} units of "
                    f"parallel time (n={self.population_size})"
                )
            return self.parallel_time
        finally:
            self.fields.sample_ranges()


# ---------------------------------------------------------------------------
# Generic finite-state kernel + count-level adapter
# ---------------------------------------------------------------------------


class FiniteStateVectorProtocol(VectorProtocol):
    """Vectorised kernel for any :class:`FiniteStateProtocol`.

    The protocol is compiled once into the same dense index-space transition
    tables the batched engine uses
    (:func:`repro.protocols.compiled.compile_transition_table`); each round
    gathers the state pair of every matched pair, samples one outcome per
    reactive pair from the compiled distributions, and scatters the new
    states back.  Both participants of a pair are distinct agents of a
    perfect matching, so the scatter is collision-free.

    The gather→sample→scatter body is a backend kernel
    (:meth:`repro.backend.ArrayBackend.finite_round_kernel`), bound by the
    simulator through :meth:`bind_backend`; every shipped backend runs the
    numpy reference, which preserves the historical RNG stream.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        initial_states: Sequence[Hashable] | None = None,
    ) -> None:
        self.protocol = protocol
        self.table: CompiledTransitionTable = compile_transition_table(protocol)
        self._initial_states = initial_states
        self.state: np.ndarray | None = None
        self._round_kernel = None

    def bind_backend(self, backend: ArrayBackend) -> None:
        self._round_kernel = backend.finite_round_kernel(self.table)

    def describe(self) -> str:
        return f"Vector({self.protocol.describe()})"

    def output(self, state: Hashable) -> ProtocolOutput:
        """The finite-state protocol's output of ``state``."""
        return self.protocol.output(state)

    def init_fields(self, fields: VectorFields, rng: np.random.Generator) -> None:
        state = fields.add("state", np.int64)
        if self._initial_states is not None:
            if len(self._initial_states) != fields.n:
                raise SimulationError(
                    f"initial configuration has size {len(self._initial_states)}, "
                    f"expected {fields.n}"
                )
            initial = self._initial_states
        else:
            initial = [self.protocol.initial_state(agent) for agent in range(fields.n)]
        try:
            state[:] = [self.table.index[value] for value in initial]
        except KeyError as error:
            raise SimulationError(
                f"initial state {error.args[0]!r} is outside the declared state set"
            ) from None
        self.state = state

    def apply_round(
        self,
        fields: VectorFields,
        rec: np.ndarray,
        sen: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self._round_kernel.apply(self.state, rec, sen, rng)


class VectorFiniteStateSimulator(VectorSimulator, CountArrayEngine):
    """Run a finite-state protocol on the vector engine behind the count API.

    The generic :class:`FiniteStateVectorProtocol` kernel plus the count
    queries of :class:`~repro.engine.running.CountArrayEngine`
    (``configuration`` / ``count``, and so ``outputs``); the clock and the
    run loops are :class:`VectorSimulator`'s.  Engine-generic harness code,
    the CLI and the sweep driver therefore treat ``"vector"`` as just
    another engine name.
    """

    protocol: FiniteStateVectorProtocol

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        scheduler: "RoundScheduler | SchedulerSpec | str | None" = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        super().__init__(
            FiniteStateVectorProtocol(
                protocol,
                initial_states=initial_states_for(
                    initial_configuration, population_size
                ),
            ),
            population_size,
            seed=seed,
            scheduler=scheduler,
            backend=backend,
        )
        self._states = self.protocol.table.states
        self._state_index = self.protocol.table.index

    def _state_counts(self) -> np.ndarray:
        return np.bincount(self.protocol.state, minlength=len(self._states))
