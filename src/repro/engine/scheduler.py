"""Interaction scheduling: per-pair streams, matching rounds and policies.

The paper's model fixes one scheduler — each step selects a uniformly random
ordered pair of distinct agents — and every claim the repo reproduces is
stated relative to it.  This module makes the scheduler a first-class,
pluggable subsystem so the robustness of those claims can be probed under
*non-uniform* scenarios without forking an engine.

Three views of a scheduler
--------------------------

Different engines consume scheduling at different granularities, so a
scheduler *policy* can expose up to three interfaces:

``pair``
    A stream of ordered agent-index pairs (:class:`InteractionScheduler`),
    consumed one interaction at a time by the agent engine
    (:class:`repro.engine.simulator.Simulation`).
``counts``
    A distribution over ordered *state* pairs given the current counts,
    consumed by the count-level engines
    (:class:`~repro.engine.count_simulator.CountSimulator`,
    :class:`~repro.engine.batched_simulator.BatchedCountSimulator`).  Only
    agent-anonymous policies can be count-compressed: a policy whose rates
    depend on agent identity (lazy subpopulations, communities, starvation
    windows) distinguishes agents that share a state, which the count
    representation cannot express.  The interface is a per-state activity
    rate: pair probabilities are proportional to ``(r_i c_i)(r_j c_j)``
    (uniform = all rates 1, recovering the paper's ``c_i c_j / n(n-1)``).
``rounds``
    A batch of disjoint pairs per synchronous round
    (:class:`RoundScheduler`), consumed by the vector engine
    (:class:`repro.engine.vector.VectorSimulator`).

:class:`SchedulerSpec` is the frozen, picklable description used by the
harness (it participates in sweep cache keys) and the CLI
(``--scheduler NAME --scheduler-opt key=value``); ``spec.build_policy()``
instantiates the named :class:`SchedulerPolicy` from the registry.

Shipped policies
----------------

* ``sequential`` — the paper's uniform ordered-pair scheduler (pair +
  counts).
* ``matching`` — synchronous uniform random matching, one interaction per
  agent per round (pair + rounds); the vector engine's default and the
  substitution documented in ``DESIGN.md``.
* ``weighted`` — per-agent contact rates: a ``lazy_fraction`` of the agents
  participates at rate ``lazy_rate`` (pair + rounds).
* ``two-block`` — a two-community population: interactions stay inside an
  agent's block with probability ``intra``, interpolating from well-mixed to
  nearly partitioned (pair + rounds).
* ``quiescing`` — an adversarial starvation window: a chosen ``fraction`` of
  the agents is excluded from all interactions for ``duration`` units of
  parallel time starting at ``start`` (pair + rounds).
* ``state-weighted`` — per-*state* activity rates (counts); the
  agent-anonymous non-uniform policy that the count and batched engines can
  run exactly.

One matching implementation
---------------------------

Both matching code paths — the per-pair :class:`RandomMatchingScheduler` and
the vector engine's round loop — draw from the single shared
:func:`draw_matching_arrays`; a regression test pins that the same numpy
seed yields the identical matching sequence through either path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, ClassVar, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.rng import RandomSource
from repro.types import InteractionPair

__all__ = [
    "SCHEDULER_NAMES",
    "InteractionScheduler",
    "MatchingRoundScheduler",
    "QuiescingPairScheduler",
    "QuiescingRoundScheduler",
    "RandomMatchingScheduler",
    "RoundScheduler",
    "SchedulerPolicy",
    "SchedulerSpec",
    "SequentialScheduler",
    "TwoBlockPairScheduler",
    "TwoBlockRoundScheduler",
    "WeightedMatchingRoundScheduler",
    "WeightedPairScheduler",
    "coerce_policy_options",
    "draw_matching_arrays",
    "get_scheduler_policy",
    "scheduler_names",
]


# ---------------------------------------------------------------------------
# The one matching implementation (shared by every matching code path)
# ---------------------------------------------------------------------------


def draw_matching_arrays(
    members: int | np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one uniform random matching with uniformly oriented pairs.

    ``members`` is either the population size ``n`` (match everyone) or an
    array of agent indices (match only those agents).  Returns
    ``(receivers, senders)`` index arrays of length ``floor(m / 2)``; when
    ``m`` is odd one member idles.

    This is the *single* implementation behind both the per-pair
    :class:`RandomMatchingScheduler` and the vector engine's round loop
    (via :class:`MatchingRoundScheduler`); the draw order — one permutation,
    then one uniform array of orientation coins — is part of the
    reproducibility contract (seeded vector-engine trajectories).
    """
    order = rng.permutation(members)
    half = order.size // 2
    first = order[:half]
    second = order[half : 2 * half]
    orient = rng.random(half) < 0.5
    receivers = np.where(orient, first, second)
    senders = np.where(orient, second, first)
    return receivers, senders


# ---------------------------------------------------------------------------
# Per-pair schedulers (the agent engine's interface)
# ---------------------------------------------------------------------------


class InteractionScheduler(ABC):
    """Base class for per-pair interaction schedulers.

    A scheduler is bound to a population size ``n`` and a random source, and
    yields an unbounded stream of ordered interaction pairs.
    """

    def __init__(self, n: int, rng: RandomSource) -> None:
        if n < 2:
            raise SimulationError(f"population must contain at least 2 agents, got {n}")
        self.n = n
        self.rng = rng
        self._emitted = 0

    @property
    def interactions_emitted(self) -> int:
        """Number of interaction pairs produced so far."""
        return self._emitted

    @property
    def parallel_time_elapsed(self) -> float:
        """Parallel time corresponding to the interactions emitted so far."""
        return self._emitted / self.n

    @abstractmethod
    def _next_pair(self) -> InteractionPair:
        """Produce the next interaction pair (implemented by subclasses)."""

    def next_pair(self) -> InteractionPair:
        """Return the next scheduled interaction pair."""
        pair = self._next_pair()
        self._emitted += 1
        return pair

    def pairs(self) -> Iterator[InteractionPair]:
        """Iterate over scheduled pairs forever."""
        while True:
            yield self.next_pair()


class SequentialScheduler(InteractionScheduler):
    """The paper's scheduler: each interaction picks a uniform ordered pair.

    The receiver and the sender are distinct agents chosen uniformly at random
    among all ``n * (n - 1)`` ordered pairs, independently for every
    interaction.
    """

    def _next_pair(self) -> InteractionPair:
        receiver, sender = self.rng.uniform_pair(self.n)
        return InteractionPair(receiver=receiver, sender=sender)


class RandomMatchingScheduler(InteractionScheduler):
    """Synchronous random-matching scheduler, emitted pair by pair.

    Each round is one uniformly random matching of the population with
    uniformly oriented pairs, drawn through the shared
    :func:`draw_matching_arrays` implementation (the same code path as the
    vector engine's round loop) and then emitted one pair at a time so the
    interface matches the sequential scheduler.  When ``n`` is odd the last
    agent idles for that round.

    Every agent participates in exactly one interaction per round (rather
    than a Poisson-distributed number under the sequential scheduler), so one
    round corresponds to ``floor(n / 2) / n ~ 1/2`` units of parallel time.
    The approximation preserves epidemic completion times and phase-clock
    behaviour up to constant factors; see ``DESIGN.md`` (Schedulers).

    The matching draws come from a numpy generator — seeded from the shared
    :class:`~repro.rng.RandomSource` unless ``matching_rng`` is supplied
    directly (the regression tests use that hook to pin both code paths to
    one stream).
    """

    def __init__(
        self,
        n: int,
        rng: RandomSource,
        matching_rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(n, rng)
        self._matching_rng = (
            matching_rng
            if matching_rng is not None
            else np.random.default_rng(rng.randrange(2**63))
        )
        self._queue: list[InteractionPair] = []
        self._rounds = 0

    @property
    def rounds_completed(self) -> int:
        """Number of full matching rounds drawn so far."""
        return self._rounds

    def _refill(self) -> None:
        receivers, senders = draw_matching_arrays(self.n, self._matching_rng)
        batch = [
            InteractionPair(receiver=int(receiver), sender=int(sender))
            for receiver, sender in zip(receivers, senders)
        ]
        # Reverse so .pop() emits pairs in matching order.
        self._queue = list(reversed(batch))
        self._rounds += 1

    def _next_pair(self) -> InteractionPair:
        if not self._queue:
            self._refill()
        return self._queue.pop()


class _StaticRatePairScheduler(InteractionScheduler):
    """Per-pair sampling from static per-agent contact rates.

    The ordered pair of distinct agents ``(a, b)`` is selected with
    probability proportional to the *product* of the agents' rates
    ``r_a r_b`` — the same joint model as the count-level
    ``state-weighted`` policy, realised by two independent rate-weighted
    draws with same-agent rejection.
    """

    def __init__(self, n: int, rng: RandomSource, rates: Sequence[float]) -> None:
        super().__init__(n, rng)
        if len(rates) != n:
            raise SimulationError(
                f"rate vector has length {len(rates)}, expected {n}"
            )
        if any(rate < 0 for rate in rates):
            raise SimulationError("per-agent rates must be non-negative")
        self._rates = [float(rate) for rate in rates]
        self._cumulative: list[float] = []
        total = 0.0
        for rate in self._rates:
            total += rate
            self._cumulative.append(total)
        self._total = total
        if sum(1 for rate in self._rates if rate > 0) < 2:
            raise SimulationError(
                "a weighted scheduler needs at least two agents with positive rate"
            )

    def _sample(self) -> int:
        threshold = self.rng.random() * self._total
        return min(bisect_right(self._cumulative, threshold), self.n - 1)

    def _next_pair(self) -> InteractionPair:
        while True:
            receiver = self._sample()
            sender = self._sample()
            if receiver != sender:
                return InteractionPair(receiver=receiver, sender=sender)


class WeightedPairScheduler(_StaticRatePairScheduler):
    """Non-uniform contact rates: a lazy subpopulation interacts rarely.

    The first ``floor(lazy_fraction * n)`` agents are *lazy* and participate
    with rate ``lazy_rate``; the rest participate with rate 1.  (Which agents
    are lazy is a deterministic prefix of the id space so the per-pair and
    round-based implementations starve the same subset.)
    """

    def __init__(
        self,
        n: int,
        rng: RandomSource,
        lazy_fraction: float = 0.5,
        lazy_rate: float = 0.1,
    ) -> None:
        WeightedPolicy.check(lazy_fraction, lazy_rate)
        lazy_count = int(lazy_fraction * n)
        rates = [lazy_rate] * lazy_count + [1.0] * (n - lazy_count)
        super().__init__(n, rng, rates)
        self.lazy_count = lazy_count
        self.lazy_rate = lazy_rate


class TwoBlockPairScheduler(InteractionScheduler):
    """Two-community population: interactions prefer an agent's own block.

    Agents ``[0, a)`` form block A (``a = max(1, floor(split * n))``) and the
    rest block B.  Each interaction picks a uniform receiver, stays inside
    its block with probability ``intra`` (uniform partner among the block's
    other members) and crosses to the other block otherwise.  ``intra``
    interpolates from well-mixed to nearly partitioned; a single-member
    block always crosses.
    """

    def __init__(
        self,
        n: int,
        rng: RandomSource,
        intra: float = 0.9,
        split: float = 0.5,
    ) -> None:
        super().__init__(n, rng)
        TwoBlockPolicy.check(intra, split)
        self.block_boundary = min(max(1, int(split * n)), n - 1)
        self.intra = intra

    def _block_of(self, agent: int) -> tuple[int, int]:
        """Return ``(start, size)`` of the agent's block."""
        if agent < self.block_boundary:
            return 0, self.block_boundary
        return self.block_boundary, self.n - self.block_boundary

    def _next_pair(self) -> InteractionPair:
        receiver = self.rng.randrange(self.n)
        start, size = self._block_of(receiver)
        same_block = size >= 2 and self.rng.random() < self.intra
        if same_block:
            sender = start + self.rng.randrange(size - 1)
            if sender >= receiver:
                sender += 1
        else:
            other_start = self.block_boundary if start == 0 else 0
            other_size = self.n - size
            sender = other_start + self.rng.randrange(other_size)
        return InteractionPair(receiver=receiver, sender=sender)


class QuiescingPairScheduler(InteractionScheduler):
    """Adversarial starvation: a subset of agents is frozen for a window.

    The first ``floor(fraction * n)`` agents are excluded from every
    interaction while the elapsed parallel time lies in
    ``[start, start + duration)``; outside the window the scheduler is the
    paper's uniform one.  Directly stress-tests protocols whose correctness
    argument assumes every agent keeps interacting (phase clocks,
    termination detection).
    """

    def __init__(
        self,
        n: int,
        rng: RandomSource,
        fraction: float = 0.5,
        start: float = 0.0,
        duration: float = 16.0,
    ) -> None:
        super().__init__(n, rng)
        QuiescingPolicy.check(fraction, start, duration)
        self.starved_count = QuiescingPolicy.starved_count(n, fraction)
        self.start = start
        self.duration = duration

    def _in_window(self, parallel_time: float) -> bool:
        return self.start <= parallel_time < self.start + self.duration

    def _next_pair(self) -> InteractionPair:
        if not self._in_window(self.parallel_time_elapsed):
            receiver, sender = self.rng.uniform_pair(self.n)
            return InteractionPair(receiver=receiver, sender=sender)
        active = self.n - self.starved_count
        receiver = self.starved_count + self.rng.randrange(active)
        sender = self.starved_count + self.rng.randrange(active - 1)
        if sender >= receiver:
            sender += 1
        return InteractionPair(receiver=receiver, sender=sender)


# ---------------------------------------------------------------------------
# Round schedulers (the vector engine's interface)
# ---------------------------------------------------------------------------


class RoundScheduler(ABC):
    """One batch of disjoint interaction pairs per synchronous round.

    The vector engine calls :meth:`draw_round` once per round with its numpy
    generator and the parallel time elapsed so far; the scheduler returns
    ``(receivers, senders)`` index arrays describing disjoint pairs.  A round
    may emit fewer than ``floor(n/2)`` pairs — e.g. under starvation — but
    still advances the engine's clock by the full nominal round tick, so
    idle agents cost parallel time.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise SimulationError(f"population must contain at least 2 agents, got {n}")
        self.n = n
        # The matching draw, rebindable onto an array backend: the vector
        # engine calls :meth:`bind_backend` once at construction so it runs
        # on the selected backend's implementation.  The default is the
        # reference numpy path.
        self._draw_matching = draw_matching_arrays

    def bind_backend(self, backend) -> None:
        """Route this scheduler's matching draws through ``backend``."""
        self._draw_matching = backend.draw_matching_arrays

    @abstractmethod
    def draw_round(
        self, rng: np.random.Generator, parallel_time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw the matched (receiver, sender) pairs of one round."""


class MatchingRoundScheduler(RoundScheduler):
    """Uniform random matching — the vector engine's default round."""

    def draw_round(
        self, rng: np.random.Generator, parallel_time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._draw_matching(self.n, rng)


class WeightedMatchingRoundScheduler(RoundScheduler):
    """Rate-thinned matching: each agent joins a round with its own rate.

    Every round, agent ``i`` is available independently with probability
    ``rate_i``; the available agents are matched uniformly.  The same lazy
    prefix convention as :class:`WeightedPairScheduler`: the first
    ``floor(lazy_fraction * n)`` agents have rate ``lazy_rate``, the rest
    rate 1 (and therefore join every round, exactly as under plain
    matching).
    """

    def __init__(
        self, n: int, lazy_fraction: float = 0.5, lazy_rate: float = 0.1
    ) -> None:
        super().__init__(n)
        WeightedPolicy.check(lazy_fraction, lazy_rate)
        self.lazy_count = int(lazy_fraction * n)
        self.rates = np.ones(n)
        self.rates[: self.lazy_count] = lazy_rate

    def draw_round(
        self, rng: np.random.Generator, parallel_time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        available = np.nonzero(rng.random(self.rates.size) < self.rates)[0]
        if available.size < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._draw_matching(available, rng)


class TwoBlockRoundScheduler(RoundScheduler):
    """Community-structured rounds: intra-block or cross-block matchings.

    With probability ``intra`` a round matches each block internally; with
    probability ``1 - intra`` it matches agents of block A against agents of
    block B (``min(|A|, |B|)`` uniformly chosen cross pairs, uniformly
    oriented).  Blocks use the same deterministic split as
    :class:`TwoBlockPairScheduler`.
    """

    def __init__(self, n: int, intra: float = 0.9, split: float = 0.5) -> None:
        super().__init__(n)
        TwoBlockPolicy.check(intra, split)
        boundary = min(max(1, int(split * n)), n - 1)
        self.block_a = np.arange(0, boundary)
        self.block_b = np.arange(boundary, n)
        self.intra = intra

    def draw_round(
        self, rng: np.random.Generator, parallel_time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if rng.random() < self.intra:
            rec_a, sen_a = self._draw_matching(self.block_a, rng)
            rec_b, sen_b = self._draw_matching(self.block_b, rng)
            return np.concatenate([rec_a, rec_b]), np.concatenate([sen_a, sen_b])
        pairs = min(self.block_a.size, self.block_b.size)
        from_a = rng.permutation(self.block_a)[:pairs]
        from_b = rng.permutation(self.block_b)[:pairs]
        orient = rng.random(pairs) < 0.5
        receivers = np.where(orient, from_a, from_b)
        senders = np.where(orient, from_b, from_a)
        return receivers, senders


class QuiescingRoundScheduler(RoundScheduler):
    """Starvation-window rounds: frozen agents sit out whole matchings."""

    def __init__(
        self,
        n: int,
        fraction: float = 0.5,
        start: float = 0.0,
        duration: float = 16.0,
    ) -> None:
        super().__init__(n)
        QuiescingPolicy.check(fraction, start, duration)
        self.starved_count = QuiescingPolicy.starved_count(n, fraction)
        self.active = np.arange(self.starved_count, n)
        self.start = start
        self.duration = duration

    def draw_round(
        self, rng: np.random.Generator, parallel_time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.start <= parallel_time < self.start + self.duration:
            return self._draw_matching(self.active, rng)
        return self._draw_matching(self.n, rng)


# ---------------------------------------------------------------------------
# Scheduler policies and the registry
# ---------------------------------------------------------------------------


class SchedulerPolicy(ABC):
    """A named, option-validated scheduling policy.

    A policy advertises which engine-facing interfaces it supports through
    ``capabilities`` (any of ``"pair"``, ``"counts"``, ``"rounds"``,
    ``"mean-field"``; see the module docstring) and builds the corresponding
    scheduler objects on demand.  Policies are registered by name;
    :class:`SchedulerSpec` is the serialisable handle used by the harness
    and the CLI.
    """

    #: Registry key (``--scheduler <name>``).
    name: ClassVar[str] = ""
    #: One line for ``repro engines`` / ``--help`` output.
    description: ClassVar[str] = ""
    #: Interfaces the policy supports: subset of
    #: {"pair", "counts", "rounds", "mean-field"}.
    capabilities: ClassVar[frozenset[str]] = frozenset()
    #: Time semantics note for the DESIGN.md taxonomy table.
    time_semantics: ClassVar[str] = ""
    #: Paper-fidelity note for the DESIGN.md taxonomy table.
    paper_fidelity: ClassVar[str] = ""
    #: Option names accepted by the constructor.
    option_names: ClassVar[tuple[str, ...]] = ()
    #: Option name -> coercion callable (e.g. ``float``).  Options absent
    #: from the mapping are passed through untouched (e.g. the structured
    #: ``rates`` of ``state-weighted``, which does its own parsing).
    #: :func:`coerce_policy_options` applies these — with a clear
    #: :class:`SimulationError` instead of a raw ``ValueError`` — before any
    #: option reaches a constructor, so CLI strings like
    #: ``--scheduler-opt lazy_rate=abc`` fail at spec-resolution time.
    option_types: ClassVar[Mapping[str, Callable[[object], object]]] = {}

    def __init__(self, **options) -> None:
        unknown = set(options) - set(self.option_names)
        if unknown:
            raise SimulationError(
                f"scheduler {self.name!r} does not accept options "
                f"{sorted(unknown)}; allowed: {sorted(self.option_names)}"
            )
        self.options = dict(options)

    def check_population(self, n: int) -> None:
        """Reject a population of ``n`` agents the policy cannot schedule;
        trial specs run it when they are built."""

    # -- capability constructors (override the supported ones) ---------------

    def make_pair_scheduler(self, n: int, rng: RandomSource) -> InteractionScheduler:
        """Build the per-pair stream for the agent engine."""
        raise SimulationError(
            f"scheduler {self.name!r} has no per-pair form (agent engine); "
            f"capabilities: {sorted(self.capabilities)}"
        )

    def make_round_scheduler(self, n: int) -> RoundScheduler:
        """Build the round scheduler for the vector engine."""
        raise SimulationError(
            f"scheduler {self.name!r} has no round form (vector engine); "
            f"capabilities: {sorted(self.capabilities)}"
        )

    def state_rate_function(self) -> Callable[[Hashable], float] | None:
        """Per-state activity rate for the count-level engines.

        Returns ``None`` for the uniform policy (engines keep their exact
        integer-arithmetic fast path) or a callable ``state -> rate``.
        """
        raise SimulationError(
            f"scheduler {self.name!r} cannot be count-compressed (count/batched "
            f"engines); capabilities: {sorted(self.capabilities)}"
        )

    def state_rates(self, states: Sequence[Hashable]) -> np.ndarray | None:
        """Vectorised view of :meth:`state_rate_function` over a state list."""
        rate_of = self.state_rate_function()
        if rate_of is None:
            return None
        return np.array([rate_of(state) for state in states], dtype=np.float64)


def coerce_policy_options(
    policy_cls: type["SchedulerPolicy"], options: Mapping[str, object]
) -> dict[str, object]:
    """Validate option names and coerce option values for one policy class.

    Unknown keys and values the declared coercer rejects raise a
    :class:`SimulationError` naming the scheduler, the option and the
    expected type — rather than reaching the policy constructor as raw
    strings and surfacing as a bare ``ValueError`` (or, worse, being
    accepted).  Values already of the right type pass through unchanged.
    """
    coerced: dict[str, object] = {}
    for key, value in options.items():
        if key not in policy_cls.option_names:
            raise SimulationError(
                f"scheduler {policy_cls.name!r} does not accept option {key!r}; "
                f"allowed: {sorted(policy_cls.option_names) or 'none'}"
            )
        converter = policy_cls.option_types.get(key)
        if converter is not None:
            try:
                value = converter(value)
            except (TypeError, ValueError):
                expected = getattr(converter, "__name__", str(converter))
                raise SimulationError(
                    f"option {key!r} of scheduler {policy_cls.name!r} must be "
                    f"a {expected}, got {value!r}"
                ) from None
        coerced[key] = value
    return coerced


SCHEDULER_REGISTRY: dict[str, type[SchedulerPolicy]] = {}


def register_scheduler_policy(cls: type[SchedulerPolicy]) -> type[SchedulerPolicy]:
    """Register a policy class under its ``name`` (usable as a decorator)."""
    if not cls.name:
        raise SimulationError("scheduler policies must declare a non-empty name")
    SCHEDULER_REGISTRY[cls.name] = cls
    return cls


def scheduler_names() -> tuple[str, ...]:
    """Registered scheduler names, in registration order."""
    return tuple(SCHEDULER_REGISTRY)


def get_scheduler_policy(name: str) -> type[SchedulerPolicy]:
    """Look up a registered policy class, raising :class:`SimulationError`."""
    try:
        return SCHEDULER_REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown scheduler {name!r}; registered: "
            f"{', '.join(scheduler_names())}"
        ) from None


@register_scheduler_policy
class SequentialPolicy(SchedulerPolicy):
    """The paper's model: one uniform ordered pair per interaction."""

    name = "sequential"
    description = "uniform random ordered pair per interaction (the paper's model)"
    # "mean-field" marks that this policy's pair distribution is the uniform
    # well-mixed one the multiscale engine's propensity model presupposes;
    # it is deliberately the only policy carrying that capability.
    capabilities = frozenset({"pair", "counts", "mean-field"})
    time_semantics = "1 interaction per step; Poisson(2t) interactions per agent"
    paper_fidelity = "exact"

    def make_pair_scheduler(self, n: int, rng: RandomSource) -> InteractionScheduler:
        return SequentialScheduler(n, rng)

    def state_rate_function(self) -> Callable[[Hashable], float] | None:
        return None


@register_scheduler_policy
class MatchingPolicy(SchedulerPolicy):
    """Synchronous uniform random matching rounds."""

    name = "matching"
    description = "synchronous uniform random matching (one interaction per agent per round)"
    capabilities = frozenset({"pair", "rounds"})
    time_semantics = "floor(n/2) interactions per round (~1/2 time unit)"
    paper_fidelity = "constant-factor time agreement; correctness preserved"

    def make_pair_scheduler(self, n: int, rng: RandomSource) -> InteractionScheduler:
        return RandomMatchingScheduler(n, rng)

    def make_round_scheduler(self, n: int) -> RoundScheduler:
        return MatchingRoundScheduler(n)


@register_scheduler_policy
class WeightedPolicy(SchedulerPolicy):
    """Per-agent contact rates (a lazy subpopulation)."""

    name = "weighted"
    description = (
        "per-agent contact rates: floor(lazy_fraction*n) agents interact at "
        "rate lazy_rate"
    )
    capabilities = frozenset({"pair", "rounds"})
    time_semantics = "per-pair: 1 interaction per step; rounds: rate-thinned matchings"
    paper_fidelity = "non-uniform scenario (outside the paper's model)"
    option_names = ("lazy_fraction", "lazy_rate")
    option_types = {"lazy_fraction": float, "lazy_rate": float}

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.lazy_fraction = float(self.options.get("lazy_fraction", 0.5))
        self.lazy_rate = float(self.options.get("lazy_rate", 0.1))
        self.check(self.lazy_fraction, self.lazy_rate)

    @staticmethod
    def check(lazy_fraction: float, lazy_rate: float) -> None:
        """The option ranges, checked by the policy and both its forms."""
        if not 0.0 <= lazy_fraction <= 1.0:
            raise SimulationError(
                f"lazy_fraction must be in [0, 1], got {lazy_fraction}"
            )
        if not 0.0 < lazy_rate <= 1.0:
            raise SimulationError(f"lazy_rate must be in (0, 1], got {lazy_rate}")

    def make_pair_scheduler(self, n: int, rng: RandomSource) -> InteractionScheduler:
        return WeightedPairScheduler(
            n, rng, lazy_fraction=self.lazy_fraction, lazy_rate=self.lazy_rate
        )

    def make_round_scheduler(self, n: int) -> RoundScheduler:
        return WeightedMatchingRoundScheduler(
            n, lazy_fraction=self.lazy_fraction, lazy_rate=self.lazy_rate
        )


@register_scheduler_policy
class TwoBlockPolicy(SchedulerPolicy):
    """Two-community structure with tunable intra-block preference."""

    name = "two-block"
    description = (
        "two communities: interactions stay intra-block with probability "
        "intra (1 - intra crosses)"
    )
    capabilities = frozenset({"pair", "rounds"})
    time_semantics = "per-pair: 1 interaction per step; rounds: block-wise matchings"
    paper_fidelity = "non-uniform scenario; intra -> 1 approaches a partitioned population"
    option_names = ("intra", "split")
    option_types = {"intra": float, "split": float}

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.intra = float(self.options.get("intra", 0.9))
        self.split = float(self.options.get("split", 0.5))
        self.check(self.intra, self.split)

    @staticmethod
    def check(intra: float, split: float) -> None:
        """The option ranges, checked by the policy and both its forms."""
        if not 0.0 <= intra <= 1.0:
            raise SimulationError(f"intra must be in [0, 1], got {intra}")
        if not 0.0 < split < 1.0:
            raise SimulationError(f"split must be in (0, 1), got {split}")

    def make_pair_scheduler(self, n: int, rng: RandomSource) -> InteractionScheduler:
        return TwoBlockPairScheduler(n, rng, intra=self.intra, split=self.split)

    def make_round_scheduler(self, n: int) -> RoundScheduler:
        return TwoBlockRoundScheduler(n, intra=self.intra, split=self.split)


@register_scheduler_policy
class QuiescingPolicy(SchedulerPolicy):
    """Adversarial starvation of an agent subset for a time window."""

    name = "quiescing"
    description = (
        "starves floor(fraction*n) agents during [start, start+duration) "
        "units of parallel time"
    )
    capabilities = frozenset({"pair", "rounds"})
    time_semantics = "uniform outside the window; starved agents frozen inside it"
    paper_fidelity = "adversarial scenario (stresses phase clocks / termination)"
    option_names = ("fraction", "start", "duration")
    option_types = {"fraction": float, "start": float, "duration": float}

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.fraction = float(self.options.get("fraction", 0.5))
        self.start = float(self.options.get("start", 0.0))
        self.duration = float(self.options.get("duration", 16.0))
        self.check(self.fraction, self.start, self.duration)

    @staticmethod
    def check(fraction: float, start: float, duration: float) -> None:
        """The option ranges, checked by the policy and both its forms."""
        if not 0.0 <= fraction < 1.0:
            raise SimulationError(f"fraction must be in [0, 1), got {fraction}")
        if not (0 <= start < math.inf and 0 <= duration < math.inf):
            raise SimulationError(
                f"starvation window must have finite non-negative start/duration, "
                f"got start={start}, duration={duration}"
            )

    @staticmethod
    def starved_count(n: int, fraction: float) -> int:
        """Agents starved inside the window; at least two must stay active."""
        starved = int(fraction * n)
        if n - starved < 2:
            raise SimulationError(
                f"starving {starved} of {n} agents leaves fewer than 2 active agents"
            )
        return starved

    def check_population(self, n: int) -> None:
        self.starved_count(n, self.fraction)

    def make_pair_scheduler(self, n: int, rng: RandomSource) -> InteractionScheduler:
        return QuiescingPairScheduler(
            n, rng, fraction=self.fraction, start=self.start, duration=self.duration
        )

    def make_round_scheduler(self, n: int) -> RoundScheduler:
        return QuiescingRoundScheduler(
            n, fraction=self.fraction, start=self.start, duration=self.duration
        )


@register_scheduler_policy
class StateWeightedPolicy(SchedulerPolicy):
    """Per-state activity rates — the count-compressible non-uniform policy.

    Pair probabilities are proportional to ``(r_i c_i)(r_j c_j)`` where
    ``r_s`` is the rate of state ``s`` (states absent from ``rates`` use
    ``default_rate``).  Because the rate depends only on the state, the
    policy is agent-anonymous and runs *exactly* on the count and batched
    engines — the chemical-reaction-network style of non-uniformity.

    ``rates`` maps state signature to rate: a mapping, a tuple of pairs
    (the frozen :class:`SchedulerSpec` form), or the CLI string form
    ``"STATE:RATE,STATE:RATE"`` (string-labelled states only), e.g.
    ``--scheduler state-weighted --scheduler-opt rates=I:0.3``.
    """

    name = "state-weighted"
    description = (
        "per-state activity rates (agent-anonymous; count/batched engines; "
        "rates=STATE:RATE,... from the CLI)"
    )
    capabilities = frozenset({"counts"})
    time_semantics = "1 interaction per step; pair probability ~ (r_i c_i)(r_j c_j)"
    paper_fidelity = "non-uniform scenario (CRN-style rate constants)"
    option_names = ("rates", "default_rate")
    # ``rates`` is structured (mapping / pair tuple / "STATE:RATE,..."
    # string) and parsed by the constructor itself, so it has no coercer.
    option_types = {"default_rate": float}

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.rates: dict[Hashable, float] = {}
        for state, rate in self._rate_items(self.options.get("rates", ())):
            try:
                rate = float(rate)
            except (TypeError, ValueError):
                raise SimulationError(
                    f"state rate for {state!r} must be a number, got {rate!r}"
                ) from None
            if not 0 <= rate < math.inf:
                raise SimulationError(
                    f"state rate for {state!r} must be finite and non-negative, "
                    f"got {rate}"
                )
            self.rates[state] = rate
        try:
            self.default_rate = float(self.options.get("default_rate", 1.0))
        except (TypeError, ValueError):
            raise SimulationError(
                f"default_rate must be a number, got "
                f"{self.options.get('default_rate')!r}"
            ) from None
        if not 0 <= self.default_rate < math.inf:
            raise SimulationError(
                f"default_rate must be finite and non-negative, got "
                f"{self.default_rate}"
            )

    @staticmethod
    def _rate_items(raw) -> list[tuple[Hashable, object]]:
        if isinstance(raw, Mapping):
            return list(raw.items())
        if isinstance(raw, str):
            items: list[tuple[Hashable, object]] = []
            for entry in raw.split(","):
                state, separator, rate = entry.partition(":")
                if not separator or not state:
                    raise SimulationError(
                        f"malformed rates entry {entry!r}; expected STATE:RATE"
                    )
                items.append((state, rate))
            return items
        try:
            pairs = list(raw)
            return [(state, rate) for state, rate in pairs]
        except (TypeError, ValueError):
            raise SimulationError(
                f"rates must be a mapping, a sequence of (state, rate) pairs or "
                f"a 'STATE:RATE,...' string, got {raw!r}"
            ) from None

    def state_rate_function(self) -> Callable[[Hashable], float] | None:
        rates, default = self.rates, self.default_rate
        return lambda state: rates.get(state, default)

    def state_rates(self, states: Sequence[Hashable]) -> np.ndarray | None:
        """Vectorised rates over the protocol's state list.

        Rejects rate keys that name no protocol state — a typo (or a state
        signature the CLI string form cannot express) would otherwise fall
        back to ``default_rate`` for every state and silently run the
        uniform scheduler under a non-uniform cache key.
        """
        known = set(states)
        unknown = [state for state in self.rates if state not in known]
        if unknown:
            raise SimulationError(
                f"rates name states outside the protocol's state set: "
                f"{sorted(map(repr, unknown))}; protocol states: "
                f"{sorted(map(repr, known))}"
            )
        return super().state_rates(states)


# ---------------------------------------------------------------------------
# SchedulerSpec — the picklable, cache-keyable handle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchedulerSpec:
    """Frozen description of a scheduler choice: name plus options.

    This is the form threaded through :class:`~repro.harness.parallel.TrialSpec`
    (it participates in the sweep cache key), the CLI and
    :func:`repro.engine.selection.build_engine`.  ``options`` is a tuple of
    ``(key, value)`` pairs so the spec stays hashable and picklable.
    """

    name: str = "sequential"
    options: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        get_scheduler_policy(self.name)  # fail fast on unknown names

    @classmethod
    def coerce(
        cls,
        value: "SchedulerSpec | str | None",
        default: str = "sequential",
        options: Mapping[str, object] | None = None,
    ) -> "SchedulerSpec":
        """Normalise ``None`` / a name / a spec into a :class:`SchedulerSpec`.

        ``options`` (if given) applies to the name/default forms; passing
        options alongside an already-built spec is an error.
        """
        if isinstance(value, SchedulerSpec):
            if options:
                raise SimulationError(
                    "scheduler options cannot be combined with an explicit "
                    "SchedulerSpec; set them on the spec itself"
                )
            return value
        name = value if value is not None else default
        if not isinstance(name, str):
            raise SimulationError(
                f"scheduler must be a name or SchedulerSpec, got {type(value).__name__}"
            )
        pairs = tuple(sorted((options or {}).items()))
        return cls(name=name, options=pairs)

    def options_dict(self) -> dict[str, object]:
        """The options as a plain dictionary."""
        return dict(self.options)

    def coerced(self) -> "SchedulerSpec":
        """This spec with option names validated and values type-coerced.

        Raises a clear :class:`SimulationError` for unknown options or
        values the policy's declared :attr:`SchedulerPolicy.option_types`
        cannot convert (``"abc"`` for a float option).  The result is the
        canonical spec the engines — and the sweep cache keys — should see,
        so ``intra="0.95"`` and ``intra=0.95`` name the same trial.
        """
        policy_cls = get_scheduler_policy(self.name)
        original = self.options_dict()
        coerced = coerce_policy_options(policy_cls, original)
        # Type-sensitive comparison: 1 == 1.0 but repr-based cache payloads
        # distinguish them, so an int coerced to float must rebuild the spec.
        if all(
            type(coerced[key]) is type(value) and coerced[key] == value
            for key, value in original.items()
        ):
            return self
        return SchedulerSpec(name=self.name, options=tuple(sorted(coerced.items())))

    def build_policy(self) -> SchedulerPolicy:
        """Instantiate the named policy with this spec's (coerced) options."""
        policy_cls = get_scheduler_policy(self.name)
        return policy_cls(**coerce_policy_options(policy_cls, self.options_dict()))

    def cache_payload(self) -> dict:
        """JSON-friendly canonical form for sweep cache keys."""
        return {
            "name": self.name,
            "options": sorted((str(key), repr(value)) for key, value in self.options),
        }

    def label(self) -> str:
        """Human-readable label, e.g. ``two-block(intra=0.95)``."""
        if not self.options:
            return self.name
        rendered = ", ".join(f"{key}={value}" for key, value in self.options)
        return f"{self.name}({rendered})"


#: Registered scheduler names (import-time snapshot for CLI choices).
SCHEDULER_NAMES = scheduler_names()
