"""Abstract interfaces for population protocols.

Two complementary views of a protocol are supported, matching the two
simulation engines in :mod:`repro.engine`:

``AgentProtocol``
    The *agent-level* view used by the paper's pseudocode: each agent carries
    an arbitrary (possibly unbounded) state object, and the transition is an
    algorithm run by the pair ``(receiver, sender)`` with access to random
    bits.  This is the natural representation for the paper's main protocol,
    whose agents store several integer fields.

``FiniteStateProtocol``
    The *configuration-level* view of classic constant-state protocols: a
    finite state set and a transition relation over ordered pairs.  Protocols
    in this form can be simulated by counts
    (:class:`repro.engine.count_simulator.CountSimulator`), which is far
    faster for large populations, and they can be analysed symbolically by
    the termination machinery (:mod:`repro.termination.producibility`).

A :class:`FiniteStateProtocol` can always be lifted to an
:class:`AgentProtocol` via :meth:`FiniteStateProtocol.as_agent_protocol`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
    TypeVar,
)

from repro.exceptions import ProtocolError
from repro.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.configuration import Configuration

StateT = TypeVar("StateT")
HashableState = Hashable

#: Convenience alias: the output an agent exposes (``None`` when undefined).
ProtocolOutput = Any


@dataclass(frozen=True)
class RandomizedTransition:
    """One probabilistic outcome of an ordered interaction ``(a, b)``.

    A finite-state randomized protocol maps each ordered pair of input states
    to a distribution over output pairs; each entry of that distribution is a
    :class:`RandomizedTransition` carrying its probability (the paper's *rate
    constant* ``rho`` in Section 4).
    """

    receiver_out: Hashable
    sender_out: Hashable
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ProtocolError(
                f"transition probability must be in (0, 1], got {self.probability}"
            )


class AgentProtocol(ABC, Generic[StateT]):
    """Agent-level population protocol.

    Subclasses define how a single agent is initialised and how an ordered
    pair of agents updates on interaction.  The paper's notion of a *uniform*
    protocol corresponds to :meth:`initial_state` and :meth:`transition`
    never consulting the population size; nonuniform baselines (such as the
    Figure-1 counter protocol) receive ``n`` through their constructor and
    report ``is_uniform = False``.
    """

    #: Whether the transition algorithm is independent of the population size.
    is_uniform: bool = True

    @abstractmethod
    def initial_state(self, agent_id: int) -> StateT:
        """Return the initial state of agent ``agent_id``.

        A *leaderless* protocol (all agents start identical) must ignore
        ``agent_id``; protocols with an initial leader typically special-case
        ``agent_id == 0``.
        """

    @abstractmethod
    def transition(
        self, receiver: StateT, sender: StateT, rng: RandomSource
    ) -> tuple[StateT, StateT]:
        """Return the post-interaction states ``(receiver', sender')``.

        Implementations must not mutate the input states; the engines rely on
        value semantics to support snapshots, traces and rollback in tests.
        """

    def output(self, state: StateT) -> ProtocolOutput:
        """Return the output an agent in ``state`` exposes (default: the state)."""
        return state

    def state_signature(self, state: StateT) -> Hashable:
        """Return a hashable signature identifying ``state``.

        Used for counting distinct states (the paper's space complexity is
        measured in the number of distinct agent states).  The default works
        for hashable states; protocols with unhashable state objects override
        this.
        """
        return state  # type: ignore[return-value]

    def describe(self) -> str:
        """One-line human-readable description (used by the CLI and reports)."""
        return type(self).__name__


class FiniteStateProtocol(ABC):
    """Configuration-level protocol over a finite (hashable) state set.

    The transition structure is exposed as a mapping from ordered state pairs
    to a list of :class:`RandomizedTransition`.  Deterministic protocols
    simply return a single outcome with probability 1.  Pairs absent from the
    mapping are *null transitions* (both agents keep their states).
    """

    is_uniform: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A closed-form initial_configuration describes its own class's
        # initial_state, so a subclass that replaces initial_state alone
        # gets the per-agent fold back.
        if "initial_state" in vars(cls) and "initial_configuration" not in vars(cls):
            cls.initial_configuration = FiniteStateProtocol.initial_configuration

    @abstractmethod
    def states(self) -> Sequence[Hashable]:
        """Return the full state set (finite)."""

    @abstractmethod
    def initial_state(self, agent_id: int) -> Hashable:
        """Initial state of agent ``agent_id``."""

    def initial_configuration(self, population_size: int) -> "Configuration":
        """The initial configuration of ``population_size`` agents, as counts.

        The count-level engines start from this.  The default folds the
        per-agent :meth:`initial_state` calls in first-appearance order, the
        order in which the count engine samples states, so it costs
        ``O(n)``.  Protocols whose initial configuration has a closed form
        override it with an ``O(|states|)`` construction that must equal
        the default, key order included.  A subclass that replaces
        :meth:`initial_state` without replacing this method falls back to
        the default.
        """
        from repro.engine.configuration import Configuration

        return Configuration.from_states(
            self.initial_state(agent_id) for agent_id in range(population_size)
        )

    @abstractmethod
    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        """Return the distribution over outcomes for the ordered pair."""

    def output(self, state: Hashable) -> ProtocolOutput:
        """Output exposed by an agent in ``state`` (default: the state itself)."""
        return state

    # -- derived helpers -----------------------------------------------------

    def transition_table(self) -> Mapping[tuple[Hashable, Hashable], Sequence[RandomizedTransition]]:
        """Materialise the full transition table over ``states() x states()``.

        Null transitions are omitted.  The termination analysis
        (:mod:`repro.termination.producibility`) consumes this table.
        """
        table: dict[tuple[Hashable, Hashable], Sequence[RandomizedTransition]] = {}
        for a in self.states():
            for b in self.states():
                outcomes = [
                    outcome
                    for outcome in self.transitions(a, b)
                    if (outcome.receiver_out, outcome.sender_out) != (a, b)
                ]
                if outcomes:
                    table[(a, b)] = outcomes
        return table

    def validate(self) -> None:
        """Check that all transition outputs stay inside the declared state set.

        Raises
        ------
        ProtocolError
            If a transition produces a state outside :meth:`states`, or the
            probabilities for some ordered pair sum to more than 1.
        """
        state_set = set(self.states())
        for a in state_set:
            for b in state_set:
                outcomes = self.transitions(a, b)
                total = 0.0
                for outcome in outcomes:
                    total += outcome.probability
                    if outcome.receiver_out not in state_set:
                        raise ProtocolError(
                            f"transition ({a!r}, {b!r}) produces unknown state "
                            f"{outcome.receiver_out!r}"
                        )
                    if outcome.sender_out not in state_set:
                        raise ProtocolError(
                            f"transition ({a!r}, {b!r}) produces unknown state "
                            f"{outcome.sender_out!r}"
                        )
                if total > 1.0 + 1e-9:
                    raise ProtocolError(
                        f"transition probabilities for ({a!r}, {b!r}) sum to {total} > 1"
                    )

    def as_agent_protocol(self) -> "FiniteStateAgentAdapter":
        """Lift this protocol to the agent-level interface."""
        return FiniteStateAgentAdapter(self)

    def compiled(self):
        """Compile this protocol into dense integer transition tables.

        Returns a :class:`repro.protocols.compiled.CompiledTransitionTable`,
        the representation consumed by the batched configuration-level engine
        (:class:`repro.engine.batched_simulator.BatchedCountSimulator`).
        """
        from repro.protocols.compiled import compile_transition_table

        return compile_transition_table(self)

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{type(self).__name__} ({len(list(self.states()))} states)"


class FiniteStateAgentAdapter(AgentProtocol[Hashable]):
    """Adapter running a :class:`FiniteStateProtocol` under the agent engine.

    Sampling among the randomized outcomes uses the shared
    :class:`repro.rng.RandomSource` so adapted protocols remain reproducible.
    """

    def __init__(self, protocol: FiniteStateProtocol) -> None:
        self._protocol = protocol
        self.is_uniform = protocol.is_uniform

    @property
    def finite_protocol(self) -> FiniteStateProtocol:
        """The wrapped configuration-level protocol."""
        return self._protocol

    def initial_state(self, agent_id: int) -> Hashable:
        return self._protocol.initial_state(agent_id)

    def transition(
        self, receiver: Hashable, sender: Hashable, rng: RandomSource
    ) -> tuple[Hashable, Hashable]:
        outcomes = self._protocol.transitions(receiver, sender)
        if not outcomes:
            return receiver, sender
        draw = rng.random()
        cumulative = 0.0
        for outcome in outcomes:
            cumulative += outcome.probability
            if draw < cumulative:
                return outcome.receiver_out, outcome.sender_out
        # Residual probability mass corresponds to the null transition.
        return receiver, sender

    def output(self, state: Hashable) -> ProtocolOutput:
        return self._protocol.output(state)

    def describe(self) -> str:
        return f"agent-adapter({self._protocol.describe()})"


class FunctionalFiniteStateProtocol(FiniteStateProtocol):
    """A finite-state protocol defined from plain data.

    Convenient for tests, examples and the termination experiments, where
    small transition tables are easier to state literally than as a class.

    Parameters
    ----------
    state_set:
        The finite set of states.
    transition_map:
        Mapping ``(receiver, sender) -> [(receiver', sender', probability), ...]``.
        Pairs not present are null transitions.
    initial:
        Either a single state (leaderless: everyone starts there) or a callable
        ``agent_id -> state``.
    uniform:
        Whether the protocol should report itself as uniform.
    output_map:
        Optional mapping from state to output value.
    """

    def __init__(
        self,
        state_set: Iterable[Hashable],
        transition_map: Mapping[tuple[Hashable, Hashable], Sequence[tuple[Hashable, Hashable, float]]],
        initial: Hashable | Callable[[int], Hashable],
        uniform: bool = True,
        output_map: Mapping[Hashable, ProtocolOutput] | None = None,
    ) -> None:
        self._states = tuple(state_set)
        self._transition_map = {
            pair: tuple(
                RandomizedTransition(receiver_out=r, sender_out=s, probability=p)
                for (r, s, p) in outcomes
            )
            for pair, outcomes in transition_map.items()
        }
        self._initial = initial
        self.is_uniform = uniform
        self._output_map = dict(output_map) if output_map else None
        self.validate()

    def states(self) -> Sequence[Hashable]:
        return self._states

    def initial_state(self, agent_id: int) -> Hashable:
        if callable(self._initial):
            return self._initial(agent_id)
        return self._initial

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        return self._transition_map.get((receiver, sender), ())

    def output(self, state: Hashable) -> ProtocolOutput:
        if self._output_map is None:
            return state
        return self._output_map.get(state, state)
