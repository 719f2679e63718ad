"""Leader-election protocols used as baselines and composition targets.

Two protocols are provided:

:class:`FiniteStatePairwiseElimination`
    The classic uniform two-state protocol ``L, L -> L, F``: all agents start
    as leader candidates and a candidate is demoted whenever two candidates
    meet.  It stabilises to exactly one leader with probability 1 but needs
    ``Theta(n)`` parallel time — the slow baseline that motivates the
    polylog-time literature discussed in the paper's introduction.  It is a
    :class:`FiniteStateProtocol`, so every engine runs it; the agent engine
    runs its :meth:`~FiniteStateProtocol.as_agent_protocol` lift.

:class:`NonuniformCounterLeaderElection`
    The Figure-1 style *nonuniform* protocol: candidates increment a counter
    on every interaction and a candidate that reaches a hard-coded threshold
    (``counter_threshold``, meant to be ``~c * log2 n``) declares the election
    finished (sets a ``terminated`` flag which then spreads by epidemic).
    This is the representative example the paper gives of protocols that need
    the value ``log n`` "hardcoded into the reactions" — the protocols our
    size-estimation protocol is meant to make uniform, and the protocols whose
    uniform variants Theorem 4.1 proves cannot be terminating.  It is also
    the downstream protocol used by the composition examples and by the
    termination experiments (the same transition algorithm run on a larger
    population terminates prematurely, illustrating the proof of
    Theorem 4.1).

Both protocols elect a *unique* leader only eventually; the counter variant is
tuned for the demonstration above rather than for optimal leader-election
guarantees (it mirrors the simplified fragment shown in the paper's Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Sequence

from repro.engine.configuration import Configuration
from repro.exceptions import ProtocolError
from repro.protocols.base import (
    AgentProtocol,
    FiniteStateProtocol,
    RandomizedTransition,
)
from repro.rng import RandomSource


class FiniteStatePairwiseElimination(FiniteStateProtocol):
    """Uniform two-state leader election ``L, L -> L, F``.

    Every agent starts in state ``"L"``; when two leaders meet the sender is
    demoted to follower ``"F"``.  Exactly one leader remains after
    ``Theta(n)`` parallel time.  As a :class:`FiniteStateProtocol` the
    count-based and batched engines run it at populations far beyond the
    agent engine's reach.
    """

    is_uniform = True
    LEADER = "L"
    FOLLOWER = "F"

    def states(self) -> Sequence[Hashable]:
        return (self.LEADER, self.FOLLOWER)

    def initial_state(self, agent_id: int) -> Hashable:
        return self.LEADER

    def initial_configuration(self, population_size: int) -> Configuration:
        return Configuration.uniform(self.LEADER, population_size)

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        if receiver == self.LEADER and sender == self.LEADER:
            return (
                RandomizedTransition(receiver_out=self.LEADER, sender_out=self.FOLLOWER),
            )
        return ()

    def output(self, state: Hashable) -> bool:
        """``True`` iff the agent currently believes it is the leader."""
        return state == self.LEADER

    def describe(self) -> str:
        return "FiniteStatePairwiseElimination"


def unique_leader_predicate(simulator) -> bool:
    """Predicate for ``run_until``: exactly one leader candidate remains."""
    return simulator.count(FiniteStatePairwiseElimination.LEADER) == 1


@dataclass(frozen=True, slots=True)
class CounterLeaderState:
    """State of the Figure-1 counter protocol.

    Attributes
    ----------
    candidate:
        Whether the agent is still a leader candidate.
    counter:
        Number of interactions this candidate has counted so far.
    terminated:
        Whether the agent has observed (or produced) the termination signal.
    """

    candidate: bool = True
    counter: int = 0
    terminated: bool = False


class NonuniformCounterLeaderElection(AgentProtocol[CounterLeaderState]):
    """Figure-1 style leader election with a hard-coded counter threshold.

    Parameters
    ----------
    counter_threshold:
        The hard-coded value at which a candidate "terminates" the election.
        For the protocol to behave as intended this must be roughly
        ``c * log2 n`` for the population it is deployed into — which is
        exactly the nonuniform knowledge of ``n`` the paper's Figure 1
        criticises.  Deploying the same threshold into a much larger
        population produces the termination signal far too early, which is
        the phenomenon Theorem 4.1 formalises.
    eliminate_on_meeting:
        When ``True`` (default), two candidates meeting also demote the
        sender, so the protocol eventually has a single candidate; when
        ``False`` the protocol only counts interactions (the bare fragment of
        Figure 1).
    """

    is_uniform = False

    def __init__(self, counter_threshold: int, eliminate_on_meeting: bool = True) -> None:
        if counter_threshold < 1:
            raise ProtocolError(
                f"counter threshold must be at least 1, got {counter_threshold}"
            )
        self.counter_threshold = counter_threshold
        self.eliminate_on_meeting = eliminate_on_meeting

    def initial_state(self, agent_id: int) -> CounterLeaderState:
        return CounterLeaderState()

    def transition(
        self,
        receiver: CounterLeaderState,
        sender: CounterLeaderState,
        rng: RandomSource,
    ) -> tuple[CounterLeaderState, CounterLeaderState]:
        new_receiver, new_sender = receiver, sender

        # Termination signal spreads by epidemic.
        if receiver.terminated or sender.terminated:
            new_receiver = replace(new_receiver, terminated=True)
            new_sender = replace(new_sender, terminated=True)

        # Candidate elimination (optional).
        if (
            self.eliminate_on_meeting
            and new_receiver.candidate
            and new_sender.candidate
        ):
            new_sender = replace(new_sender, candidate=False)

        # Candidates count their interactions; reaching the hard-coded
        # threshold produces the termination signal.
        if new_receiver.candidate and not new_receiver.terminated:
            counter = new_receiver.counter + 1
            new_receiver = replace(
                new_receiver,
                counter=counter,
                terminated=counter >= self.counter_threshold,
            )
        if new_sender.candidate and not new_sender.terminated:
            counter = new_sender.counter + 1
            new_sender = replace(
                new_sender,
                counter=counter,
                terminated=counter >= self.counter_threshold,
            )
        return new_receiver, new_sender

    def output(self, state: CounterLeaderState) -> bool:
        """``True`` iff the agent is a (still-standing) leader candidate."""
        return state.candidate

    def state_signature(self, state: CounterLeaderState) -> Hashable:
        return (state.candidate, state.counter, state.terminated)

    def describe(self) -> str:
        return (
            f"NonuniformCounterLeaderElection(threshold={self.counter_threshold}, "
            f"eliminate={self.eliminate_on_meeting})"
        )


class FiniteStateCounterTermination(FiniteStateProtocol):
    """Configuration-level view of the Figure-1 counter protocol.

    The agent-level :class:`NonuniformCounterLeaderElection` has a *finite*
    reachable state space — ``(candidate, counter <= threshold, terminated)``
    — so for a fixed threshold it can be enumerated and run on the count-based
    and batched engines, which is what lets the Theorem 4.1 termination-time
    experiments reach populations of 10^5–10^7.  Transitions delegate to the
    agent protocol's (deterministic) transition function, so the two views
    stay in lock-step by construction.
    """

    is_uniform = False

    def __init__(self, counter_threshold: int, eliminate_on_meeting: bool = True) -> None:
        self._agent = NonuniformCounterLeaderElection(
            counter_threshold=counter_threshold,
            eliminate_on_meeting=eliminate_on_meeting,
        )
        self.counter_threshold = counter_threshold
        self.eliminate_on_meeting = eliminate_on_meeting

    def states(self) -> Sequence[Hashable]:
        # A counter at the threshold always comes with the terminated flag
        # (they are set in the same interaction), so the combination
        # ``counter == threshold, terminated == False`` is unreachable and
        # excluded — keeping it would let transitions drive the counter past
        # the threshold, outside the enumerated set.
        return tuple(
            CounterLeaderState(candidate=candidate, counter=counter, terminated=terminated)
            for candidate in (True, False)
            for counter in range(self.counter_threshold + 1)
            for terminated in (False, True)
            if terminated or counter < self.counter_threshold
        )

    def initial_state(self, agent_id: int) -> Hashable:
        return CounterLeaderState()

    def initial_configuration(self, population_size: int) -> Configuration:
        return Configuration.uniform(CounterLeaderState(), population_size)

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        # The agent transition never draws randomness, so passing no random
        # source is safe; it also never drives the counter past the
        # threshold, keeping outputs inside the enumerated state set.
        receiver_out, sender_out = self._agent.transition(receiver, sender, rng=None)
        if (receiver_out, sender_out) == (receiver, sender):
            return ()
        return (RandomizedTransition(receiver_out=receiver_out, sender_out=sender_out),)

    def output(self, state: Hashable) -> bool:
        """``True`` iff the agent is a (still-standing) leader candidate."""
        return state.candidate

    def describe(self) -> str:
        return (
            f"FiniteStateCounterTermination(threshold={self.counter_threshold}, "
            f"eliminate={self.eliminate_on_meeting})"
        )


def termination_signal_predicate(simulator) -> bool:
    """Predicate for ``run_until``: some agent has set the terminated flag.

    Works with any configuration-level engine running
    :class:`FiniteStateCounterTermination`.
    """
    return any(
        state.terminated and count > 0 for state, count in simulator.configuration().items()
    )
