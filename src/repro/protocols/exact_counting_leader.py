"""Leader-driven exact population counting (Michail [32] style).

With a pre-elected leader, a uniform protocol can count the exact population
size and *terminate*: the leader absorbs one "token" from every other agent
(marking it counted), while keeping an interaction counter that serves as a
probabilistic timer; when the timer indicates that with high probability every
agent has been counted, the leader terminates and broadcasts the count.

This protocol plays two roles in the reproduction:

* It is the example the paper cites (Section 1.1 and Related work) of a
  *terminating* uniform protocol made possible by an initial leader — the
  initial configuration is not dense, so Theorem 4.1 does not apply.
* It is the slow (``O(n log n)``) exact-counting baseline against which the
  paper's ``O(log^2 n)`` approximate protocol is positioned.

The timer threshold follows the coupon-collector structure of the original
protocol: after the leader has had ``c * k * (1 + ln k)`` interactions, where
``k`` is the number of tokens collected so far, every agent has interacted
with the leader w.h.p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable

from repro.exceptions import ProtocolError
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


@dataclass(frozen=True, slots=True)
class LeaderCountingState:
    """State of one agent in the leader-driven exact-counting protocol.

    Attributes
    ----------
    is_leader:
        Whether this agent is the (unique) initial leader.
    counted:
        For non-leaders: whether the leader has already absorbed this agent's
        token.
    tally:
        For the leader: number of agents counted so far (including itself).
    timer:
        For the leader: number of interactions since the tally last increased.
    terminated:
        Whether the termination signal has been produced/observed.
    announced_size:
        The final population size broadcast by the leader (``None`` until
        termination).
    """

    is_leader: bool = False
    counted: bool = False
    tally: int = 1
    timer: int = 0
    terminated: bool = False
    announced_size: int | None = None


class LeaderExactCounting(AgentProtocol[LeaderCountingState]):
    """Terminating exact counting with an initial leader.

    Parameters
    ----------
    patience:
        Multiplicative constant of the leader's coupon-collector timer.  The
        leader terminates once it has gone ``patience * tally * (1 + ln tally)``
        consecutive interactions without meeting an uncounted agent.  Larger
        values trade time for a lower probability of undercounting.
    """

    is_uniform = True

    def __init__(self, patience: float = 4.0) -> None:
        if patience <= 0:
            raise ProtocolError(f"patience must be positive, got {patience}")
        self.patience = patience

    def initial_state(self, agent_id: int) -> LeaderCountingState:
        return LeaderCountingState(is_leader=(agent_id == 0))

    def _timer_threshold(self, tally: int) -> float:
        import math

        return self.patience * tally * (1.0 + math.log(max(tally, 2)))

    def transition(
        self,
        receiver: LeaderCountingState,
        sender: LeaderCountingState,
        rng: RandomSource,
    ) -> tuple[LeaderCountingState, LeaderCountingState]:
        new_receiver, new_sender = receiver, sender

        # Spread the termination signal and the announced size by epidemic.
        if receiver.terminated or sender.terminated:
            announced = receiver.announced_size or sender.announced_size
            new_receiver = replace(
                new_receiver, terminated=True, announced_size=announced
            )
            new_sender = replace(new_sender, terminated=True, announced_size=announced)
            return new_receiver, new_sender

        leader_side = None
        other_side = None
        if receiver.is_leader and not sender.is_leader:
            leader_side, other_side = "receiver", "sender"
        elif sender.is_leader and not receiver.is_leader:
            leader_side, other_side = "sender", "receiver"

        if leader_side is None:
            # No leader involved: nothing to do (non-leaders are passive).
            return new_receiver, new_sender

        leader = new_receiver if leader_side == "receiver" else new_sender
        other = new_receiver if other_side == "receiver" else new_sender

        if not other.counted:
            leader = replace(leader, tally=leader.tally + 1, timer=0)
            other = replace(other, counted=True)
        else:
            timer = leader.timer + 1
            leader = replace(leader, timer=timer)
            if timer >= self._timer_threshold(leader.tally):
                leader = replace(
                    leader, terminated=True, announced_size=leader.tally
                )

        if leader_side == "receiver":
            return leader, other
        return other, leader

    def output(self, state: LeaderCountingState) -> int | None:
        """The announced exact population size (``None`` until broadcast)."""
        return state.announced_size

    def state_signature(self, state: LeaderCountingState) -> Hashable:
        return (
            state.is_leader,
            state.counted,
            state.tally,
            state.timer,
            state.terminated,
            state.announced_size,
        )

    def describe(self) -> str:
        return f"LeaderExactCounting(patience={self.patience})"
