"""The leader-driven phase clock (Angluin et al.).

A *phase clock* lets a population synchronise epochs of ``Theta(log n)``
parallel time.  Two flavours appear in the paper.  The paper's own
leaderless clock (Section 3.1) needs no object: every agent counts its own
interactions against ``clock_threshold_factor * logSize2``
(:class:`~repro.core.parameters.ProtocolParameters`), and the composition
scheme of Section 1.1 counts to ``stage_length_factor * s`` the same way.

:class:`LeaderDrivenPhaseClock`
    The classic phase clock of Angluin, Aspnes and Eisenstat [9], needed for
    the terminating-with-a-leader variant (Theorem 3.13).  Agents carry a
    phase in ``0 .. phase_count-1``; followers adopt the leader-side maximum
    (in the cyclic order), and the leader increments the phase when it meets
    an agent that has caught up with it.  Each wrap of the clock takes
    ``Theta(log n)`` time w.h.p.

It is a plain state machine over per-agent values, so it can be embedded in
any agent-level protocol (it carries no randomness of its own).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ProtocolError


@dataclass(frozen=True, slots=True)
class PhaseClockAgent:
    """Per-agent state of the leader-driven phase clock.

    Attributes
    ----------
    phase:
        Current phase in ``0 .. phase_count - 1``.
    round:
        Number of completed clock wraps (each wrap is one "round" of
        ``Theta(log n)`` time).
    """

    phase: int = 0
    round: int = 0


class LeaderDrivenPhaseClock:
    """The Angluin–Aspnes–Eisenstat leader-driven phase clock.

    The clock is defined by its number of phases (the paper's Theorem 3.13
    uses "greater than 288" so that a full wrap takes at least ``36 ln n``
    time w.h.p.; smaller values still work, just with weaker guarantees, and
    the tests use small values for speed).

    Usage: the embedding protocol stores a :class:`PhaseClockAgent` per agent
    and calls :meth:`interact` with the leader flag of each participant; the
    method returns the updated pair.
    """

    def __init__(self, phase_count: int = 289) -> None:
        if phase_count < 3:
            raise ProtocolError(f"phase_count must be at least 3, got {phase_count}")
        self.phase_count = phase_count

    # -- cyclic-order helpers -----------------------------------------------------

    def _ahead(self, a: PhaseClockAgent, b: PhaseClockAgent) -> bool:
        """Whether agent ``a``'s clock reading is strictly ahead of ``b``'s.

        Readings are compared by (round, phase); the round counter removes the
        ambiguity of the purely cyclic comparison used in the original paper
        (it is information the agents legitimately maintain locally).
        """
        return (a.round, a.phase) > (b.round, b.phase)

    def _advance(self, agent: PhaseClockAgent) -> PhaseClockAgent:
        phase = agent.phase + 1
        if phase >= self.phase_count:
            return PhaseClockAgent(phase=0, round=agent.round + 1)
        return PhaseClockAgent(phase=phase, round=agent.round)

    # -- transition ----------------------------------------------------------------

    def interact(
        self,
        receiver: PhaseClockAgent,
        receiver_is_leader: bool,
        sender: PhaseClockAgent,
        sender_is_leader: bool,
    ) -> tuple[PhaseClockAgent, PhaseClockAgent]:
        """Update both participants' clocks for one interaction.

        Followers adopt the later reading; the leader advances its phase when
        it meets an agent that has caught up with it (same reading), which is
        what makes each full wrap take ``Theta(log n)`` time.
        """
        new_receiver, new_sender = receiver, sender

        # Followers catch up to the maximum reading they observe.
        if not receiver_is_leader and self._ahead(sender, receiver):
            new_receiver = PhaseClockAgent(phase=sender.phase, round=sender.round)
        if not sender_is_leader and self._ahead(receiver, sender):
            new_sender = PhaseClockAgent(phase=receiver.phase, round=receiver.round)

        # The leader ticks when met by an agent that caught up with it.
        if receiver_is_leader and not self._ahead(receiver, sender):
            new_receiver = self._advance(receiver)
        if sender_is_leader and not self._ahead(sender, receiver):
            new_sender = self._advance(sender)

        return new_receiver, new_sender

    def rounds_completed(self, agent: PhaseClockAgent) -> int:
        """Number of full clock wraps the agent has observed."""
        return agent.round
