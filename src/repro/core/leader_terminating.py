"""Terminating size estimation with an initial leader (Section 3.4, Theorem 3.13).

Theorem 4.1 rules out termination for *dense* initial configurations, but with
an initial leader the picture changes: the leader can drive an
Angluin–Aspnes–Eisenstat phase clock, each wrap of which takes
``Theta(log n)`` parallel time w.h.p., and terminate after
``k2 * 5 * logSize2`` wraps — by which point the (leaderless) size-estimation
computation running underneath has converged w.h.p.

Implementation: every agent runs the ordinary
:class:`~repro.core.log_size_estimation.LogSizeEstimationProtocol` state
machine; on top of it each agent carries a
:class:`~repro.core.phase_clock.PhaseClockAgent` reading and a ``terminated``
flag.  Agent 0 is the leader.  When the leader's completed clock wraps reach
``termination_rounds_factor * epochs_factor * logSize2`` it sets
``terminated = True`` together with its current estimate, and both spread to
the rest of the population by epidemic.

The protocol is *uniform* (the thresholds are expressed in terms of the
dynamically computed ``logSize2``) and *terminating with high probability*:
the termination signal is produced only after the underlying estimate has
converged, unless the phase clock or ``logSize2`` failed their
high-probability guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable

from repro.core.fields import LogSizeAgentState
from repro.core.log_size_estimation import LogSizeEstimationProtocol
from repro.core.parameters import ProtocolParameters
from repro.core.phase_clock import LeaderDrivenPhaseClock, PhaseClockAgent
from repro.exceptions import ProtocolError
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


@dataclass(slots=True)
class LeaderTerminatingState:
    """State of one agent of the terminating-with-a-leader protocol.

    Attributes
    ----------
    base:
        The underlying ``Log-Size-Estimation`` state.
    is_leader:
        Whether this agent is the unique initial leader.
    clock:
        The agent's leader-driven phase-clock reading.
    terminated:
        Whether the termination signal has been produced/observed.
    announced:
        The estimate broadcast together with the termination signal
        (``None`` until termination reaches this agent).
    """

    base: LogSizeAgentState
    is_leader: bool = False
    clock: PhaseClockAgent = PhaseClockAgent()
    terminated: bool = False
    announced: float | None = None

    def clone(self) -> "LeaderTerminatingState":
        return LeaderTerminatingState(
            base=self.base.clone(),
            is_leader=self.is_leader,
            clock=self.clock,
            terminated=self.terminated,
            announced=self.announced,
        )


class LeaderTerminatingSizeEstimation(AgentProtocol[LeaderTerminatingState]):
    """Uniform terminating size estimation with an initial leader (Theorem 3.13).

    Parameters
    ----------
    params:
        Constants of the underlying size-estimation protocol.
    phase_count:
        Number of phases of the leader-driven clock.  The paper requires a
        sufficiently large constant (> 288) for its high-probability bounds;
        tests use smaller values for speed.
    termination_rounds_factor:
        The leader terminates after
        ``termination_rounds_factor * epochs_factor * logSize2`` completed
        clock wraps (the paper's ``k2``).
    """

    is_uniform = True

    def __init__(
        self,
        params: ProtocolParameters | None = None,
        phase_count: int = 289,
        termination_rounds_factor: int = 2,
    ) -> None:
        if termination_rounds_factor < 1:
            raise ProtocolError(
                "termination_rounds_factor must be >= 1, got "
                f"{termination_rounds_factor}"
            )
        self.params = params or ProtocolParameters.paper()
        self.inner = LogSizeEstimationProtocol(self.params)
        self.phase_clock = LeaderDrivenPhaseClock(phase_count=phase_count)
        self.termination_rounds_factor = termination_rounds_factor

    # -- helpers -------------------------------------------------------------------

    def _termination_rounds(self, log_size2: int) -> int:
        """Number of clock wraps after which the leader terminates."""
        return self.termination_rounds_factor * self.params.total_epochs(log_size2)

    # -- AgentProtocol interface ----------------------------------------------------

    def initial_state(self, agent_id: int) -> LeaderTerminatingState:
        return LeaderTerminatingState(
            base=self.inner.initial_state(agent_id), is_leader=(agent_id == 0)
        )

    def transition(
        self,
        receiver: LeaderTerminatingState,
        sender: LeaderTerminatingState,
        rng: RandomSource,
    ) -> tuple[LeaderTerminatingState, LeaderTerminatingState]:
        rec = receiver.clone()
        sen = sender.clone()

        # The underlying size-estimation computation proceeds unchanged.
        rec.base, sen.base = self.inner.transition(rec.base, sen.base, rng)

        # The leader-driven phase clock ticks on every interaction.
        rec.clock, sen.clock = self.phase_clock.interact(
            rec.clock, rec.is_leader, sen.clock, sen.is_leader
        )

        # The leader produces the termination signal after enough wraps.
        for agent in (rec, sen):
            if agent.is_leader and not agent.terminated:
                threshold = self._termination_rounds(agent.base.log_size2)
                if self.phase_clock.rounds_completed(agent.clock) >= threshold:
                    agent.terminated = True
                    agent.announced = self.inner.output(agent.base)

        # The termination signal and announced estimate spread by epidemic.
        if rec.terminated or sen.terminated:
            announced = rec.announced if rec.announced is not None else sen.announced
            if announced is None:
                announced = self.inner.output(rec.base) or self.inner.output(sen.base)
            rec.terminated = sen.terminated = True
            if rec.announced is None:
                rec.announced = announced
            if sen.announced is None:
                sen.announced = announced

        return rec, sen

    def output(self, state: LeaderTerminatingState) -> float | None:
        """The announced estimate once terminated, else the live estimate."""
        if state.terminated and state.announced is not None:
            return state.announced
        return self.inner.output(state.base)

    def state_signature(self, state: LeaderTerminatingState) -> Hashable:
        return (
            state.base.signature(),
            state.is_leader,
            state.clock.phase,
            state.clock.round,
            state.terminated,
            state.announced,
        )

    def describe(self) -> str:
        return (
            f"LeaderTerminatingSizeEstimation(phases={self.phase_clock.phase_count}, "
            f"k2={self.termination_rounds_factor}, {self.params.describe()})"
        )


# -- predicates --------------------------------------------------------------------------


def all_agents_terminated(simulation) -> bool:
    """Whether the termination signal has reached every agent."""
    return all(state.terminated for state in simulation.states)


def termination_happened_after_convergence(simulation) -> bool:
    """Check Theorem 3.13's qualitative guarantee on the final population.

    ``True`` when every agent is terminated and the announced estimate was
    produced by a finished underlying computation (all agents done).
    """
    return all(
        state.terminated and state.base.protocol_done for state in simulation.states
    )
