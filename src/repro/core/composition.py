"""Restart-based composition of the size estimate with downstream protocols.

Section 1.1 of the paper describes a "simple and elegant" way to compose the
(non-terminating) size estimate with downstream protocols that need it, based
on the leaderless phase clock:

1. Each agent obtains the weak size estimate ``s`` (``logSize2``: a geometric
   variable whose maximum is propagated by epidemic).
2. Each agent counts its own interactions, ``c``, up to a threshold
   ``f(s)`` chosen large enough that, w.h.p., no agent reaches ``f(s)``
   before the downstream protocol (which runs concurrently, parameterised by
   ``s``) has converged.
3. The first agent to reach ``f(s)`` signals the whole population to move to
   the next stage (the signal spreads by epidemic; lagging agents jump
   forward).
4. Whenever an agent's estimate ``s`` increases, it restarts the entire
   downstream computation (the restart scheme) — so the composition is
   correct as long as the final, maximal ``s`` is a good estimate.

Two classes implement this:

* :class:`RestartComposition` — one downstream protocol; the stage counter
  only distinguishes "still running" from "declared converged".
* :class:`StagedComposition` — a series of ``K`` downstream stages
  (the paper's multi-stage composition); each stage runs for ``f(s)``
  interactions of local counting before the next one starts.

The downstream protocols receive the current estimate ``s`` through an
optional ``configure_estimate`` hook, which is how a *nonuniform* protocol
(one that wants ``floor(log n)`` hard-coded) is "uniformised": the hook is the
only place the estimate enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.core.parameters import ProtocolParameters
from repro.exceptions import CompositionError
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


@dataclass(slots=True)
class CompositionAgentState:
    """State of one agent of the composition wrapper.

    Attributes
    ----------
    estimate:
        The weak size estimate ``s`` (``None`` until generated at the agent's
        first interaction, which keeps the initial configuration identical).
    counter:
        Interactions counted in the current stage (the composition's own
        leaderless phase clock).
    stage:
        Index of the stage the agent is currently executing.
    downstream:
        The agent's state in the *current* stage's downstream protocol.
    downstream_initial:
        The agent's pristine initial downstream states, one per stage, kept so
        a restart can rebuild them without consulting the population size.
    """

    estimate: int | None
    counter: int
    stage: int
    downstream: Any
    downstream_initial: tuple[Any, ...]

    def clone(self) -> "CompositionAgentState":
        downstream = self.downstream
        clone_method = getattr(downstream, "clone", None)
        if callable(clone_method):
            downstream = clone_method()
        return CompositionAgentState(
            estimate=self.estimate,
            counter=self.counter,
            stage=self.stage,
            downstream=downstream,
            downstream_initial=self.downstream_initial,
        )


class StagedComposition(AgentProtocol[CompositionAgentState]):
    """Run a series of downstream protocols, staged by a leaderless phase clock.

    Parameters
    ----------
    stages:
        The downstream protocols, executed in order.  Each must be an
        :class:`~repro.protocols.base.AgentProtocol`.  A protocol may expose a
        ``configure_estimate(estimate)`` method; it is called (on the shared
        protocol object) whenever an agent (re)starts that stage with a new
        size estimate — this is the hook through which nonuniform protocols
        receive ``floor(log n)``-like values.
    stage_length_factor:
        The threshold ``f(s) = stage_length_factor * s`` of the composition's
        phase clock.  Must be chosen so the downstream stage converges within
        ``f(s)`` interactions per agent w.h.p. (the paper's requirement
        ``f(s) > t(n)``).
    params:
        Protocol constants (only the geometric-draw parameters and the
        ``logSize2`` offset are used here).
    """

    is_uniform = True

    def __init__(
        self,
        stages: Sequence[AgentProtocol],
        stage_length_factor: int,
        params: ProtocolParameters | None = None,
    ) -> None:
        if not stages:
            raise CompositionError("at least one downstream stage is required")
        if stage_length_factor < 1:
            raise CompositionError(
                f"stage_length_factor must be >= 1, got {stage_length_factor}"
            )
        self.stages = tuple(stages)
        self.stage_length_factor = stage_length_factor
        self.params = params or ProtocolParameters.paper()

    # -- helpers ----------------------------------------------------------------------

    def _threshold(self, estimate: int) -> int:
        """The stage length ``f(s)`` in interactions per agent."""
        return self.stage_length_factor * estimate

    def _stage_protocol(self, stage: int) -> AgentProtocol:
        """The downstream protocol executing at ``stage`` (clamped to the last)."""
        return self.stages[min(stage, len(self.stages) - 1)]

    def _configure(self, stage: int, estimate: int) -> None:
        protocol = self._stage_protocol(stage)
        hook = getattr(protocol, "configure_estimate", None)
        if callable(hook):
            hook(estimate)

    def _enter_stage(self, agent: CompositionAgentState, stage: int) -> None:
        """Move ``agent`` to ``stage``, starting that stage's protocol afresh."""
        stage = min(stage, len(self.stages) - 1)
        agent.stage = stage
        agent.counter = 0
        agent.downstream = agent.downstream_initial[stage]
        if agent.estimate is not None:
            self._configure(stage, agent.estimate)

    def _restart(self, agent: CompositionAgentState) -> None:
        """Restart the whole downstream computation (estimate grew)."""
        self._enter_stage(agent, 0)

    # -- AgentProtocol interface ---------------------------------------------------------

    def initial_state(self, agent_id: int) -> CompositionAgentState:
        initials = tuple(stage.initial_state(agent_id) for stage in self.stages)
        return CompositionAgentState(
            estimate=None,
            counter=0,
            stage=0,
            downstream=initials[0],
            downstream_initial=initials,
        )

    def transition(
        self,
        receiver: CompositionAgentState,
        sender: CompositionAgentState,
        rng: RandomSource,
    ) -> tuple[CompositionAgentState, CompositionAgentState]:
        rec = receiver.clone()
        sen = sender.clone()

        # 1. Lazily generate the weak estimate at the first interaction.
        for agent in (rec, sen):
            if agent.estimate is None:
                agent.estimate = (
                    rng.geometric(self.params.geometric_success_probability)
                    + self.params.log_size2_offset
                )

        # 2. Propagate the maximum estimate; growth restarts the composition.
        if rec.estimate < sen.estimate:
            rec.estimate = sen.estimate
            self._restart(rec)
        elif sen.estimate < rec.estimate:
            sen.estimate = rec.estimate
            self._restart(sen)

        # 3. Lagging agents jump forward to the maximum stage.
        if rec.stage < sen.stage:
            self._enter_stage(rec, sen.stage)
        elif sen.stage < rec.stage:
            self._enter_stage(sen, rec.stage)

        # 4. The current stage's downstream protocol runs (same stage only —
        #    agents in different stages are working on different problems, but
        #    after step 3 both participants agree on the stage).
        stage_protocol = self._stage_protocol(rec.stage)
        rec.downstream, sen.downstream = stage_protocol.transition(
            rec.downstream, sen.downstream, rng
        )

        # 5. The composition's phase clock: count interactions; the first agent
        #    to reach f(s) signals the move to the next stage.
        for agent in (rec, sen):
            agent.counter += 1
            if (
                agent.stage < len(self.stages) - 1
                and agent.estimate is not None
                and agent.counter >= self._threshold(agent.estimate)
            ):
                self._enter_stage(agent, agent.stage + 1)

        return rec, sen

    def output(self, state: CompositionAgentState) -> Any:
        """The output of the stage the agent is currently executing."""
        return self._stage_protocol(state.stage).output(state.downstream)

    def state_signature(self, state: CompositionAgentState) -> Hashable:
        downstream_protocol = self._stage_protocol(state.stage)
        return (
            state.estimate,
            state.counter,
            state.stage,
            downstream_protocol.state_signature(state.downstream),
        )

    def describe(self) -> str:
        names = ", ".join(stage.describe() for stage in self.stages)
        return (
            f"StagedComposition(f(s)={self.stage_length_factor}*s, stages=[{names}])"
        )


class RestartComposition(StagedComposition):
    """Single-downstream-stage convenience wrapper.

    Equivalent to a :class:`StagedComposition` with two stages where the
    second stage is the same protocol: the stage index then acts as the
    "the phase clock has fired at least once, so the downstream protocol has
    had ``f(s)`` interactions per agent and is trusted to have converged"
    signal, which :meth:`stage_signal_reached` exposes.
    """

    def __init__(
        self,
        downstream: AgentProtocol,
        stage_length_factor: int,
        params: ProtocolParameters | None = None,
    ) -> None:
        super().__init__(
            stages=(downstream, downstream),
            stage_length_factor=stage_length_factor,
            params=params,
        )
        self.downstream = downstream

    def _enter_stage(self, agent: CompositionAgentState, stage: int) -> None:
        """Entering the signalling stage keeps the downstream state (no reset).

        The second "stage" is the same protocol instance continuing to run;
        only restarts (estimate growth) reset the downstream state.
        """
        stage = min(stage, len(self.stages) - 1)
        previous_stage = agent.stage
        agent.stage = stage
        agent.counter = 0
        if stage == 0 or previous_stage > stage:
            agent.downstream = agent.downstream_initial[0]
        if agent.estimate is not None:
            self._configure(stage, agent.estimate)

    def describe(self) -> str:
        return (
            f"RestartComposition(f(s)={self.stage_length_factor}*s, "
            f"downstream={self.downstream.describe()})"
        )


def stage_signal_reached(simulation) -> bool:
    """Predicate: every agent has received the "stage complete" signal."""
    return all(state.stage >= 1 for state in simulation.states)
