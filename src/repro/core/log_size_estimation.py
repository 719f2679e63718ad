"""Protocol 1: uniform leaderless ``Log-Size-Estimation`` (Theorem 3.1).

The protocol computes ``log2 n`` within a constant additive error, with high
probability, in ``O(log^2 n)`` parallel time and ``O(log^4 n)`` states, from
the all-identical initial configuration (no leader, no knowledge of ``n``).

Outline (Section 3.1/3.2 of the paper):

1. **Partition.**  Agents split into workers (``A``) and storage (``S``)
   roles, roughly half each (Lemma 3.2).
2. **Weak estimate.**  Each worker draws a geometric random variable;
   the population propagates the maximum (``logSize2``), a 2-factor estimate
   of ``log2 n`` (Lemma 3.8).  Whenever a larger value arrives, the agent
   restarts everything downstream (the restart scheme).
3. **Leaderless phase clock.**  Workers count their own interactions; an
   epoch lasts ``95 * logSize2`` of them, long enough for one epidemic to
   complete w.h.p. (Corollaries 3.5–3.7).
4. **Averaging.**  In each of ``K = 5 * logSize2`` epochs the workers draw a
   fresh geometric variable, propagate its maximum, and deposit it into the
   storage agents' running sum.  The final output is
   ``sum / K + 1 ~ log2(n/2) + 1 = log2 n`` within additive error 5.7 w.h.p.
   (Lemma 3.11/3.12, Corollary D.10).

This module provides the agent-level protocol class plus the convergence
predicates used by tests, benchmarks and the Figure 2 reproduction.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.fields import LogSizeAgentState, Role
from repro.core.parameters import ProtocolParameters
from repro.core import subprotocols as sub
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


class LogSizeEstimationProtocol(AgentProtocol[LogSizeAgentState]):
    """The paper's main protocol (Protocol 1).

    Parameters
    ----------
    params:
        The protocol constants; defaults to the paper's values
        (:meth:`ProtocolParameters.paper`).  Tests use
        :meth:`ProtocolParameters.fast_test` for speed.
    """

    is_uniform = True

    def __init__(self, params: ProtocolParameters | None = None) -> None:
        self.params = params or ProtocolParameters.paper()

    # -- AgentProtocol interface ---------------------------------------------------

    def initial_state(self, agent_id: int) -> LogSizeAgentState:
        """All agents start identically (leaderless, role ``X``)."""
        return LogSizeAgentState()

    def transition(
        self,
        receiver: LogSizeAgentState,
        sender: LogSizeAgentState,
        rng: RandomSource,
    ) -> tuple[LogSizeAgentState, LogSizeAgentState]:
        """One interaction of Protocol 1 (pseudocode order preserved)."""
        rec = receiver.clone()
        sen = sender.clone()
        params = self.params

        # 1. Role assignment for agents still unassigned.
        sub.partition_into_roles(rec, sen, rng, params)

        # 2. Workers tick their leaderless phase clock and possibly advance.
        if rec.is_worker:
            rec.time += 1
            sub.check_timer_and_increment_epoch(rec, rng, params)
        if sen.is_worker:
            sen.time += 1
            sub.check_timer_and_increment_epoch(sen, rng, params)

        # 3. The weak size estimate (logSize2) spreads; growth triggers Restart.
        sub.propagate_max_clock_value(rec, sen, rng, params)

        # 4. Lagging agents catch up to the maximum epoch.
        sub.propagate_incremented_epoch(rec, sen, rng, params)

        # 5. Worker-storage pairs deposit finished epoch maxima.
        sub.update_sum(rec, sen, params)

        # 6. Worker-worker pairs agree on the epoch's maximum geometric value.
        if rec.is_worker and sen.is_worker:
            sub.propagate_max_grv(rec, sen)

        # 7. Finished storage agents announce the estimate; it spreads to all.
        sub.propagate_output(rec, sen)

        return rec, sen

    def output(self, state: LogSizeAgentState) -> float | None:
        """The agent's current estimate of ``log2 n`` (``None`` until available)."""
        return state.current_estimate(self.params.output_offset)

    def state_signature(self, state: LogSizeAgentState) -> Hashable:
        return state.signature()

    def describe(self) -> str:
        return f"LogSizeEstimation({self.params.describe()})"


# -- convergence predicates -----------------------------------------------------------


def all_agents_done(simulation) -> bool:
    """Figure 2's convergence event: every agent reached the final epoch.

    The paper's simulation (Appendix C) declares convergence "when all agents
    reach ``epoch = 5 * logSize2``", i.e. when ``protocolDone`` holds
    everywhere.
    """
    return all(state.protocol_done for state in simulation.states)


def estimate_error(simulation) -> dict[str, float]:
    """Summary of the estimation error over the population.

    Returns a dictionary with the mean/min/max estimate and the maximum
    absolute additive error against ``log2 n`` (only over agents that
    currently report an estimate).

    Raises
    ------
    ValueError
        If no agent reports an estimate yet.
    """
    target = math.log2(simulation.population_size)
    estimates = [
        value
        for value in (
            simulation.protocol.output(state) for state in simulation.states
        )
        if value is not None
    ]
    if not estimates:
        raise ValueError("no agent reports an estimate yet")
    return {
        "target_log2_n": target,
        "mean_estimate": sum(estimates) / len(estimates),
        "min_estimate": min(estimates),
        "max_estimate": max(estimates),
        "max_additive_error": max(abs(value - target) for value in estimates),
        "agents_reporting": float(len(estimates)),
    }


def worker_count(simulation) -> int:
    """Number of agents currently in role ``A`` (used to check Lemma 3.2)."""
    return simulation.count_where(lambda state: state.role is Role.WORKER)
