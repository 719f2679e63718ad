"""Appendix B: size estimation with no access to random bits (synthetic coins).

The main protocol assumes agents can read uniformly random bits.  Appendix B
removes that assumption: the population splits into worker (``A``) and
coin-flipper (``F``) roles, and whenever an ``A`` agent interacts with an
``F`` agent, whether the ``A`` agent happened to be the *sender* or the
*receiver* is a perfectly fair, independent coin flip supplied by the
scheduler itself (the *synthetic coin* of Sudo et al. [39]).

Workers therefore generate their geometric variables *incrementally*: the
variable keeps incrementing while the flips come up "sender" and completes on
the first "receiver" flip (Subprotocols 12 and 15).  Because every worker
stores its own running sum of per-epoch maxima (there are no storage agents in
this variant), the state bound grows to ``O(log^6 n)`` (Lemma B.5), while the
time bound remains ``O(log^2 n)`` (Corollary B.6).

The structure per epoch is otherwise the same as the main protocol: leaderless
phase clock with threshold ``clock_threshold_factor * logSize2``, max
propagation of ``gr`` among workers in the same epoch, catch-up via
``Propagate-Incremented-Epoch``, restart on a larger ``logSize2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable

from repro.core.parameters import ProtocolParameters
from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource


class CoinRole(str, Enum):
    """Roles of the Appendix-B variant."""

    UNASSIGNED = "X"
    WORKER = "A"
    COIN = "F"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class SyntheticCoinState:
    """State of one agent of the Appendix-B protocol (Protocol 10)."""

    role: CoinRole = CoinRole.UNASSIGNED
    time: int = 0
    total: int = 0
    epoch: int = 0
    gr: int = 1
    log_size2: int = 1
    log_size2_generated: bool = False
    gr_generated: bool = False
    protocol_done: bool = False
    output: float | None = None

    def clone(self) -> "SyntheticCoinState":
        return SyntheticCoinState(
            role=self.role,
            time=self.time,
            total=self.total,
            epoch=self.epoch,
            gr=self.gr,
            log_size2=self.log_size2,
            log_size2_generated=self.log_size2_generated,
            gr_generated=self.gr_generated,
            protocol_done=self.protocol_done,
            output=self.output,
        )

    def signature(self) -> Hashable:
        return (
            self.role.value,
            self.time,
            self.total,
            self.epoch,
            self.gr,
            self.log_size2,
            self.log_size2_generated,
            self.gr_generated,
            self.protocol_done,
            self.output,
        )

    @property
    def is_worker(self) -> bool:
        return self.role is CoinRole.WORKER

    @property
    def is_coin(self) -> bool:
        return self.role is CoinRole.COIN

    @property
    def is_unassigned(self) -> bool:
        return self.role is CoinRole.UNASSIGNED


class SyntheticCoinLogSizeEstimation(AgentProtocol[SyntheticCoinState]):
    """Protocol 10: ``Log-Size-Estimation`` with synthetic coins (Appendix B).

    The transition function is deterministic given the ordered pair — all
    randomness comes from which participant the scheduler made the sender —
    so the protocol fits the traditional deterministic-transition model.

    Parameters
    ----------
    params:
        The same constants as the main protocol; the geometric success
        probability is necessarily 1/2 here (one synthetic flip per A–F
        interaction).
    """

    is_uniform = True

    def __init__(self, params: ProtocolParameters | None = None) -> None:
        self.params = params or ProtocolParameters.paper()

    # -- helpers ---------------------------------------------------------------

    def _restart(self, agent: SyntheticCoinState) -> None:
        """Subprotocol 14: reset everything downstream of ``logSize2``."""
        agent.time = 0
        agent.total = 0
        agent.epoch = 0
        agent.gr = 1
        agent.gr_generated = False
        agent.protocol_done = False
        agent.output = None

    def _update_sum(self, agent: SyntheticCoinState) -> None:
        """Subprotocol 19: accumulate ``gr`` and start the next epoch's variable."""
        agent.total += agent.gr
        agent.time = 0
        agent.gr = 1
        agent.gr_generated = False

    def _check_timer(self, agent: SyntheticCoinState) -> None:
        """Subprotocol 17: advance the epoch when the phase clock expires."""
        if agent.protocol_done or not agent.is_worker:
            return
        if not agent.log_size2_generated or not agent.gr_generated:
            return
        if agent.time < self.params.clock_threshold(agent.log_size2):
            return
        agent.epoch += 1
        self._update_sum(agent)
        self._maybe_finish(agent)

    def _maybe_finish(self, agent: SyntheticCoinState) -> None:
        if (
            not agent.protocol_done
            and agent.epoch >= self.params.total_epochs(agent.log_size2)
            and agent.epoch > 0
        ):
            agent.protocol_done = True
        if agent.protocol_done and agent.epoch > 0:
            agent.output = agent.total / agent.epoch + self.params.output_offset

    def _partition(self, rec: SyntheticCoinState, sen: SyntheticCoinState) -> None:
        """Subprotocol 11: split the population into workers and coin flippers."""
        if sen.is_unassigned and rec.is_unassigned:
            sen.role = CoinRole.WORKER
            rec.role = CoinRole.COIN
            return
        if rec.is_unassigned and not sen.is_unassigned:
            rec.role = CoinRole.COIN if sen.is_worker else CoinRole.WORKER
            return
        if sen.is_unassigned and not rec.is_unassigned:
            sen.role = CoinRole.COIN if rec.is_worker else CoinRole.WORKER

    def _generate(self, worker: SyntheticCoinState, worker_is_sender: bool) -> None:
        """Subprotocols 12 and 15: one synthetic coin flip for the worker.

        "Sender" flips keep incrementing the variable being generated;
        the first "receiver" flip completes it.
        """
        if not worker.log_size2_generated:
            if worker_is_sender:
                worker.log_size2 += 1
            else:
                worker.log_size2_generated = True
                worker.log_size2 += self.params.log_size2_offset
            return
        if not worker.gr_generated:
            if worker_is_sender:
                worker.gr += 1
            else:
                worker.gr_generated = True

    def _propagate_log_size2(
        self, first: SyntheticCoinState, second: SyntheticCoinState
    ) -> None:
        """Subprotocol 13: spread the maximum ``logSize2``; growth restarts."""
        if not (first.log_size2_generated and second.log_size2_generated):
            return
        if first.log_size2 < second.log_size2:
            first.log_size2 = second.log_size2
            self._restart(first)
        elif second.log_size2 < first.log_size2:
            second.log_size2 = first.log_size2
            self._restart(second)

    def _propagate_epoch(
        self, first: SyntheticCoinState, second: SyntheticCoinState
    ) -> None:
        """Subprotocol 18: lagging workers catch up to the maximum epoch."""
        if first.epoch < second.epoch:
            first.epoch = second.epoch
            self._update_sum(first)
            self._maybe_finish(first)
        elif second.epoch < first.epoch:
            second.epoch = first.epoch
            self._update_sum(second)
            self._maybe_finish(second)

    def _propagate_gr(
        self, first: SyntheticCoinState, second: SyntheticCoinState
    ) -> None:
        """Subprotocol 16: spread the epoch's maximum geometric variable."""
        if first.epoch != second.epoch:
            return
        if first.gr < second.gr:
            first.gr = second.gr
        elif second.gr < first.gr:
            second.gr = first.gr

    def _propagate_output(
        self, first: SyntheticCoinState, second: SyntheticCoinState
    ) -> None:
        """Spread the final estimate (including to coin-flipper agents)."""
        for announcer, listener in ((first, second), (second, first)):
            if announcer.output is None:
                continue
            if listener.protocol_done and listener.output is not None:
                continue
            if listener.output is None or announcer.protocol_done:
                listener.output = announcer.output

    # -- AgentProtocol interface --------------------------------------------------

    def initial_state(self, agent_id: int) -> SyntheticCoinState:
        return SyntheticCoinState()

    def transition(
        self,
        receiver: SyntheticCoinState,
        sender: SyntheticCoinState,
        rng: RandomSource,
    ) -> tuple[SyntheticCoinState, SyntheticCoinState]:
        rec = receiver.clone()
        sen = sender.clone()

        self._partition(rec, sen)

        # Leaderless phase clock (workers count every interaction).
        if rec.is_worker:
            rec.time += 1
            self._check_timer(rec)
        if sen.is_worker:
            sen.time += 1
            self._check_timer(sen)

        # Synthetic coin flips happen on worker/coin-flipper pairs.
        if rec.is_worker and sen.is_coin:
            self._generate(rec, worker_is_sender=False)
        elif sen.is_worker and rec.is_coin:
            self._generate(sen, worker_is_sender=True)

        # Worker-worker bookkeeping (only once their variables exist).
        if rec.is_worker and sen.is_worker:
            self._propagate_log_size2(rec, sen)
            if rec.gr_generated and sen.gr_generated:
                self._propagate_epoch(rec, sen)
                self._propagate_gr(rec, sen)

        self._propagate_output(rec, sen)
        return rec, sen

    def output(self, state: SyntheticCoinState) -> float | None:
        """The agent's current estimate of ``log2 n`` (``None`` until available)."""
        return state.output

    def state_signature(self, state: SyntheticCoinState) -> Hashable:
        return state.signature()

    def describe(self) -> str:
        return f"SyntheticCoinLogSizeEstimation({self.params.describe()})"


# -- predicates ----------------------------------------------------------------------


def all_workers_done(simulation) -> bool:
    """Every worker agent has finished all its epochs."""
    workers = [state for state in simulation.states if state.is_worker]
    return bool(workers) and all(state.protocol_done for state in workers)
