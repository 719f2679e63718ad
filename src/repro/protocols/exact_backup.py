"""Probability-1 exact upper bound on ``log2 n`` (Section 3.3's backup protocol).

Section 3.3 of the paper observes that many applications only need an *upper
bound* on ``log n``, and that a slow, error-free backup protocol can guarantee
one with probability 1:

    transitions ``l_i, l_i -> l_{i+1}, f_{i+1}`` for all ``i``, and
    ``f_i, f_j -> f_i, f_i`` for ``j < i``, with all agents starting in ``l_0``.

Two *active* agents at the same level ``i`` merge into a single active agent
at level ``i + 1`` (the other becomes a follower).  The total "mass"
``sum over active agents of 2^level`` is invariant and equal to ``n``, so the
maximum level ever reachable is ``floor(log2 n)``; and because any two active
agents sharing a level can still merge, the population keeps merging until the
active levels are exactly the binary representation of ``n`` — at which point
the maximum level *equals* ``floor(log2 n)`` with probability 1, after
``O(n)`` expected time.

Every agent additionally tracks the largest level it has ever observed
(``best``), which spreads by epidemic; this is the value the agent reports.
(The paper only gives the follower rule ``f_i, f_j -> f_i, f_i``; tracking the
maximum in every agent is pure bookkeeping that changes neither the merging
dynamics nor the probability-1 guarantee, and it makes *every* agent's output
converge to ``floor(log2 n)``, matching the paper's "all agents store k_ex".)

The level approaches its final value from below, so ``best + 1 >= log2 n``
holds with probability 1 once the protocol stabilises;
:mod:`repro.core.probability_one` reports ``max(k + slack, best + 1)`` to
obtain the Section 3.3 guarantee.  (The paper states the stabilised value as
``2^(k_ex-1) < n <= 2^(k_ex)``; pure pairwise merging yields
``floor(log2 n)``, hence the explicit ``+ 1``; the guarantee "upper bound on
``log2 n``, exceeding it by at most 1" is unchanged.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.protocols.base import AgentProtocol
from repro.rng import RandomSource

ACTIVE = "l"
FOLLOWER = "f"


@dataclass(frozen=True, slots=True)
class BackupState:
    """State of one agent of the backup protocol.

    Attributes
    ----------
    kind:
        ``"l"`` for an active level token, ``"f"`` for a follower.
    level:
        The token's merge level (only meaningful while active; frozen once a
        follower).
    best:
        The largest level this agent has ever observed — its reported value.
    """

    kind: str = ACTIVE
    level: int = 0
    best: int = 0


class ExactUpperBoundBackup(AgentProtocol[BackupState]):
    """The slow probability-1 protocol computing ``floor(log2 n)`` from below.

    The output of an agent is the largest level it has observed; with
    probability 1 every agent's output converges to ``floor(log2 n)`` in
    ``O(n)`` expected time, approaching it from below.
    """

    is_uniform = True

    def initial_state(self, agent_id: int) -> BackupState:
        return BackupState()

    def transition(
        self, receiver: BackupState, sender: BackupState, rng: RandomSource
    ) -> tuple[BackupState, BackupState]:
        observed = max(receiver.best, sender.best, receiver.level, sender.level)

        # l_i, l_i -> l_{i+1}, f_{i+1}
        if (
            receiver.kind == ACTIVE
            and sender.kind == ACTIVE
            and receiver.level == sender.level
        ):
            merged_level = receiver.level + 1
            observed = max(observed, merged_level)
            return (
                BackupState(kind=ACTIVE, level=merged_level, best=observed),
                BackupState(kind=FOLLOWER, level=merged_level, best=observed),
            )

        # Otherwise both agents simply learn the maximum level observed so far
        # (the follower rule f_i, f_j -> f_i, f_i for j < i, applied to the
        # bookkeeping field of every agent).
        new_receiver = BackupState(kind=receiver.kind, level=receiver.level, best=observed)
        new_sender = BackupState(kind=sender.kind, level=sender.level, best=observed)
        return new_receiver, new_sender

    def output(self, state: BackupState) -> int:
        """The agent's current lower approximation of ``floor(log2 n)``."""
        return state.best

    def state_signature(self, state: BackupState) -> Hashable:
        return (state.kind, state.level, state.best)

    def describe(self) -> str:
        return "ExactUpperBoundBackup"
