"""Probability-1 upper bound on ``log2 n`` (Section 3.3).

The main protocol can err in either direction with small probability.  For
applications that only need an *upper bound* on ``log n`` (being too large
merely slows things down), Section 3.3 combines two ingredients:

* the fast protocol's estimate ``k`` shifted up by a slack constant
  (``upper_bound_slack``, the paper's ``+3.7``), which is an upper bound
  w.h.p.; and
* the slow, error-free backup protocol
  :class:`~repro.protocols.exact_backup.ExactUpperBoundBackup`
  (``l_i, l_i -> l_{i+1}, f_{i+1}``), whose maximum level stabilises to
  ``floor(log2 n)`` with probability 1 after ``O(n)`` time.

Reporting ``max(k + slack, k_ex + 1)`` at every moment gives a value that is
an upper bound on ``log2 n`` with probability 1 once the backup has
stabilised, while remaining within ``O(1)`` above ``log2 n`` w.h.p. (the
paper's constant is ``5.7 + 3.7 = 9.4``).  The fast estimate converges in
``O(log^2 n)`` time, so the expected convergence time of the combination is
still dominated by the fast path.

(The ``+ 1`` on the backup level is discussed in
:mod:`repro.protocols.exact_backup`: pairwise merging stabilises at
``floor(log2 n)``, so one unit of slack is needed for a true upper bound.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.fields import LogSizeAgentState
from repro.core.log_size_estimation import LogSizeEstimationProtocol
from repro.core.parameters import ProtocolParameters
from repro.protocols.base import AgentProtocol
from repro.protocols.exact_backup import BackupState, ExactUpperBoundBackup
from repro.rng import RandomSource


@dataclass(slots=True)
class ProbabilityOneState:
    """Combined state: fast estimate plus the slow exact backup."""

    fast: LogSizeAgentState
    backup: BackupState

    def clone(self) -> "ProbabilityOneState":
        return ProbabilityOneState(fast=self.fast.clone(), backup=self.backup)


class ProbabilityOneUpperBoundProtocol(AgentProtocol[ProbabilityOneState]):
    """Uniform leaderless protocol whose output is an upper bound on ``log2 n``.

    Parameters
    ----------
    params:
        Constants of the fast size-estimation protocol.
    upper_bound_slack:
        Additive slack added to the fast estimate (paper: 3.7), making it an
        upper bound w.h.p. on its own.
    """

    is_uniform = True

    def __init__(
        self,
        params: ProtocolParameters | None = None,
        upper_bound_slack: float = 3.7,
    ) -> None:
        if upper_bound_slack < 0:
            raise ValueError(
                f"upper_bound_slack must be non-negative, got {upper_bound_slack}"
            )
        self.params = params or ProtocolParameters.paper()
        self.fast_protocol = LogSizeEstimationProtocol(self.params)
        self.backup_protocol = ExactUpperBoundBackup()
        self.upper_bound_slack = upper_bound_slack

    def initial_state(self, agent_id: int) -> ProbabilityOneState:
        return ProbabilityOneState(
            fast=self.fast_protocol.initial_state(agent_id),
            backup=self.backup_protocol.initial_state(agent_id),
        )

    def transition(
        self,
        receiver: ProbabilityOneState,
        sender: ProbabilityOneState,
        rng: RandomSource,
    ) -> tuple[ProbabilityOneState, ProbabilityOneState]:
        rec = receiver.clone()
        sen = sender.clone()
        rec.fast, sen.fast = self.fast_protocol.transition(rec.fast, sen.fast, rng)
        rec.backup, sen.backup = self.backup_protocol.transition(
            rec.backup, sen.backup, rng
        )
        return rec, sen

    def output(self, state: ProbabilityOneState) -> float:
        """The guaranteed upper bound ``max(k + slack, k_ex + 1)``.

        Unlike the plain protocol this is always defined: before the fast
        estimate is available the backup level (plus one) alone is reported.
        """
        backup_bound = float(self.backup_protocol.output(state.backup) + 1)
        fast_estimate = self.fast_protocol.output(state.fast)
        if fast_estimate is None:
            return backup_bound
        return max(fast_estimate + self.upper_bound_slack, backup_bound)

    def fast_output(self, state: ProbabilityOneState) -> float | None:
        """The underlying fast estimate (no slack), for diagnostics."""
        return self.fast_protocol.output(state.fast)

    def backup_output(self, state: ProbabilityOneState) -> int:
        """The backup protocol's current level, for diagnostics."""
        return self.backup_protocol.output(state.backup)

    def state_signature(self, state: ProbabilityOneState) -> Hashable:
        return (state.fast.signature(), state.backup)

    def describe(self) -> str:
        return (
            f"ProbabilityOneUpperBound(slack={self.upper_bound_slack}, "
            f"{self.params.describe()})"
        )


def upper_bound_holds(simulation) -> bool:
    """Predicate: every agent's reported value is ``>= log2 n``.

    With probability 1 this eventually holds forever (once the backup
    stabilises).  A test checks it on one stabilised run; no benchmark yet
    measures how often it already holds at fast convergence (the ROADMAP's
    claims-registry item).
    """
    import math

    target = math.log2(simulation.population_size)
    return all(
        simulation.protocol.output(state) >= target for state in simulation.states
    )
