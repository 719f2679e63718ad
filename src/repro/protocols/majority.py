"""Approximate majority baseline.

The 3-state approximate-majority protocol (Angluin, Aspnes, Eisenstat) is the
canonical example of a fast constant-state computation and one of the
downstream tasks (exact majority) that the nonuniform polylog protocols cited
by the paper solve with an initial estimate of ``log n``.  We include the
3-state protocol as

* a realistic downstream protocol for the composition machinery of
  :mod:`repro.core.composition` (the size estimate sets the stage length), and
* a finite-state protocol exercised by the count-based engine and the
  termination/density experiments (its initial configurations are dense
  whenever both opinions start with a constant fraction of the population).

States: ``"X"`` and ``"Y"`` (the two opinions) and ``"B"`` (blank/undecided).
Transitions (both orderings):

* ``X, Y -> X, B`` and ``Y, X -> Y, B`` — opposite opinions: the sender is
  blanked,
* ``X, B -> X, X`` and ``Y, B -> Y, Y`` — an opinionated agent recruits a
  blank one.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.engine.configuration import Configuration
from repro.exceptions import ProtocolError
from repro.protocols.base import FiniteStateProtocol, RandomizedTransition

#: The golden-ratio stride of the deterministic opinion striping.
_STRIDE = 0.6180339887498949
#: Agent ids per vectorised block of :meth:`initial_configuration`.
_CHUNK = 1 << 16


class ApproximateMajorityProtocol(FiniteStateProtocol):
    """Three-state approximate majority over opinions ``X`` and ``Y``.

    Parameters
    ----------
    x_fraction:
        Fraction of agents initialised with opinion ``X`` (the rest start
        with ``Y``).  Agents are assigned deterministically by id so the same
        initial margin is reproducible across engines.
    """

    is_uniform = True

    OPINION_X = "X"
    OPINION_Y = "Y"
    BLANK = "B"

    def __init__(self, x_fraction: float = 0.6) -> None:
        if not 0.0 <= x_fraction <= 1.0:
            raise ProtocolError(f"x_fraction must be in [0, 1], got {x_fraction}")
        self.x_fraction = x_fraction

    def states(self) -> Sequence[Hashable]:
        return (self.OPINION_X, self.OPINION_Y, self.BLANK)

    def initial_state(self, agent_id: int) -> Hashable:
        # Deterministic striping: agent ids are assigned X at rate x_fraction.
        # Using the fractional part keeps the margin stable for any n.
        position = (agent_id * _STRIDE) % 1.0
        return self.OPINION_X if position < self.x_fraction else self.OPINION_Y

    def initial_configuration(self, population_size: int) -> Configuration:
        # initial_state's float64 operations, run on blocks of agent ids: the
        # same X count with no per-agent call.  Agent 0 sits at position 0,
        # so X appears first whenever x_fraction > 0.
        ids = np.arange(min(_CHUNK, population_size), dtype=np.float64)
        positions = np.empty_like(ids)
        x_count = 0
        for start in range(0, population_size, _CHUNK):
            block = positions[: min(_CHUNK, population_size - start)]
            np.add(ids[: block.size], start, out=block)
            np.multiply(block, _STRIDE, out=block)
            np.remainder(block, 1.0, out=block)
            x_count += int(np.count_nonzero(block < self.x_fraction))
        counts = {self.OPINION_X: x_count, self.OPINION_Y: population_size - x_count}
        order = (self.OPINION_X, self.OPINION_Y)
        if not 0.0 < self.x_fraction:
            order = order[::-1]
        return Configuration({state: counts[state] for state in order if counts[state]})

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        x, y, blank = self.OPINION_X, self.OPINION_Y, self.BLANK
        if {receiver, sender} == {x, y}:
            # The sender is blanked regardless of orientation.
            return (RandomizedTransition(receiver_out=receiver, sender_out=blank),)
        if receiver in (x, y) and sender == blank:
            return (RandomizedTransition(receiver_out=receiver, sender_out=receiver),)
        if sender in (x, y) and receiver == blank:
            return (RandomizedTransition(receiver_out=sender, sender_out=sender),)
        return ()

    def output(self, state: Hashable) -> str:
        """The opinion an agent currently reports (blank agents report ``"B"``)."""
        return state

    def describe(self) -> str:
        return f"ApproximateMajority(x_fraction={self.x_fraction})"


def majority_consensus_predicate(simulator) -> bool:
    """Predicate: the population has reached consensus on a single opinion."""
    x = simulator.count(ApproximateMajorityProtocol.OPINION_X)
    y = simulator.count(ApproximateMajorityProtocol.OPINION_Y)
    return x == 0 or y == 0
