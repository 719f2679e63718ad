"""``m``-``rho``-producible state sets (the combinatorial core of Theorem 4.1).

Given a set of initially present states ``Lambda_0`` and a rate threshold
``rho``, the paper defines ``PROD_rho(Gamma)`` as the states producible by a
single transition among states of ``Gamma`` whose probability is at least
``rho``, and the increasing chain ``Lambda_rho^i = Lambda_rho^{i-1} ∪
PROD_rho(Lambda_rho^{i-1})``.  A state in ``Lambda_rho^m`` is
*m-rho-producible*.

The proof of Theorem 4.1 takes a finite terminating execution from some dense
configuration, lets ``m`` be its length and ``rho`` the smallest rate constant
used, and observes that the termination signal is then ``m``-``rho``-producible
— so by the timer/density lemma it is produced in O(1) time from every larger
dense configuration.

:class:`ProducibilityAnalysis` computes the chain for any finite-state
protocol, reports at which depth each state first appears, and can extract the
set relevant to a termination specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.exceptions import TerminationSpecError
from repro.protocols.base import FiniteStateProtocol, RandomizedTransition


@dataclass(frozen=True)
class ProducibilityResult:
    """Result of a producibility closure computation.

    Attributes
    ----------
    initial_states:
        ``Lambda_0``: the states assumed present initially.
    rho:
        The rate threshold used.
    depth_of:
        Mapping from each producible state to the smallest ``m`` such that it
        is ``m``-``rho``-producible (0 for initial states).
    levels:
        The chain ``Lambda_rho^0 ⊆ Lambda_rho^1 ⊆ ...`` until it stabilises,
        as a list of frozensets.
    """

    initial_states: frozenset[Hashable]
    rho: float
    depth_of: Mapping[Hashable, int]
    levels: Sequence[frozenset[Hashable]]

    @property
    def closure(self) -> frozenset[Hashable]:
        """All producible states (the final level of the chain)."""
        return self.levels[-1]

    @property
    def closure_depth(self) -> int:
        """Number of iterations until the chain stabilised."""
        return len(self.levels) - 1

    def is_producible(self, state: Hashable) -> bool:
        """Whether ``state`` is ``m``-``rho``-producible for some finite ``m``."""
        return state in self.depth_of

    def producible_at_depth(self, depth: int) -> frozenset[Hashable]:
        """``Lambda_rho^depth`` (clamped to the stabilised closure)."""
        if depth < 0:
            raise TerminationSpecError(f"depth must be non-negative, got {depth}")
        return self.levels[min(depth, len(self.levels) - 1)]


class ProducibilityAnalysis:
    """Compute producibility closures over a finite-state protocol.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.protocols.base.FiniteStateProtocol`; its transition
        table (with per-outcome probabilities as rate constants) defines
        ``PROD_rho``.
    """

    def __init__(self, protocol: FiniteStateProtocol) -> None:
        self.protocol = protocol
        self._table = protocol.transition_table()

    def _products(self, present: frozenset[Hashable], rho: float) -> frozenset[Hashable]:
        """``PROD_rho(present)``: states reachable by one sufficiently likely transition."""
        produced: set[Hashable] = set()
        for (a, b), outcomes in self._table.items():
            if a not in present or b not in present:
                continue
            for outcome in outcomes:
                if outcome.probability >= rho:
                    produced.add(outcome.receiver_out)
                    produced.add(outcome.sender_out)
        return frozenset(produced)

    def closure(
        self,
        initial_states: Iterable[Hashable],
        rho: float = 1e-9,
        max_depth: int | None = None,
    ) -> ProducibilityResult:
        """Compute the chain ``Lambda_rho^i`` starting from ``initial_states``.

        Parameters
        ----------
        initial_states:
            ``Lambda_0``.
        rho:
            Rate threshold; transitions with probability below ``rho`` are
            ignored (the paper's argument fixes ``rho`` as the smallest rate
            constant appearing in one particular terminating execution).
        max_depth:
            Optional cap on the number of iterations (``m``); ``None`` means
            iterate to stabilisation (always finite for finite-state
            protocols).
        """
        if not 0.0 < rho <= 1.0:
            raise TerminationSpecError(f"rho must be in (0, 1], got {rho}")
        level: frozenset[Hashable] = frozenset(initial_states)
        if not level:
            raise TerminationSpecError("at least one initial state is required")
        unknown = level - set(self.protocol.states())
        if unknown:
            raise TerminationSpecError(
                f"initial states not in the protocol's state set: {sorted(map(repr, unknown))}"
            )
        depth_of: dict[Hashable, int] = {state: 0 for state in level}
        levels: list[frozenset[Hashable]] = [level]
        depth = 0
        while max_depth is None or depth < max_depth:
            produced = self._products(level, rho)
            next_level = level | produced
            if next_level == level:
                break
            depth += 1
            for state in next_level - level:
                depth_of[state] = depth
            level = next_level
            levels.append(level)
        return ProducibilityResult(
            initial_states=levels[0], rho=rho, depth_of=depth_of, levels=levels
        )

    def terminated_states_producible(
        self,
        initial_states: Iterable[Hashable],
        terminated: Callable[[Hashable], bool],
        rho: float = 1e-9,
    ) -> frozenset[Hashable]:
        """The terminated states that are producible from ``initial_states``.

        If this set is non-empty, Theorem 4.1 applies: from sufficiently large
        dense configurations containing ``initial_states`` the termination
        signal appears within constant time with overwhelming probability.
        """
        result = self.closure(initial_states, rho=rho)
        return frozenset(state for state in result.closure if terminated(state))
