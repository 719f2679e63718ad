"""Metric collection for simulations.

The paper measures three quantities: *parallel time* to convergence, the
*number of distinct states* used (space complexity), and the *accuracy* of the
output.  :class:`SimulationMetrics` accumulates the first two during a run;
accuracy is protocol-specific and computed by the harness from the final
outputs.

:class:`StateUsageTracker` maintains the set of distinct state signatures seen
during a run, which is how we reproduce the Lemma 3.9 state-complexity table
(the paper counts the possible values of each field; we report both the
per-field ranges and the realised number of distinct states).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable


@dataclass
class StateUsageTracker:
    """Tracks the distinct state signatures observed during a run."""

    signatures: set[Hashable] = field(default_factory=set)

    def observe(self, signature: Hashable) -> None:
        """Record a state signature."""
        self.signatures.add(signature)

    def observe_many(self, signatures) -> None:
        """Record an iterable of state signatures."""
        self.signatures.update(signatures)

    @property
    def distinct_states(self) -> int:
        """Number of distinct states seen so far."""
        return len(self.signatures)


@dataclass
class SimulationMetrics:
    """Counters accumulated by the agent-level simulation engine.

    Attributes
    ----------
    population_size:
        ``n``; fixed for the lifetime of a run.
    interactions:
        Number of interactions executed.
    null_interactions:
        Interactions in which neither agent changed state (useful when
        checking silence/stability empirically).
    state_usage:
        Tracker of distinct states, when enabled.
    """

    population_size: int
    interactions: int = 0
    null_interactions: int = 0
    state_usage: StateUsageTracker | None = None

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.interactions / self.population_size

    @property
    def distinct_states(self) -> int | None:
        """Distinct states observed, or ``None`` when tracking is disabled."""
        if self.state_usage is None:
            return None
        return self.state_usage.distinct_states

    def record_interaction(self, changed: bool) -> None:
        """Record one executed interaction.

        Parameters
        ----------
        changed:
            Whether at least one of the two agents changed state.
        """
        self.interactions += 1
        if not changed:
            self.null_interactions += 1
