"""The Theorem 4.1 experiment: termination-signal time as the population grows.

Theorem 4.1 is an impossibility result, so it cannot be "run" directly; what
can be measured is its operational content:

* **Uniform + dense ⇒ early signal.**  Take any uniform protocol whose agents
  can set a ``terminated`` flag, started from a dense (e.g. all-identical)
  configuration.  Whatever finite behaviour first produced the signal at some
  small ``n`` is ``m``-``rho``-producible, so at every larger ``n`` the signal
  appears within *constant* parallel time — long before a task needing
  ``omega(1)`` time (leader election, size estimation, majority) can have
  finished.  The canonical example is the Figure-1 counter protocol run with a
  threshold tuned for a small population and then deployed into larger ones.

* **Leader ⇒ the signal can be delayed.**  The leader-driven protocols
  (Michail's exact counting, the paper's Theorem 3.13 variant) start from
  non-dense configurations, and their measured termination time grows with
  ``n`` — the hypothesis of density is what the proof genuinely needs.

:func:`measure_termination_time` measures the parallel time until *some* agent
sets its terminated flag for one run; :func:`termination_time_sweep` repeats
this over population sizes and seeds, producing the series benchmark
``T-TERM`` reports.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.simulator import Simulation
from repro.exceptions import ConvergenceError, TerminationSpecError
from repro.protocols.base import AgentProtocol
from repro.rng import spawn_seed
from repro.termination.definitions import TerminationSpec


@dataclass(frozen=True)
class TerminationTimeObservation:
    """Termination-time measurements at one population size.

    Attributes
    ----------
    population_size:
        ``n``.
    times:
        Parallel time at which the first terminated agent appeared, one entry
        per run that terminated within the budget.
    failures:
        Number of runs that did not terminate within the budget.
    """

    population_size: int
    times: tuple[float, ...]
    failures: int

    @property
    def mean_time(self) -> float | None:
        """Mean termination time over successful runs (``None`` if none)."""
        if not self.times:
            return None
        return statistics.fmean(self.times)

    @property
    def max_time(self) -> float | None:
        """Maximum termination time over successful runs."""
        if not self.times:
            return None
        return max(self.times)

    @property
    def termination_probability(self) -> float:
        """Fraction of runs that terminated within the budget (estimates ``kappa``)."""
        total = len(self.times) + self.failures
        return len(self.times) / total if total else 0.0


def measure_termination_time(
    protocol_factory: Callable[[], AgentProtocol],
    spec: TerminationSpec,
    population_size: int,
    max_parallel_time: float,
    seed: int | None = None,
    check_interval: int | None = None,
) -> float | None:
    """Parallel time until some agent terminates, for one simulated run.

    Returns ``None`` when no agent terminated within ``max_parallel_time``
    (for well-behaved protocols — leader-driven termination — this simply
    means the budget was too small; for the theorem's experiment it should not
    happen for uniform dense protocols once ``n`` is moderate).
    """
    simulation = Simulation(
        protocol=protocol_factory(), population_size=population_size, seed=seed
    )

    def some_agent_terminated(sim: Simulation) -> bool:
        return spec.population_terminated(sim.states)

    try:
        return simulation.run_until(
            some_agent_terminated,
            max_parallel_time=max_parallel_time,
            check_interval=check_interval,
        )
    except ConvergenceError:
        return None


def termination_time_sweep(
    protocol_factory: Callable[[], AgentProtocol],
    spec: TerminationSpec,
    population_sizes: Sequence[int],
    runs_per_size: int = 5,
    max_parallel_time: float = 200.0,
    seed: int = 0,
    check_interval: int | None = None,
) -> list[TerminationTimeObservation]:
    """Measure termination times across population sizes.

    Parameters
    ----------
    protocol_factory:
        Zero-argument callable building a fresh protocol instance per run
        (important for protocol objects holding mutable configuration).
    spec:
        Which states count as terminated.
    population_sizes:
        The sweep over ``n``.
    runs_per_size:
        Independent runs per size (different seeds).
    max_parallel_time:
        Per-run budget; runs exceeding it are recorded as failures.
    seed:
        Base seed; run ``j`` at size index ``i`` uses
        :func:`repro.rng.spawn_seed`\\ ``(seed, i, j)`` (collision-free).
    """
    if runs_per_size < 1:
        raise TerminationSpecError(f"runs_per_size must be >= 1, got {runs_per_size}")
    if not 0 < max_parallel_time < math.inf:
        raise TerminationSpecError(
            f"max_parallel_time must be positive and finite, got {max_parallel_time}"
        )
    observations = []
    for size_index, population_size in enumerate(population_sizes):
        times: list[float] = []
        failures = 0
        for run_index in range(runs_per_size):
            run_seed = spawn_seed(seed, size_index, run_index)
            elapsed = measure_termination_time(
                protocol_factory,
                spec,
                population_size,
                max_parallel_time=max_parallel_time,
                seed=run_seed,
                check_interval=check_interval,
            )
            if elapsed is None:
                failures += 1
            else:
                times.append(elapsed)
        observations.append(
            TerminationTimeObservation(
                population_size=population_size,
                times=tuple(times),
                failures=failures,
            )
        )
    return observations


def growth_ratio(observations: Sequence[TerminationTimeObservation]) -> float | None:
    """Ratio of mean termination time at the largest vs smallest population.

    For a uniform dense protocol Theorem 4.1 predicts this ratio stays ``O(1)``
    (empirically close to 1); for leader-driven or nonuniform protocols it
    grows with the size ratio.  Returns ``None`` if either endpoint had no
    successful runs.
    """
    if len(observations) < 2:
        return None
    first = observations[0].mean_time
    last = observations[-1].mean_time
    if first is None or last is None or first == 0:
        return None
    return last / first
