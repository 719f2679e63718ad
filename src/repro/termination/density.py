"""Empirical verification of the timer/density lemma (Lemma 4.2).

Lemma 4.2 states: for every ``alpha``, ``m``, ``rho`` there are constants
``epsilon``, ``delta``, ``n_0`` such that from every ``alpha``-dense
configuration of size ``n >= n_0``, with probability at least ``1 - 2^{-eps n}``,
*every* ``m``-``rho``-producible state has count at least ``delta n`` at
parallel time 1.

The experiment here makes that statement measurable for concrete finite-state
protocols: it instantiates a dense initial family at several population sizes,
runs the count-based engine for one unit of parallel time, and records, for
every producible state, the count reached (as a fraction of ``n``) and the
first time the state reached a ``delta n`` threshold.  The paper's claim
corresponds to the observed fractions being bounded away from zero uniformly
in ``n`` — which benchmark ``T-DENSE`` tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.engine.count_simulator import CountSimulator
from repro.exceptions import TerminationSpecError
from repro.protocols.base import FiniteStateProtocol
from repro.termination.definitions import DenseInitialFamily
from repro.termination.producibility import ProducibilityAnalysis


@dataclass(frozen=True)
class DensityObservation:
    """Counts observed for the producible states after one unit of time.

    Attributes
    ----------
    population_size:
        ``n`` for this run.
    observation_time:
        The parallel time at which counts were read (1.0 by default).
    fractions:
        Mapping from producible state to ``count / n`` at the observation time.
    min_fraction:
        The minimum over producible states (the empirical ``delta``).
    first_reach_times:
        Mapping from producible state to the first sampled parallel time at
        which its count reached ``threshold_fraction * n`` (``None`` if never).
    threshold_fraction:
        The ``delta`` used for ``first_reach_times``.
    """

    population_size: int
    observation_time: float
    fractions: dict[Hashable, float]
    min_fraction: float
    first_reach_times: dict[Hashable, float | None]
    threshold_fraction: float


def density_trajectory(
    protocol: FiniteStateProtocol,
    family: DenseInitialFamily,
    population_size: int,
    observation_time: float = 1.0,
    threshold_fraction: float = 0.01,
    samples: int = 20,
    seed: int | None = None,
    rho: float = 1e-9,
) -> DensityObservation:
    """Run one density experiment and summarise it.

    Parameters
    ----------
    protocol:
        The finite-state protocol under test.
    family:
        The dense initial family (its instantiation at ``population_size``
        must be ``family.alpha``-dense).
    population_size:
        ``n``.
    observation_time:
        How long to run (Lemma 4.2 uses parallel time 1).
    threshold_fraction:
        The ``delta`` for which first-reach times are recorded.
    samples:
        Number of trajectory snapshots over the run.
    seed:
        Randomness seed.
    rho:
        Rate threshold for the producibility closure.
    """
    if observation_time <= 0:
        raise TerminationSpecError(
            f"observation_time must be positive, got {observation_time}"
        )
    if not 0.0 < threshold_fraction < 1.0:
        raise TerminationSpecError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction}"
        )
    initial_configuration = family.instantiate(population_size)
    analysis = ProducibilityAnalysis(protocol)
    producible = analysis.closure(
        initial_configuration.states_present(), rho=rho
    ).closure

    simulator = CountSimulator(
        protocol,
        population_size,
        seed=seed,
        initial_configuration=initial_configuration,
    )
    trace = simulator.run_with_trace(observation_time, samples=samples)

    threshold = threshold_fraction * population_size
    first_reach: dict[Hashable, float | None] = {}
    for state in producible:
        reached: float | None = None
        for point in trace:
            if point.configuration.count(state) >= threshold:
                reached = point.parallel_time
                break
        first_reach[state] = reached

    final = trace[-1].configuration
    fractions = {
        state: final.count(state) / population_size for state in producible
    }
    min_fraction = min(fractions.values()) if fractions else 0.0
    return DensityObservation(
        population_size=population_size,
        observation_time=trace[-1].parallel_time,
        fractions=fractions,
        min_fraction=min_fraction,
        first_reach_times=first_reach,
        threshold_fraction=threshold_fraction,
    )
