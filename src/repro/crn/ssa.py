"""Exact stochastic simulation (Gillespie direct method) of a CRN.

The engines simulate a lowered CRN through interaction sampling; this module
simulates the *same* continuous-time Markov chain directly on species
counts, one exponential holding time and one reaction per step.  It exists
as the ground truth the engine lowerings are validated against
(``tests/crn/test_cross_engine_crn.py``, ``tests/crn/test_multiscale.py``,
``benchmarks/bench_crn_kinetics.py``).

Propensities follow the convention of :mod:`repro.crn.model` (interaction
volume ``v = (n - 1) / 2``), which is exactly the chain the uniform lowering
realises after its ``Gamma`` time rescale: sampling the SSA at chemical time
``t`` corresponds to sampling an engine at parallel time ``Gamma * t``.

Per-event work is incremental: a compiled dependency graph maps each
reaction to the propensities its firing invalidates, so only those are
recomputed (the classic "next reaction"-style optimisation, applied to the
direct method).  The optimisation is stream-preserving by construction —
every recomputed propensity uses the exact floating-point expression of the
naive full recomputation, the total is re-summed in reaction order, and the
generator is consumed one ``exponential`` (plus, per fired event, one
``random``) at a time — so trajectories are bit-for-bit identical to the
pre-optimisation implementation for any (network, n, seed).
``tests/crn/test_ssa_golden.py`` pins that stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crn.model import CRN
from repro.exceptions import SimulationError
from repro.obs.recorder import RECORDER as _REC

__all__ = ["SSAResult", "simulate_ssa"]


@dataclass(frozen=True)
class SSAResult:
    """One exact SSA trajectory, sampled at fixed chemical times.

    Attributes
    ----------
    sample_times:
        The requested chemical times, ascending.
    counts:
        ``counts[species][i]`` is the count of ``species`` at
        ``sample_times[i]``.
    final_time:
        Chemical time reached (the last sample time, or the absorption
        time if the chain died earlier — counts are constant from there on).
    reactions_fired:
        Total reaction events executed.
    absorbed:
        Whether the chain reached a configuration with zero total
        propensity before the last sample time.
    """

    sample_times: tuple[float, ...]
    counts: dict[str, tuple[int, ...]]
    final_time: float
    reactions_fired: int
    absorbed: bool

    def at(self, index: int) -> dict[str, int]:
        """The sampled configuration at ``sample_times[index]``."""
        return {species: values[index] for species, values in self.counts.items()}


def simulate_ssa(
    crn: CRN,
    population_size: int,
    sample_times: Sequence[float],
    seed: int | None = None,
) -> SSAResult:
    """Run one exact Gillespie trajectory of ``crn`` at ``population_size``.

    The chain starts from ``crn.initial_counts(population_size)`` and is
    sampled at the given ascending chemical times.
    """
    times = [float(t) for t in sample_times]
    if not times or any(t < 0 for t in times) or sorted(times) != times:
        raise SimulationError(
            f"sample_times must be non-empty, non-negative and ascending, "
            f"got {sample_times!r}"
        )
    telemetry_t0 = _REC.now_ns()
    rng = np.random.default_rng(seed)
    species = crn.species()
    index = {name: position for position, name in enumerate(species)}
    counts = [0] * len(species)
    for name, count in crn.initial_counts(population_size).items():
        counts[index[name]] = count
    volume = (population_size - 1) / 2.0

    # Compile the network once: per-reaction propensity descriptors, sparse
    # net stoichiometry, and the dependency graph (reaction j fired ->
    # propensities to recompute).  UNI/DIAG/PAIR keep the *exact*
    # floating-point expressions of the naive per-event recomputation (see
    # the module docstring: the RNG stream is pinned).
    UNI, DIAG, PAIR = 0, 1, 2
    table: list[tuple[int, int, int, float]] = []
    net_changes: list[list[tuple[int, int]]] = []
    for reaction in crn.reactions:
        reactant_idx = tuple(index[name] for name in reaction.reactants)
        product_idx = tuple(index[name] for name in reaction.products)
        if reaction.is_unimolecular:
            table.append((UNI, reactant_idx[0], reactant_idx[0], reaction.rate))
        else:
            a, b = reactant_idx
            table.append((DIAG if a == b else PAIR, a, b, reaction.rate))
        net: dict[int, int] = {}
        for position in reactant_idx:
            net[position] = net.get(position, 0) - 1
        for position in product_idx:
            net[position] = net.get(position, 0) + 1
        net_changes.append(
            [(position, change) for position, change in net.items() if change]
        )
    depends: list[list[int]] = [[] for _ in species]
    for number, (_, a, b, _) in enumerate(table):
        depends[a].append(number)
        if b != a:
            depends[b].append(number)
    affected: list[tuple[int, ...]] = [
        tuple(
            sorted(
                {
                    dependent
                    for position, _ in changes
                    for dependent in depends[position]
                }
            )
        )
        for changes in net_changes
    ]

    def propensity(number: int) -> float:
        mode, a, b, rate = table[number]
        if mode == UNI:
            return rate * counts[a]
        if mode == DIAG:
            return rate * counts[a] * (counts[a] - 1) / (2.0 * volume)
        return rate * counts[a] * counts[b] / volume

    propensities = [propensity(number) for number in range(len(table))]
    last = len(table) - 1
    samples: list[list[int]] = []
    now = 0.0
    fired = 0
    absorbed = False
    cursor = 0
    while cursor < len(times):
        # Re-summed in reaction order each event so the value (and hence
        # every RNG draw) matches a full recomputation bit-for-bit.
        total = sum(propensities)
        if total <= 0.0:
            absorbed = True
            break
        step = rng.exponential(1.0 / total)
        while cursor < len(times) and now + step > times[cursor]:
            samples.append(list(counts))
            cursor += 1
        now += step
        if cursor >= len(times):
            now = times[-1]
            break
        draw = rng.random() * total
        cumulative = 0.0
        chosen = last
        for number, value in enumerate(propensities):
            cumulative += value
            if draw < cumulative:
                chosen = number
                break
        for position, change in net_changes[chosen]:
            counts[position] += change
        for number in affected[chosen]:
            propensities[number] = propensity(number)
        fired += 1
    while cursor < len(times):
        # Absorbed (or exactly exhausted): the configuration is frozen.
        samples.append(list(counts))
        cursor += 1

    # Post-hoc accounting only: the event loop above never reads a clock,
    # so the exact trajectory (and RNG stream) is telemetry-free.
    _REC.add_time("ssa.simulate", _REC.now_ns() - telemetry_t0)
    _REC.count("ssa.runs")
    _REC.count("ssa.reactions_fired", fired)
    return SSAResult(
        sample_times=tuple(times),
        counts={
            name: tuple(sample[position] for sample in samples)
            for name, position in index.items()
        },
        final_time=min(now, times[-1]) if not absorbed else now,
        reactions_fired=fired,
        absorbed=absorbed,
    )
