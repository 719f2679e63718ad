"""Result records and summary statistics for experiment sweeps."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class RunRecord:
    """One simulated run of one protocol at one population size.

    Attributes
    ----------
    population_size:
        ``n`` for this run.
    seed:
        Seed used (for reproducibility of individual points).
    converged:
        Whether the run's convergence condition was met within its budget.
    convergence_time:
        Parallel time at convergence (``None`` if it did not converge).
    max_additive_error:
        Maximum ``|estimate - log2 n|`` over agents at the end of the run
        (``NaN`` when not applicable).
    extra:
        Free-form per-run metrics (state counts, logSize2, ...).
    """

    population_size: int
    seed: int
    converged: bool
    convergence_time: float | None
    max_additive_error: float = math.nan
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesSummary:
    """Aggregate statistics of one metric over repeated runs."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SeriesSummary":
        """Summarise a non-empty sequence of values."""
        if not values:
            raise ValueError("cannot summarise an empty series")
        return cls(
            count=len(values),
            mean=statistics.fmean(values),
            stdev=statistics.pstdev(values) if len(values) > 1 else 0.0,
            minimum=min(values),
            maximum=max(values),
        )


@dataclass
class SweepResult:
    """What :func:`~repro.harness.parallel.run_trials` returns: the sweep's
    records plus their provenance, with summaries by population size.

    Attributes
    ----------
    records:
        One :class:`RunRecord` per input spec, in input order — identical
        regardless of ``workers`` or how many drivers share the store.
    executed:
        Unique trials actually simulated *by this driver* in this
        invocation (specs sharing a cache key run once).
    from_cache:
        Trials replayed from the result store (including trials another
        concurrent driver finished while this one was running).
    executed_keys:
        Store keys of the trials this driver simulated itself, in
        completion order.  Lets distributed tests assert exactly-once
        execution: two drivers sharing a store must report *disjoint* key
        sets.
    """

    records: list[RunRecord] = field(default_factory=list)
    executed: int = 0
    from_cache: int = 0
    executed_keys: list[str] = field(default_factory=list)

    def population_sizes(self) -> list[int]:
        """Distinct population sizes in ascending order."""
        return sorted({record.population_size for record in self.records})

    def records_for(self, population_size: int) -> list[RunRecord]:
        """All records at one population size."""
        return [
            record
            for record in self.records
            if record.population_size == population_size
        ]

    def convergence_times(self, population_size: int) -> list[float]:
        """Convergence times of the converged runs at one size."""
        return [
            record.convergence_time
            for record in self.records_for(population_size)
            if record.converged and record.convergence_time is not None
        ]

    def summary_by_size(self) -> dict[int, SeriesSummary]:
        """Convergence-time summaries keyed by population size."""
        summaries = {}
        for size in self.population_sizes():
            times = self.convergence_times(size)
            if times:
                summaries[size] = SeriesSummary.from_values(times)
        return summaries

    def error_summary_by_size(self) -> dict[int, SeriesSummary]:
        """Additive-error summaries keyed by population size."""
        summaries = {}
        for size in self.population_sizes():
            errors = [
                record.max_additive_error
                for record in self.records_for(size)
                if not math.isnan(record.max_additive_error)
            ]
            if errors:
                summaries[size] = SeriesSummary.from_values(errors)
        return summaries

    def convergence_rate(self, population_size: int) -> float:
        """Fraction of runs at one size that converged."""
        records = self.records_for(population_size)
        if not records:
            return 0.0
        return sum(record.converged for record in records) / len(records)
