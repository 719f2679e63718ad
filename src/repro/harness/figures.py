"""Reproduction of Figure 2: convergence time of ``Log-Size-Estimation`` vs ``n``.

Figure 2 of the paper (Appendix C) plots, for population sizes
``10^2 .. 10^5`` (10 runs each), the parallel time at which all agents reach
``epoch = 5 * logSize2``; the paper notes the estimate is within additive
error 2 of ``log2 n`` in every run.  The population axis is logarithmic, so
the ``O(log^2 n)`` bound appears as a gently super-linear curve.

:func:`reproduce_figure2` runs the same sweep as the ``figure2`` workload's
trials on the vectorised engine (the sequential engine is too slow beyond
~10^3 agents in pure Python; see ``DESIGN.md``), returning per-size
statistics plus the raw points, a CSV export and an ASCII rendering of the
scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.array_simulator import expected_convergence_time
from repro.core.parameters import ProtocolParameters
from repro.harness.parallel import get_workload, run_trials
from repro.harness.reporting import (
    PHASE_ORDER,
    format_table,
    phase_breakdown,
    render_ascii_series,
)
from repro.obs.manifest import TELEMETRY_KEY
from repro.harness.results import SeriesSummary, SweepResult


@dataclass(frozen=True)
class Figure2Point:
    """One run of the Figure 2 sweep.

    ``convergence_time`` is ``NaN`` (and ``converged`` is ``False``) for a
    run that exhausted its budget; such runs appear only in
    :attr:`Figure2Result.non_converged_points`.

    ``timing`` carries the run's telemetry timing breakdown (seconds per
    recorder timer) when the sweep ran with telemetry enabled, else ``None``.
    """

    population_size: int
    seed: int
    convergence_time: float
    max_additive_error: float
    converged: bool = True
    timing: dict | None = None


@dataclass
class Figure2Result:
    """The reproduced Figure 2 data set.

    ``points`` holds the converged runs (the plotted quantity is their
    convergence time); non-converged runs are *not* silently dropped — they
    are kept in ``non_converged_points`` and reported per size by
    :meth:`non_converged_by_size`, the ``non-conv`` column of
    :meth:`table` and the ``converged`` column of :meth:`to_csv`.
    """

    points: list[Figure2Point]
    summaries: dict[int, SeriesSummary]
    params: ProtocolParameters
    non_converged_runs: int
    non_converged_points: list[Figure2Point] = field(default_factory=list)

    def sizes(self) -> list[int]:
        """Population sizes present, ascending (converged or not)."""
        return sorted(
            set(self.summaries)
            | {point.population_size for point in self.non_converged_points}
        )

    def non_converged_by_size(self) -> dict[int, int]:
        """Number of non-converged runs at each population size."""
        counts = {size: 0 for size in self.sizes()}
        for point in self.non_converged_points:
            counts[point.population_size] += 1
        return counts

    def mean_times(self) -> list[float]:
        """Mean convergence time per size (``NaN`` where no run converged)."""
        return [
            self.summaries[size].mean if size in self.summaries else math.nan
            for size in self.sizes()
        ]

    def max_error_observed(self) -> float:
        """Largest additive error over every run (paper: always below 2)."""
        if not self.points:
            return math.nan
        return max(point.max_additive_error for point in self.points)

    def timing_phases(self) -> list[str]:
        """Per-phase timing columns present in this sweep's telemetry.

        Empty when the sweep ran without telemetry, so existing tables and
        CSV exports are byte-identical to the pre-telemetry format.
        """
        present: set[str] = set()
        for point in self.points + self.non_converged_points:
            present.update(phase_breakdown(point.timing))
        return [phase for phase in PHASE_ORDER if phase in present]

    def table(self) -> str:
        """Aligned text table: size, runs, non-converged, time stats, max error.

        ``runs`` counts only the converged runs feeding the time statistics;
        ``non-conv`` makes budget-exhausted runs visible instead of letting
        the ``runs`` column quietly shrink below the requested
        ``runs_per_size``.  Sweeps run with telemetry enabled gain one
        ``mean <phase> s`` column per recorded phase (draw vs apply vs
        convergence check wall time, averaged over the size's runs).
        """
        non_converged = self.non_converged_by_size()
        phases = self.timing_phases()
        rows = []
        for size in self.sizes():
            summary = self.summaries.get(size)
            size_points = [
                point
                for point in self.points + self.non_converged_points
                if point.population_size == size
            ]
            errors = [
                point.max_additive_error
                for point in size_points
                if point.converged
            ]
            row = [
                size,
                summary.count if summary else 0,
                non_converged[size],
                summary.mean if summary else math.nan,
                summary.minimum if summary else math.nan,
                summary.maximum if summary else math.nan,
                max(errors) if errors else math.nan,
            ]
            for phase in phases:
                values = [
                    phase_breakdown(point.timing)[phase]
                    for point in size_points
                    if phase in phase_breakdown(point.timing)
                ]
                row.append(sum(values) / len(values) if values else None)
            rows.append(row)
        headers = [
            "n",
            "runs",
            "non-conv",
            "mean time",
            "min time",
            "max time",
            "max |err|",
        ] + [f"mean {phase} s" for phase in phases]
        return format_table(headers, rows)

    def ascii_plot(self) -> str:
        """Coarse ASCII scatter matching the paper's log-x convergence plot."""
        xs = [float(point.population_size) for point in self.points]
        ys = [point.convergence_time for point in self.points]
        if not xs:
            return "(no converged runs to plot)"
        return render_ascii_series(
            xs,
            ys,
            x_label="population size n",
            y_label="convergence time (parallel)",
            log_x=True,
        )

    def to_csv(self) -> str:
        """CSV of the raw points, non-converged runs included.

        Non-converged runs appear as rows with ``converged=False`` and an
        empty ``convergence_time`` (so per-size non-converged counts are
        part of the export rather than an invisible shortfall), after the
        converged points, both in sweep order.

        When at least one point carries a telemetry timing breakdown, one
        ``<phase>_seconds`` column per recorded phase is appended; runs
        without telemetry leave those cells empty.  Without telemetry the
        header is exactly the historical five-column format.
        """
        phases = self.timing_phases()
        header = "population_size,seed,converged,convergence_time,max_additive_error"
        for phase in phases:
            header += f",{phase}_seconds"
        lines = [header]
        for point in self.points + self.non_converged_points:
            time_text = (
                "" if math.isnan(point.convergence_time) else point.convergence_time
            )
            error = point.max_additive_error
            error_text = "" if not math.isfinite(error) else error
            row = (
                f"{point.population_size},{point.seed},{point.converged},"
                f"{time_text},{error_text}"
            )
            if phases:
                breakdown = phase_breakdown(point.timing)
                for phase in phases:
                    value = breakdown.get(phase)
                    row += "," if value is None else f",{value:.9f}"
            lines.append(row)
        return "\n".join(lines)

    def growth_exponent(self) -> float | None:
        """Least-squares slope of ``time`` against ``log2(n)^2``.

        The paper's bound is ``O(log^2 n)``; a roughly constant positive slope
        (rather than one growing with ``n``) indicates the measured times
        scale like ``log^2 n``.  Returns ``None`` with fewer than two sizes
        that have at least one converged run.
        """
        sizes = [size for size in self.sizes() if size in self.summaries]
        if len(sizes) < 2:
            return None
        xs = [math.log2(size) ** 2 for size in sizes]
        ys = [self.summaries[size].mean for size in sizes]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        denominator = sum((x - mean_x) ** 2 for x in xs)
        if denominator == 0:
            return None
        return numerator / denominator


def reproduce_figure2(
    population_sizes: Sequence[int],
    runs_per_size: int = 3,
    params: ProtocolParameters | None = None,
    base_seed: int = 2019,
    time_budget_factor: float = 4.0,
) -> Figure2Result:
    """Run the Figure 2 sweep on the vectorised engine.

    Parameters
    ----------
    population_sizes:
        Sizes to sweep (the paper uses ``10^2 .. 10^5``; benchmarks default to
        a smaller grid — see ``benchmarks/bench_figure2_convergence.py``).
    runs_per_size:
        Independent runs per size (paper: 10).
    params:
        Protocol constants (paper values by default).
    base_seed:
        Base seed for reproducibility.
    time_budget_factor:
        Safety factor over the a-priori convergence-time estimate.
    """
    params = params or ProtocolParameters.paper()
    specs = get_workload("figure2").trials(
        population_sizes, runs_per_size, params=params, base_seed=base_seed,
        max_parallel_time=lambda n: (
            time_budget_factor * expected_convergence_time(n, params)
        ),
    )
    return figure2_from_sweep(run_trials(specs), params)


def figure2_from_sweep(sweep: SweepResult, params: ProtocolParameters) -> Figure2Result:
    """Convert a sweep (from either engine) into a :class:`Figure2Result`."""
    points = []
    non_converged_points = []
    for record in sweep.records:
        telemetry = record.extra.get(TELEMETRY_KEY) if record.extra else None
        timing = telemetry.get("timing") if isinstance(telemetry, dict) else None
        if record.converged and record.convergence_time is not None:
            points.append(
                Figure2Point(
                    population_size=record.population_size,
                    seed=record.seed,
                    convergence_time=record.convergence_time,
                    max_additive_error=record.max_additive_error,
                    timing=timing,
                )
            )
        else:
            non_converged_points.append(
                Figure2Point(
                    population_size=record.population_size,
                    seed=record.seed,
                    convergence_time=math.nan,
                    max_additive_error=record.max_additive_error,
                    converged=False,
                    timing=timing,
                )
            )
    return Figure2Result(
        points=points,
        summaries=sweep.summary_by_size(),
        params=params,
        non_converged_runs=len(non_converged_points),
        non_converged_points=non_converged_points,
    )
