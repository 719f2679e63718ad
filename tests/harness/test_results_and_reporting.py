"""Tests for result records, summaries and the text renderers."""

from __future__ import annotations

import math

import pytest

from repro.harness.reporting import (
    format_cell,
    format_key_values,
    format_table,
    render_ascii_series,
)
from repro.harness.results import RunRecord, SeriesSummary, SweepResult


def _record(n: int, seed: int, time: float | None, error: float = 1.0) -> RunRecord:
    return RunRecord(
        population_size=n,
        seed=seed,
        converged=time is not None,
        convergence_time=time,
        max_additive_error=error,
    )


class TestSeriesSummary:
    def test_from_values(self):
        summary = SeriesSummary.from_values([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_single_value_has_zero_stdev(self):
        assert SeriesSummary.from_values([5.0]).stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeriesSummary.from_values([])


class TestSweepResult:
    def _sweep(self) -> SweepResult:
        return SweepResult(
            records=[
                _record(100, 0, 10.0, error=1.0),
                _record(100, 1, 12.0, error=2.0),
                _record(100, 2, None, error=math.nan),
                _record(200, 0, 20.0, error=0.5),
            ]
        )

    def test_population_sizes_sorted(self):
        assert self._sweep().population_sizes() == [100, 200]

    def test_convergence_times_exclude_failures(self):
        assert self._sweep().convergence_times(100) == [10.0, 12.0]

    def test_summary_by_size(self):
        summaries = self._sweep().summary_by_size()
        assert summaries[100].mean == pytest.approx(11.0)
        assert summaries[200].count == 1

    def test_error_summary_skips_nan(self):
        errors = self._sweep().error_summary_by_size()
        assert errors[100].maximum == 2.0

    def test_convergence_rate(self):
        sweep = self._sweep()
        assert sweep.convergence_rate(100) == pytest.approx(2 / 3)
        assert sweep.convergence_rate(999) == 0.0


class TestReporting:
    def test_format_cell_variants(self):
        assert format_cell(None) == "-"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(123456.0) == "1.23e+05"
        assert format_cell("text") == "text"

    def test_format_table_alignment_and_content(self):
        table = format_table(["n", "time"], [[100, 1.5], [10_000, 22.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "n" in lines[0] and "time" in lines[0]
        assert "10000" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_render_ascii_series_shape(self):
        text = render_ascii_series(
            [100, 1_000, 10_000], [10.0, 20.0, 30.0], width=30, height=6, log_x=True
        )
        lines = text.splitlines()
        assert len(lines) == 6 + 3  # header + grid + axis line + label line
        assert any("*" in line for line in lines)
        assert "log scale" in lines[-1]

    def test_render_ascii_series_validation(self):
        with pytest.raises(ValueError):
            render_ascii_series([], [], width=30, height=6)
        with pytest.raises(ValueError):
            render_ascii_series([1], [1.0], width=5, height=2)

    def test_format_key_values(self):
        text = format_key_values({"alpha": 1.5, "beta": None})
        assert "alpha" in text and "1.500" in text and "-" in text
        assert format_key_values({}) == "(empty)"
