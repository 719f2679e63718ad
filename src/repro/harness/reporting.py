"""Plain-text rendering of tables and series.

Everything the harness reports is plain text (no plotting dependencies are
available offline), rendered either as aligned tables or as a coarse ASCII
scatter/line chart — enough to eyeball Figure 2's shape directly in a
terminal.
"""

from __future__ import annotations

import math
from typing import Sequence


#: Canonical per-phase column order for telemetry timing breakdowns.
PHASE_ORDER = ("draw", "apply", "check", "total")

#: Recorder timer names feeding each phase column.  ``apply`` falls back to
#: ``engine.step`` for the count-level engines, whose fused kernels do the
#: draw and the apply in one timed region.
_PHASE_SOURCES = {
    "draw": ("scheduler.draw_round",),
    "apply": ("engine.apply_round", "engine.step"),
    "check": ("engine.convergence_check",),
    "total": ("total",),
}


def phase_breakdown(timing) -> dict[str, float]:
    """Map a recorder timing dict onto the canonical per-phase columns.

    ``timing`` is the ``timing`` section of a run manifest
    (``record.extra["telemetry"]["timing"]``, seconds per recorder timer).
    Returns ``{phase: seconds}`` with only the phases the engine actually
    reported — the vector engine splits draw vs apply, count engines report
    one fused ``engine.step``, and every instrumented run-loop reports the
    convergence-check share.
    """
    if not timing:
        return {}
    breakdown: dict[str, float] = {}
    for phase in PHASE_ORDER:
        for source in _PHASE_SOURCES[phase]:
            value = timing.get(source)
            if value is not None:
                breakdown[phase] = float(value)
                break
    return breakdown


def format_cell(value) -> str:
    """Render one table cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned plain-text table.

    Parameters
    ----------
    headers:
        Column titles.
    rows:
        Row values; each row must have the same length as ``headers``.
    """
    rendered_rows = [[format_cell(value) for value in row] for row in rows]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered_rows)) if rendered_rows else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_ascii_series(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    log_x: bool = False,
) -> str:
    """Render a coarse ASCII scatter of ``ys`` against ``xs``.

    Used by the CLI to show the Figure 2 shape without a plotting library.  ``log_x=True`` reproduces the paper's logarithmic
    population-size axis.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be non-empty and of equal length")
    if width < 10 or height < 4:
        raise ValueError("width must be >= 10 and height >= 4")

    def x_transform(value: float) -> float:
        return math.log10(value) if log_x else value

    tx = [x_transform(x) for x in xs]
    x_min, x_max = min(tx), max(tx)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(tx, ys):
        column = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        grid[height - 1 - row][column] = "*"

    lines = [f"{y_label} (max {format_cell(y_max)}, min {format_cell(y_min)})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    axis = f"{x_label}: {format_cell(min(xs))} .. {format_cell(max(xs))}"
    if log_x:
        axis += " (log scale)"
    lines.append(axis)
    return "\n".join(lines)


def format_key_values(pairs: dict) -> str:
    """Render a dictionary as aligned ``key: value`` lines."""
    if not pairs:
        return "(empty)"
    width = max(len(str(key)) for key in pairs)
    return "\n".join(
        f"{str(key).ljust(width)} : {format_cell(value)}" for key, value in pairs.items()
    )
