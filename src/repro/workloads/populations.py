"""Population-size lists for sweeps: parsed from the CLI's ``--sizes`` and
from the environment variables the benchmarks read (see ``benchmarks/``)."""

from __future__ import annotations

import os
from typing import Sequence

from repro.exceptions import ConfigurationError


def parse_size_list(raw: str) -> list[int]:
    """Parse a comma-separated size list (used by the CLI and env overrides)."""
    try:
        sizes = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as error:
        raise ConfigurationError(f"invalid size list {raw!r}") from error
    if not sizes or any(size < 2 for size in sizes):
        raise ConfigurationError(f"size list must contain integers >= 2, got {raw!r}")
    return sizes


def sizes_from_env(variable: str, default: Sequence[int]) -> list[int]:
    """Read a size list from an environment variable, falling back to ``default``.

    Benchmarks use this so that ``REPRO_FIG2_SIZES=100,1000,10000 pytest
    benchmarks/`` scales the sweep up without editing code.
    """
    raw = os.environ.get(variable)
    if not raw:
        return list(default)
    return parse_size_list(raw)
