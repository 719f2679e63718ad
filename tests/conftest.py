"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.parameters import ProtocolParameters
from repro.engine.vector import VectorSimulator
from repro.exceptions import ConvergenceError
from repro.rng import RandomSource


@pytest.fixture
def fast_params() -> ProtocolParameters:
    """Scaled-down protocol constants so simulation tests stay fast."""
    return ProtocolParameters.fast_test()


@pytest.fixture
def moderate_params() -> ProtocolParameters:
    """Intermediate constants for integration tests."""
    return ProtocolParameters.moderate()


@pytest.fixture
def paper_params() -> ProtocolParameters:
    """The paper's constants (used only by small or slow-marked tests)."""
    return ProtocolParameters.paper()


@pytest.fixture
def rng() -> RandomSource:
    """A seeded random source."""
    return RandomSource(seed=12345)


@pytest.fixture(scope="session")
def run_to_done():
    """``run_to_done(simulator, max_parallel_time)`` runs a vector-engine
    kernel to its own convergence condition and returns the kernel's
    ``result_extra`` plus ``convergence_time`` (``None`` when the budget ran
    out)."""

    def run(simulator: VectorSimulator, max_parallel_time: float) -> dict:
        try:
            time = simulator.run_until(VectorSimulator.all_done, max_parallel_time)
        except ConvergenceError:
            time = None
        return {
            "convergence_time": time,
            **simulator.protocol.result_extra(simulator.fields),
        }

    return run


@pytest.fixture(scope="session")
def stored_lines():
    """``stored_lines(path)``: the results of the SQLite store at ``path``
    as JSON lines, in append order, each ``{"key": ..., "record": ...}``
    formatted as the JSONL caches of earlier versions (and the golden
    fixtures) hold them."""

    def lines(path) -> list[str]:
        connection = sqlite3.connect(path)
        try:
            rows = connection.execute(
                "SELECT key, record FROM results ORDER BY rowid"
            ).fetchall()
        finally:
            connection.close()
        return [
            f'{{"key": {json.dumps(key)}, "record": {record}}}'
            for key, record in rows
        ]

    return lines
