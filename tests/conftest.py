"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import math
import sqlite3

import pytest

from repro.core.parameters import ProtocolParameters
from repro.engine.vector import VectorSimulator
from repro.exceptions import ConvergenceError
from repro.harness.results import RunRecord
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


def _values_equal(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) and math.isnan(right):
            return True
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _values_equal(left[key], right[key]) for key in left
        )
    return left == right


@pytest.fixture(scope="session")
def records_equal():
    """``records_equal(left, right)``: field-wise :class:`RunRecord`
    equality that treats ``NaN == NaN``.

    Plain ``==`` on records is unreliable across process or serialisation
    boundaries: ``NaN`` compares unequal to itself once the two sides stop
    being the *same object* (records returned by pool workers are unpickled
    copies; records replayed from a store are rebuilt from JSON).
    """

    def equal(left: RunRecord, right: RunRecord) -> bool:
        return all(
            _values_equal(getattr(left, name), getattr(right, name))
            for name in (
                "population_size",
                "seed",
                "converged",
                "convergence_time",
                "max_additive_error",
                "extra",
            )
        )

    return equal
