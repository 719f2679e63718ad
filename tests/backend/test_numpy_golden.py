"""Bitwise stream-preservation of the numpy backend against recorded runs.

``golden_streams.json`` was captured from the pre-seam engines (inline hot
loops, before :mod:`repro.backend` existed): per-case checkpoints of the
configuration, the interaction/batch counters and the states seen, plus the
*next draw* of the engine generator after the run — a direct probe of the
RNG stream position.  The numpy backend contracts to reproduce all of it
bitwise; any refactor of the reference kernels that reorders, adds or drops
a single draw fails here.  The batched cases replay on the native backend
too, whose C kernel makes the same draws.

The cases deliberately cover every kernel code path: pure batched runs, the
small-count exact fallback, the consumption-guard fallback, disabled
thresholds and the state-weighted (rate-scaled) policy, plus vector-engine
rounds.  The vector runs under the ``weighted`` (rate thinning),
``two-block`` and ``quiescing`` round schedulers and the multiscale run
(exact events and tau-leaps) were captured later, before the finite-state
round, the thinning draw and the tau-leap moved out of the backends into
the engines that run them.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.backend.native_backend import NativeBackend
from repro.crn.multiscale import MultiscaleSimulator
from repro.engine.batched_simulator import BatchedCountSimulator
from repro.engine.scheduler import SchedulerSpec
from repro.engine.vector import VectorFiniteStateSimulator
from repro.protocols.epidemic import EpidemicProtocol
from repro.protocols.leader_election import FiniteStatePairwiseElimination
from repro.protocols.majority import ApproximateMajorityProtocol

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_streams.json")

#: Construction parameters of every recorded case, keyed like the fixture.
BATCHED_CASES = {
    "epidemic_n1000_seed3": (EpidemicProtocol, 1000, 3, {}),
    "majority_n2000_seed42": (ApproximateMajorityProtocol, 2000, 42, {}),
    "leader_n300_seed6": (FiniteStatePairwiseElimination, 300, 6, {}),
    "leader_n6_seed10_smallcount": (
        FiniteStatePairwiseElimination, 6, 10, {"small_count_threshold": 8},
    ),
    "epidemic_weighted_n2000_seed3": (
        EpidemicProtocol, 2000, 3,
        {"scheduler": SchedulerSpec("state-weighted", (("rates", (("I", 0.25),)),))},
    ),
    "epidemic_n1000_seed11_nofallback": (
        EpidemicProtocol, 1000, 11, {"small_count_threshold": 0},
    ),
    "majority_n40_seed12_guard": (
        ApproximateMajorityProtocol, 40, 12,
        {"batch_size": 30, "small_count_threshold": 0},
    ),
}

VECTOR_CASES = {
    "vector_epidemic_n500_seed7": (EpidemicProtocol, 500, 7, "matching"),
    "vector_majority_n300_seed9": (ApproximateMajorityProtocol, 300, 9, "matching"),
    "vector_epidemic_weighted_n500_seed7": (EpidemicProtocol, 500, 7, "weighted"),
    "vector_majority_twoblock_n300_seed9": (
        ApproximateMajorityProtocol, 300, 9, "two-block",
    ),
    "vector_epidemic_quiescing_n500_seed5": (EpidemicProtocol, 500, 5, "quiescing"),
}

MULTISCALE_CASES = {
    "multiscale_epidemic_n2000_seed3": (EpidemicProtocol, 2000, 3),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _snapshot(simulator) -> dict:
    return {
        "configuration": sorted(
            [repr(state), int(count)]
            for state, count in simulator.configuration().items()
        ),
        "interactions": int(simulator.interactions),
        "batched_batches": int(getattr(simulator, "batched_batches", -1)),
        "fallback_batches": int(getattr(simulator, "fallback_batches", -1)),
        "states_seen": sorted(repr(state) for state in simulator.states_seen())
        if hasattr(simulator, "states_seen")
        else None,
    }


#: Every batched case on numpy (ids as captured) and on native, whose
#: kernel makes the numpy kernel's draws in C.
BATCHED_RUNS = [
    pytest.param(case, "numpy", id=case) for case in sorted(BATCHED_CASES)
] + [
    pytest.param(
        case,
        "native",
        id=f"native-{case}",
        marks=pytest.mark.skipif(
            not NativeBackend.available(), reason="native backend unavailable"
        ),
    )
    for case in sorted(BATCHED_CASES)
]


@pytest.mark.parametrize("case,backend", BATCHED_RUNS)
def test_batched_engine_reproduces_golden_stream(case, backend, golden):
    protocol_cls, n, seed, kwargs = BATCHED_CASES[case]
    simulator = BatchedCountSimulator(
        protocol_cls(), n, seed=seed, backend=backend, **kwargs
    )
    for checkpoint in golden[case]["checkpoints"]:
        simulator.run_interactions(checkpoint["interactions"] - simulator.interactions)
        snapshot = _snapshot(simulator)
        for key, value in snapshot.items():
            assert value == checkpoint[key], (case, checkpoint["interactions"], key)
    # The strongest check: the generator is at the exact same stream
    # position, i.e. the kernels made precisely the recorded draws.
    final = golden[case]["checkpoints"][-1]
    assert int(simulator._rng.integers(0, 2**32)) == final["rng_next"], case


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_vector_engine_reproduces_golden_stream(case, golden):
    protocol_cls, n, seed, scheduler = VECTOR_CASES[case]
    simulator = VectorFiniteStateSimulator(
        protocol_cls(), n, seed=seed, scheduler=scheduler, backend="numpy"
    )
    [checkpoint] = golden[case]["checkpoints"]
    # Every round advances the clock by floor(n/2), whatever it executed.
    simulator.run_interactions(checkpoint["rounds"] * (n // 2))
    assert simulator.rounds == checkpoint["rounds"], case
    snapshot = _snapshot(simulator)
    assert snapshot["configuration"] == checkpoint["configuration"], case
    assert snapshot["interactions"] == checkpoint["interactions"], case
    assert (
        int(simulator.rng.integers(0, 2**32)) == checkpoint["rng_next"]
    ), case


@pytest.mark.parametrize("case", sorted(MULTISCALE_CASES))
def test_multiscale_engine_reproduces_golden_stream(case, golden):
    protocol_cls, n, seed = MULTISCALE_CASES[case]
    simulator = MultiscaleSimulator(protocol_cls(), n, seed=seed, backend="numpy")
    for checkpoint in golden[case]["checkpoints"]:
        simulator.run_interactions(checkpoint["interactions"] - simulator.interactions)
        snapshot = _snapshot(simulator)
        for key, value in snapshot.items():
            assert value == checkpoint[key], (case, checkpoint["interactions"], key)
        assert simulator.regime_stats() == checkpoint["regime_stats"], case
    assert simulator.leaps > 0, case
    final = golden[case]["checkpoints"][-1]
    assert int(simulator._rng.integers(0, 2**32)) == final["rng_next"], case


def test_default_backend_is_the_golden_one(golden):
    """Leaving ``backend`` unset must select the stream-preserving path."""
    case = "epidemic_n1000_seed3"
    protocol_cls, n, seed, kwargs = BATCHED_CASES[case]
    simulator = BatchedCountSimulator(protocol_cls(), n, seed=seed, **kwargs)
    # Replay the recorded call partition: a trailing short batch is drawn per
    # run_interactions call, so the call boundaries are part of the stream.
    for checkpoint in golden[case]["checkpoints"]:
        simulator.run_interactions(checkpoint["interactions"] - simulator.interactions)
    final = golden[case]["checkpoints"][-1]
    assert _snapshot(simulator)["configuration"] == final["configuration"]
    assert int(simulator._rng.integers(0, 2**32)) == final["rng_next"]
