"""The always-on half of the observability contract.

Each hot loop has one path.  Its chunk-level blocks (a ``run_interactions``
call, a convergence-check chunk, a multiscale advance, an SSA run, a store
call) record counters and timers whether or not telemetry is on, and
``RECORDER.enabled`` decides only what is *emitted*: manifests, spans and
the spool.  The vector round's draw/apply split is the one exception and
records only while telemetry is on.  The vector cases run on numpy and on
the native backend, whose C run loop keeps the same blocks and counters.
"""

from __future__ import annotations

import functools

import pytest

from repro.backend import ENV_BACKEND
from repro.backend.native_backend import NativeBackend
from repro.core.parameters import ProtocolParameters
from repro.crn.library import CRN_WORKLOADS
from repro.crn.ssa import simulate_ssa
from repro.engine.selection import build_engine
from repro.engine.simulator import Simulation
from repro.harness.parallel import (
    build_crn_trials,
    build_finite_state_trials,
    build_vector_trials,
    run_trial,
    run_trials,
)
from repro.obs.manifest import TELEMETRY_KEY
from repro.obs.recorder import RECORDER, recording
from repro.protocols.epidemic import (
    EpidemicProtocol,
    EpidemicState,
    epidemic_completion_predicate,
)
from repro.store import open_cache_dir
from repro.store.server import StoreServer

FAST = ProtocolParameters.fast_test()

needs_native = pytest.mark.skipif(
    not NativeBackend.available(), reason="native backend unavailable"
)
BACKENDS = ["numpy", pytest.param("native", marks=needs_native)]


# Each block runs one hot path and returns the counters it must have left
# (name -> exact value, or None for "at least one") and the timers it must
# have advanced.


def _batched_chunk():
    build_engine("batched", EpidemicProtocol(), 256, seed=3).run_interactions(1_000)
    return {"engine.interactions": 1_000}, ("backend.kernel_advance",)


def _predicate_chunks():
    simulator = build_engine("count", EpidemicProtocol(), 64, seed=3)
    simulator.run_until(epidemic_completion_predicate, max_parallel_time=200.0)
    return {"engine.convergence_checks": None}, (
        "engine.step",
        "engine.convergence_check",
    )


def _agent_predicate_chunks():
    # The agent engine runs the same predicate loop: one check per chunk.
    simulation = Simulation(EpidemicProtocol().as_agent_protocol(), 64, seed=3)
    simulation.run_until(
        lambda sim: sim.count_where(lambda state: state == EpidemicState.INFECTED)
        == 64,
        max_parallel_time=200.0,
        check_interval=16,
    )
    return {"engine.convergence_checks": simulation.interactions // 16}, (
        "engine.step",
        "engine.convergence_check",
    )


def _vector_predicate_chunks(backend="numpy"):
    # The vector engine runs the same predicate loop: one check per round.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_BACKEND, backend)
        record = run_trial(_figure2_spec())
    return {"engine.convergence_checks": record.extra["interactions"] // (48 // 2)}, (
        "engine.step",
        "engine.convergence_check",
    )


def _multiscale_advance():
    (spec,) = build_crn_trials([300], 1, "epidemic", engine="multiscale", base_seed=5)
    record = run_trial(spec)
    return {
        f"multiscale.{name}": value for name, value in record.extra["regime"].items()
    }, ("multiscale.advance",)


def _ssa_run():
    result = simulate_ssa(CRN_WORKLOADS["epidemic"].crn, 2000, (0.5, 4.0), seed=42)
    return {"ssa.runs": 1, "ssa.reactions_fired": result.reactions_fired}, (
        "ssa.simulate",
    )


@pytest.mark.parametrize(
    "block",
    [
        _batched_chunk,
        _predicate_chunks,
        _agent_predicate_chunks,
        _vector_predicate_chunks,
        pytest.param(
            functools.partial(_vector_predicate_chunks, "native"), marks=needs_native
        ),
        _multiscale_advance,
        _ssa_run,
    ],
    ids=["batched", "predicate", "agent", "vector", "vector-native", "multiscale", "ssa"],
)
def test_chunk_level_block_records_with_telemetry_off(block):
    assert RECORDER.enabled is False
    expected_counters, expected_timers = block()
    for name, value in expected_counters.items():
        if value is None:  # any positive count
            assert RECORDER.counters[name] >= 1, name
        else:
            assert RECORDER.counters[name] == value, name
    for name in expected_timers:
        assert RECORDER.timers_ns[name] > 0, name
    # Recording is not emitting: no spans were collected.
    assert RECORDER.events == []


def _epidemic_specs():
    return build_finite_state_trials(
        [48],
        1,
        base_seed=11,
        engine="batched",
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )


@pytest.mark.parametrize("backend", ["cache-dir", "sqlite", "http"])
def test_store_calls_record_with_telemetry_off(backend, tmp_path):
    def sweep_twice(store):
        run_trials(_epidemic_specs(), store=store)
        run_trials(_epidemic_specs(), store=store)

    if backend == "http":
        with StoreServer(tmp_path / "db.sqlite", port=0) as server:
            sweep_twice(server.url)
    elif backend == "sqlite":
        sweep_twice(f"sqlite:{tmp_path / 'db.sqlite'}")
    else:
        with open_cache_dir(tmp_path / "cache", "sweep") as store:
            sweep_twice(store)
    counters = RECORDER.counters
    assert counters["store.appends"] == 1
    assert counters["store.claims"] >= 1
    assert counters["store.claims_acquired"] == 1
    assert counters["store.replays"] == 1
    assert RECORDER.timers_ns["store.claim"] > 0
    assert RECORDER.timers_ns["store.append"] > 0
    # One set of store counters for every backend, none per backend.
    assert not [name for name in counters if name.startswith(f"store.{backend}.")]


def test_disabled_recorder_emits_no_manifest_spans_or_spool(tmp_path):
    RECORDER.spool_dir = str(tmp_path / "spool")
    outcome = run_trials(_epidemic_specs(), store=f"sqlite:{tmp_path / 'db.sqlite'}")
    (record,) = outcome.records
    assert TELEMETRY_KEY not in record.extra
    assert RECORDER.events == []
    assert not (tmp_path / "spool").exists()
    # ...while the always-on blocks still accumulated.
    assert RECORDER.counters["engine.interactions"] == record.extra["interactions"]


def _figure2_spec():
    (spec,) = build_vector_trials(
        [48], 1, protocol="figure2", params=FAST, base_seed=9
    )
    return spec


@pytest.mark.parametrize("backend", BACKENDS)
def test_vector_round_is_silent_with_telemetry_off(backend, monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, backend)
    run_trial(_figure2_spec())
    # The shared run loop's chunk blocks record (see above); the round's
    # draw/apply split does not.
    recorded = set(RECORDER.counters) | set(RECORDER.timers_ns)
    assert not [name for name in recorded if name.startswith("scheduler.")]
    assert "engine.apply_round" not in recorded


@pytest.mark.parametrize("backend", BACKENDS)
def test_vector_round_times_itself_with_telemetry_on(backend, monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, backend)
    with recording():
        record = run_trial(_figure2_spec())
    counters = record.extra[TELEMETRY_KEY]["counters"]
    timing = record.extra[TELEMETRY_KEY]["timing"]
    # The matching scheduler emits floor(n/2) pairs every round, and the
    # convergence condition is checked after every round.
    assert counters["scheduler.rounds"] * (48 // 2) == record.extra["interactions"]
    assert counters["engine.convergence_checks"] == counters["scheduler.rounds"]
    assert timing["scheduler.draw_round"] > 0.0
    assert timing["engine.apply_round"] > 0.0
