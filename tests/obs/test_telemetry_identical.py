"""Golden-stream guarantees: telemetry never changes a trajectory.

Each hot loop has one path.  Its chunk-level telemetry blocks always run
and only *read* monotonic clocks; the vector round times itself only while
telemetry is on.  So:

* **Off (default):** records are ``records_equal`` to the pinned golden
  values (here, and in the engines' golden-stream tests).
* **On:** the same trajectory again; only ``extra["telemetry"]`` (and the
  recorder's own state) may differ.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.backend import ENV_BACKEND
from repro.backend.native_backend import NativeBackend
from repro.core.parameters import ProtocolParameters
from repro.harness.parallel import (
    build_crn_trials,
    build_finite_state_trials,
    build_vector_trials,
    run_trial,
)
from repro.harness.results import records_equal
from repro.obs.manifest import TELEMETRY_KEY
from repro.obs.recorder import recording
from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate
from repro.store.base import record_to_dict

FAST = ProtocolParameters.fast_test()


def specs_under_test():
    """One spec per instrumented execution layer."""
    finite = build_finite_state_trials(
        [64],
        1,
        base_seed=23,
        engine="batched",
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )
    count = build_finite_state_trials(
        [64],
        1,
        base_seed=23,
        engine="count",
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )
    vector = build_vector_trials([48], 1, protocol="figure2", params=FAST, base_seed=9)
    crn_multiscale = build_crn_trials(
        [300], 1, "epidemic", engine="multiscale", base_seed=5
    )
    crn_count = build_crn_trials([80], 1, "epidemic", engine="count", base_seed=5)
    return finite + count + vector + crn_multiscale + crn_count


def strip_telemetry(record):
    extra = {
        key: value for key, value in record.extra.items() if key != TELEMETRY_KEY
    }
    return dataclasses.replace(record, extra=extra)


@pytest.mark.parametrize(
    "spec", specs_under_test(), ids=lambda spec: f"{spec.kind}-{spec.engine}"
)
def test_enabling_telemetry_leaves_the_trajectory_bit_identical(spec):
    baseline = run_trial(spec)
    with recording():
        observed = run_trial(spec)
    # The manifest is the *only* difference the recorder may introduce.
    assert TELEMETRY_KEY not in baseline.extra
    assert TELEMETRY_KEY in observed.extra
    assert records_equal(strip_telemetry(observed), baseline)
    rerun = run_trial(spec)  # telemetry off again: still the golden stream
    assert records_equal(rerun, baseline)


@pytest.mark.skipif(not NativeBackend.available(), reason="native backend unavailable")
def test_native_vector_record_is_byte_identical_with_telemetry(monkeypatch):
    # The native backend runs these rounds in its C run loop, which times its
    # draw and apply only while telemetry is on.
    monkeypatch.setenv(ENV_BACKEND, "native")
    (spec,) = build_vector_trials([48], 1, protocol="figure2", params=FAST, base_seed=9)
    baseline = run_trial(spec)
    with recording():
        observed = run_trial(spec)
    assert TELEMETRY_KEY in observed.extra
    assert json.dumps(record_to_dict(strip_telemetry(observed))) == json.dumps(
        record_to_dict(baseline)
    )


def test_off_path_matches_pinned_golden_ssa_stream():
    # The SSA golden stream (tests/crn/test_ssa_golden.py) pins the exact
    # trajectory of the uninstrumented tree; re-check it here with the
    # recorder toggled around the run so instrumentation provably neither
    # consumes RNG nor perturbs the event loop.
    from repro.crn.library import CRN_WORKLOADS
    from repro.crn.ssa import simulate_ssa

    crn = CRN_WORKLOADS["epidemic"].crn
    baseline = simulate_ssa(crn, 2000, (0.5, 1.0, 2.0, 4.0), seed=42)
    assert dict(baseline.counts) == {
        "I": (1, 1, 6, 326),
        "S": (1999, 1999, 1994, 1674),
    }
    assert baseline.reactions_fired == 325
    with recording():
        observed = simulate_ssa(crn, 2000, (0.5, 1.0, 2.0, 4.0), seed=42)
    assert observed == baseline
    assert simulate_ssa(crn, 2000, (0.5, 1.0, 2.0, 4.0), seed=42) == baseline


def test_telemetry_counters_match_trial_work():
    (spec,) = build_finite_state_trials(
        [64],
        1,
        base_seed=23,
        engine="batched",
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )
    with recording():
        record = run_trial(spec)
    counters = record.extra[TELEMETRY_KEY]["counters"]
    # The interaction counter must agree exactly with the record's own
    # bookkeeping — telemetry observes the run, it does not estimate it.
    assert counters["engine.interactions"] == record.extra["interactions"]
    assert counters["engine.batched_batches"] + counters.get(
        "engine.fallback_batches", 0
    ) == counters["backend.kernel_advances"]
    timing = record.extra[TELEMETRY_KEY]["timing"]
    assert 0.0 < timing["engine.step"] <= timing["total"]


def test_multiscale_regime_counters_flow_into_manifest():
    (spec,) = build_crn_trials([400], 1, "epidemic", engine="multiscale", base_seed=5)
    with recording():
        record = run_trial(spec)
    counters = record.extra[TELEMETRY_KEY]["counters"]
    regime_names = [name for name in counters if name.startswith("multiscale.")]
    assert "multiscale.advance" not in regime_names  # timer, not counter
    assert any(
        name in counters
        for name in (
            "multiscale.exact_events",
            "multiscale.leaps",
            "multiscale.ode_steps",
        )
    )
    # Satellite: regime stats also land beside the manifest for CRN sweeps.
    assert "regime" in record.extra
    assert set(record.extra["regime"]) == {
        "exact_events",
        "leaps",
        "ode_steps",
        "regime_switches",
    }
