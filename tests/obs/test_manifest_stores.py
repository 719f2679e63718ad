"""Run manifests: construction, store round-trips, cache-key exclusion."""

from __future__ import annotations

import json
import multiprocessing
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.backend import ENV_BACKEND, resolve_backend
from repro.backend.native_backend import NativeBackend
from repro.core.parameters import ProtocolParameters
from repro.harness.parallel import (
    ReferenceWorkload,
    build_crn_trials,
    build_finite_state_trials,
    build_vector_trials,
    run_trial,
    run_trials,
)
from repro.obs.manifest import (
    MANIFEST_FIELDS,
    MANIFEST_SCHEMA_VERSION,
    TELEMETRY_KEY,
    trial_manifest,
)
from repro.obs.recorder import RECORDER, recording
from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate
from repro.store.base import record_to_dict
from repro.store.jsonl import JsonlStore
from repro.store.server import StoreServer
from repro.store.sqlite import SqliteStore


def epidemic_specs(sizes=(48,), runs=1, engine="batched", **overrides):
    options = dict(
        population_sizes=list(sizes),
        runs_per_size=runs,
        base_seed=11,
        engine=engine,
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )
    options.update(overrides)
    return build_finite_state_trials(**options)


class TestTrialManifest:
    def test_manifest_shape_and_provenance(self):
        (spec,) = epidemic_specs()
        delta = {"counters": {"engine.interactions": 7}, "timing": {"total": 0.5}}
        manifest = trial_manifest(spec, delta)
        assert tuple(manifest) == MANIFEST_FIELDS
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["spec_hash"] == spec.cache_key()
        assert manifest["seed_lineage"] == {
            "base_seed": spec.base_seed,
            "size_index": spec.size_index,
            "run_index": spec.run_index,
            "seed": spec.seed,
        }
        assert manifest["resolution"]["kind"] == spec.kind
        assert manifest["resolution"]["engine"] == "batched"
        assert manifest["counters"] == {"engine.interactions": 7}
        assert manifest["timing"] == {"total": 0.5}

    def test_run_trial_attaches_manifest_only_when_enabled(self):
        (spec,) = epidemic_specs()
        plain = run_trial(spec)
        assert TELEMETRY_KEY not in plain.extra
        with recording():
            observed = run_trial(spec)
        manifest = observed.extra[TELEMETRY_KEY]
        assert manifest["spec_hash"] == spec.cache_key()
        assert manifest["counters"]["engine.interactions"] > 0
        assert manifest["timing"]["total"] > 0.0
        assert manifest["resolution"]["backend"] is not None

    @pytest.mark.parametrize(
        "engine", ["agent", "count", "batched", "vector", "multiscale"]
    )
    def test_manifest_names_a_backend_only_for_engines_that_use_one(
        self, engine, monkeypatch
    ):
        # Only the batched, vector and multiscale engines run a kernel from
        # the seam; the others run their numpy path whatever the process's
        # backend.
        monkeypatch.setenv(ENV_BACKEND, "native")
        (spec,) = epidemic_specs(engine=engine)
        backend = trial_manifest(spec, {})["resolution"]["backend"]
        if engine in ("batched", "vector", "multiscale"):
            assert backend == resolve_backend("native").name
        else:
            assert backend is None

    @pytest.mark.parametrize("engine", ["count", "batched", "multiscale"])
    def test_crn_manifest_names_a_backend_only_for_array_engines(
        self, engine, monkeypatch
    ):
        monkeypatch.setenv(ENV_BACKEND, "native")
        (spec,) = build_crn_trials([300], 1, "epidemic", engine=engine, base_seed=5)
        backend = trial_manifest(spec, {})["resolution"]["backend"]
        if engine in ("batched", "multiscale"):
            assert backend == resolve_backend("native").name
        else:
            assert backend is None

    def test_cache_key_is_identical_with_telemetry_on_and_off(self):
        (spec,) = epidemic_specs()
        RECORDER.enabled = False
        key_off = spec.cache_key()
        with recording():
            key_on = spec.cache_key()
        assert key_on == key_off

    def test_sequential_trial_attributes_its_time_to_engine_phases(self):
        # The agent engine runs the shared run_until loop, so its steps and
        # predicate checks land in the manifest, not only in ``total``.
        (spec,) = ReferenceWorkload(name=None).trials(
            [48], 1, params=ProtocolParameters.fast_test(), base_seed=15
        )
        with recording():
            record = run_trial(spec)
        timing = record.extra[TELEMETRY_KEY]["timing"]
        attributed = timing["engine.step"] + timing["engine.convergence_check"]
        assert attributed >= 0.9 * timing["total"]

    def test_simulate_telemetry_prints_the_manifest(self, capsys):
        from repro.cli import main

        argv = ["simulate", "--protocol", "epidemic", "--n", "2000",
                "--engine", "batched", "--backend", "numpy", "--telemetry"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        manifest = record["extra"][TELEMETRY_KEY]
        for phase in ("engine.step", "backend.kernel_advance",
                      "engine.convergence_check"):
            assert manifest["timing"][phase] > 0
        assert manifest["counters"]["engine.convergence_checks"] > 0


def run_store_sweep(store):
    specs = epidemic_specs(sizes=(40, 56), runs=1)
    with recording():
        outcome = run_trials(specs, store=store)
    return specs, outcome


class RoundTripContract:
    """Shared assertions: manifests survive append -> fetch bit-for-bit."""

    def open_store(self, tmp_path):
        """Yield ``(fetch, url)``: a fresh-read ``fetch(key)`` and a store URL."""
        raise NotImplementedError

    def test_manifest_round_trip(self, tmp_path):
        with self.open_store(tmp_path) as (fetch, url):
            specs, outcome = run_store_sweep(url)
            assert len(outcome.records) == len(specs)
            for spec, record in zip(specs, outcome.records):
                manifest = record.extra[TELEMETRY_KEY]
                fetched = fetch(spec.cache_key())
                assert fetched is not None
                assert fetched.extra[TELEMETRY_KEY] == manifest
                assert manifest["spec_hash"] == spec.cache_key()

    def test_replay_from_store_preserves_manifest(self, tmp_path):
        with self.open_store(tmp_path) as (fetch, url):
            specs, first = run_store_sweep(url)
            second = run_trials(specs, store=url)  # telemetry off: pure replay
            assert second.from_cache == len(specs)
            for a, b in zip(first.records, second.records):
                assert a.extra[TELEMETRY_KEY] == b.extra[TELEMETRY_KEY]


class TestJsonlRoundTrip(RoundTripContract):
    @contextmanager
    def open_store(self, tmp_path):
        yield (
            lambda key: JsonlStore(tmp_path / "cache").get(key),
            f"jsonl:{tmp_path / 'cache'}",
        )


class TestSqliteRoundTrip(RoundTripContract):
    @contextmanager
    def open_store(self, tmp_path):
        def fetch(key):
            store = SqliteStore(tmp_path / "db.sqlite")
            try:
                return store.get(key)
            finally:
                store.close()

        yield fetch, f"sqlite:{tmp_path / 'db.sqlite'}"


class TestHttpRoundTrip(RoundTripContract):
    @contextmanager
    def open_store(self, tmp_path):
        from repro.store.http import HttpStore

        with StoreServer(tmp_path / "db.sqlite", port=0) as server:
            yield HttpStore(server.url).get, server.url


class TestStoreCounters:
    def test_store_backends_count_appends_and_claims(self, tmp_path):
        with recording():
            RECORDER.reset()
            run_trials(epidemic_specs(), store=f"sqlite:{tmp_path / 'db.sqlite'}")
            counters = dict(RECORDER.counters)
        assert counters["store.appends"] == 1
        assert counters["store.claims"] >= 1
        assert counters["store.claims_acquired"] == 1


@pytest.mark.skipif(not NativeBackend.available(), reason="native backend unavailable")
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the resolve_backend spy reaches pool workers only through fork",
)
class TestPoolWorkersRunTheDriversBackend:
    """No spec names a backend: pool workers run the driver's process backend,
    and only the batched, vector and multiscale engines resolve one."""

    @staticmethod
    def specs():
        return (
            build_finite_state_trials(
                [2000], 2, engine="batched", protocol="epidemic", base_seed=3
            )
            + build_vector_trials(
                [48], 2, protocol="figure2",
                params=ProtocolParameters.fast_test(), base_seed=3,
            )
            + build_finite_state_trials(
                [2000], 2, engine="multiscale", protocol="epidemic", base_seed=3
            )
        )

    def test_native_workers_return_the_numpy_records(self, monkeypatch, tmp_path):
        specs = self.specs()
        monkeypatch.setenv(ENV_BACKEND, "numpy")
        reference = [record_to_dict(record) for record in run_trials(specs).records]

        # Every module that imported resolve_backend gets a spy that logs
        # its caller's module; forked workers inherit it.
        calls = tmp_path / "resolve_backend.calls"
        real = resolve_backend

        def spy(backend=None):
            with open(calls, "a", encoding="utf-8") as log:
                log.write(sys._getframe(1).f_globals["__name__"] + "\n")
            return real(backend)

        for module in list(sys.modules.values()):
            if getattr(module, "resolve_backend", None) is real:
                monkeypatch.setattr(module, "resolve_backend", spy)
        monkeypatch.setenv(ENV_BACKEND, "native")
        with recording():
            pooled = run_trials(specs, workers=2)

        assert pooled.executed == len(specs)
        backends = []
        for spec, record, expected in zip(specs, pooled.records, reference):
            backends.append(
                record.extra.pop(TELEMETRY_KEY)["resolution"]["backend"]
            )
            assert record_to_dict(record) == expected, spec.engine
        assert backends == ["native"] * 6
        callers = Counter(calls.read_text(encoding="utf-8").split())
        # One engine resolution and one manifest line per trial.
        assert callers == {
            "repro.engine.batched_simulator": 2,
            "repro.engine.vector": 2,
            "repro.crn.multiscale": 2,
            "repro.obs.manifest": 6,
        }
