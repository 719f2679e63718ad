"""Tests for the parallel sweep driver, seed spawning and the JSONL store."""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import pytest

from repro.core.parameters import ProtocolParameters
from repro.exceptions import SimulationError
from repro.harness.parallel import (
    KIND_FINITE_STATE,
    ReferenceWorkload,
    TrialSpec,
    build_crn_trials,
    build_finite_state_trials,
    build_vector_trials,
    get_workload,
    run_trial,
    run_trials,
)
from repro.harness.results import RunRecord, records_equal
from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate
from repro.protocols.leader_election import (
    FiniteStateCounterTermination,
    termination_signal_predicate,
)
from repro.rng import spawn_seed
from repro.staticcheck.contracts import trial_spec_perturbations
from repro.store.base import record_from_dict, record_to_dict
from repro.store.jsonl import JsonlStore

FAST = ProtocolParameters.fast_test()


def never_converges(simulator) -> bool:
    return False


def counter_threshold_2():
    return FiniteStateCounterTermination(counter_threshold=2)


def counter_threshold_12():
    return FiniteStateCounterTermination(counter_threshold=12)


def epidemic_trials(sizes=(64, 128), runs=2, **overrides):
    options = dict(
        population_sizes=list(sizes),
        runs_per_size=runs,
        base_seed=5,
        engine="count",
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )
    options.update(overrides)
    return build_finite_state_trials(**options)


def figure2_trials(sizes=(64,), runs=1, **options):
    return build_vector_trials(
        list(sizes), runs, protocol="figure2", params=FAST, **options
    )


def sequential_trials(sizes=(64,), runs=1, **options):
    return ReferenceWorkload(name=None).trials(
        list(sizes), runs, params=FAST, **options
    )


#: One builder per trial kind whose sweep expansion is checked alike.
SWEEP_BUILDERS = {
    "finite-state": epidemic_trials,
    "vector": figure2_trials,
    "sequential": sequential_trials,
}


class TestSpawnSeed:
    def test_deterministic(self):
        assert spawn_seed(7, 1, 2) == spawn_seed(7, 1, 2)

    def test_no_collisions_on_large_run_grid(self):
        # The old scheme (base + 1000 i + j) collides at runs_per_size >= 1000.
        seeds = {spawn_seed(0, i, j) for i in range(3) for j in range(1500)}
        assert len(seeds) == 3 * 1500

    def test_old_scheme_collision_pairs_are_distinct(self):
        assert spawn_seed(0, 1, 0) != spawn_seed(0, 0, 1000)
        # Sweeps whose base seeds differ by 1000 no longer overlap either.
        assert spawn_seed(1000, 0, 0) != spawn_seed(0, 1, 0)

    def test_key_length_separates_domains(self):
        assert spawn_seed(3, 1, 2) != spawn_seed(3, 1, 2, 0)

    def test_negative_base_seed_allowed(self):
        assert spawn_seed(-4, 0, 0) != spawn_seed(4, 0, 0)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed(0, -1)

    @pytest.mark.parametrize("kind", SWEEP_BUILDERS)
    def test_every_size_and_run_gets_its_own_seed(self, kind):
        specs = SWEEP_BUILDERS[kind](sizes=[16, 32], runs=3, base_seed=5)
        assert [spec.seed for spec in specs] == [
            spawn_seed(5, size_index, run_index)
            for size_index in range(2)
            for run_index in range(3)
        ]
        assert len({spec.seed for spec in specs}) == 6


class TestTrialSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            TrialSpec(kind="warp", population_size=64, size_index=0, run_index=0)

    @pytest.mark.parametrize("kind", SWEEP_BUILDERS)
    @pytest.mark.parametrize("sizes", [[1], [64, 1]])
    def test_small_population_rejected(self, kind, sizes):
        with pytest.raises(SimulationError, match="population_size must be >= 2"):
            SWEEP_BUILDERS[kind](sizes=sizes)

    @pytest.mark.parametrize("kind", SWEEP_BUILDERS)
    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_nonpositive_budget_rejected(self, kind, budget):
        with pytest.raises(SimulationError, match="max_parallel_time must be positive"):
            SWEEP_BUILDERS[kind](max_parallel_time=budget)

    @pytest.mark.parametrize("workload", ["figure2", "sequential"])
    def test_default_budget_grows_with_population(self, workload):
        entry = (
            ReferenceWorkload(name=None)
            if workload == "sequential"
            else get_workload(workload)
        )
        small, large = entry.trials([64, 4096], 1, params=FAST)
        assert large.max_parallel_time > small.max_parallel_time

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            epidemic_trials(engine="warp")

    def test_unknown_engine_option_rejected_before_any_key(self):
        # The spec runs build_engine's own option check when it is built, so
        # a typo fails here, not in a worker after the store claim.
        with pytest.raises(SimulationError, match="'batch_sise'"):
            build_finite_state_trials(
                [1000], 1, engine="count", protocol="epidemic", batch_sise=10
            )

    @pytest.mark.parametrize(
        "build",
        [
            functools.partial(
                build_finite_state_trials, [1000], 1, engine="batched",
                protocol="epidemic",
            ),
            functools.partial(
                build_vector_trials, [1000], 1, protocol="figure2", params=FAST
            ),
            functools.partial(build_crn_trials, [1000], 1, "sir", engine="batched"),
        ],
        ids=["finite-state", "vector", "crn"],
    )
    def test_backend_is_not_a_trial_option(self, build):
        # The backend is a setting of the process (--backend, REPRO_BACKEND):
        # every backend makes the same draws, so no spec names one.
        with pytest.raises(SimulationError, match="backend"):
            build(backend="native")

    @pytest.mark.parametrize(
        "build",
        [
            functools.partial(
                build_finite_state_trials, [1000], 1, engine="batched",
                protocol="epidemic", batch_size=0,
            ),
            functools.partial(
                build_finite_state_trials, [1000], 1, engine="batched",
                protocol="epidemic", small_count_threshold=-1,
            ),
            functools.partial(
                build_crn_trials, [3000], 1, "sir", engine="multiscale",
                leap_eps=0.7,
            ),
            functools.partial(
                build_crn_trials, [3000], 1, "sir", engine="multiscale",
                regime_thresholds=(5, 1),
            ),
            functools.partial(
                build_finite_state_trials, [1000], 1, engine="batched",
                protocol="epidemic", leap_eps=0.02,
            ),
            functools.partial(
                TrialSpec, kind="vector", population_size=64, size_index=0,
                run_index=0, engine="vector", protocol="figure2", params=FAST,
                engine_options=(("phase_cont", 8),),
            ),
        ],
        ids=[
            "batched-batch_size=0",
            "batched-small_count_threshold=-1",
            "multiscale-leap_eps=0.7",
            "multiscale-regime_thresholds=(5,1)",
            "batched-leap_eps",
            "vector-phase_cont",
        ],
    )
    def test_bad_engine_option_fails_before_the_trial_has_a_key(self, build):
        # Each engine's own option check runs when the spec is built; these
        # used to get keys and fail only inside a worker, mid-sweep.
        with pytest.raises(SimulationError):
            build()

    @pytest.mark.parametrize(
        "unread",
        [
            {"engine_options": (("batch_size", 3),)},
            {
                "protocol_factory": EpidemicProtocol,
                "predicate": epidemic_completion_predicate,
            },
        ],
        ids=["engine_options", "callables"],
    )
    def test_sequential_spec_takes_no_field_its_run_ignores(self, unread):
        # The reference run reads neither, so each used to key an equal
        # record under a key of its own.
        with pytest.raises(SimulationError, match="a sequential trial"):
            TrialSpec(
                kind="sequential", population_size=12, size_index=0,
                run_index=0, engine="sequential", params=FAST,
                max_parallel_time=2000.0, **unread,
            )

    def test_missing_workload_rejected(self):
        with pytest.raises(SimulationError):
            TrialSpec(
                kind=KIND_FINITE_STATE,
                population_size=64,
                size_index=0,
                run_index=0,
            )

    def test_unknown_workload_name_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="unknown workload"):
            TrialSpec(
                kind=KIND_FINITE_STATE,
                population_size=64,
                size_index=0,
                run_index=0,
                protocol="no-such-workload",
            )

    def test_unknown_workload_name_rejected_with_a_scheduler(self):
        # Resolving the name used to hinge on looking up a registry-baked
        # scheduler: with an explicit one, the sweep built and failed only
        # inside the trial, after the store claim.
        with pytest.raises(SimulationError, match="unknown workload"):
            build_finite_state_trials(
                [100], 2, protocol="nope", scheduler="sequential", engine="count"
            )

    def test_wrong_kind_workload_name_rejected(self):
        with pytest.raises(SimulationError, match="finite-state workload"):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                protocol="epidemic",
                params=FAST,
            )
        with pytest.raises(SimulationError, match="vector workload"):
            epidemic_trials(protocol="figure2")

    @pytest.mark.parametrize("name", ["figure2", "epidemic"])
    def test_sequential_spec_names_no_workload(self, name):
        # The sequential kind runs only its unnamed reference entry; a name
        # used to be ignored while still changing the key.
        with pytest.raises(SimulationError, match="a sequential trial cannot run it"):
            TrialSpec(
                kind="sequential",
                population_size=64,
                size_index=0,
                run_index=0,
                protocol=name,
                params=FAST,
            )

    @pytest.mark.parametrize("engine", [None, "agent", "warp"])
    def test_sequential_spec_names_its_engine(self, engine):
        # The engine joins the key, so any name but the one
        # ReferenceWorkload.trials writes would key its one trial a second
        # way (None: the spec's default engine).
        fields = {} if engine is None else {"engine": engine}
        spec = functools.partial(
            TrialSpec,
            kind="sequential",
            population_size=12,
            size_index=0,
            run_index=0,
            params=ProtocolParameters.fast_test(),
            max_parallel_time=2000.0,
        )
        with pytest.raises(SimulationError, match="engine='sequential'"):
            spec(**fields)
        assert spec(engine="sequential").cache_key().startswith("4f1c6770")

    @pytest.mark.parametrize("kind", SWEEP_BUILDERS)
    def test_empty_sweep_rejected(self, kind):
        with pytest.raises(SimulationError, match="non-empty"):
            SWEEP_BUILDERS[kind](sizes=[])
        with pytest.raises(SimulationError, match="runs_per_size must be >= 1"):
            SWEEP_BUILDERS[kind](runs=0)

    def test_registered_workload_resolves(self):
        workload = get_workload("epidemic")
        assert workload.factory is EpidemicProtocol

    def test_explicit_predicate_overrides_workload(self):
        # A workload name fills in missing callables but never shadows
        # explicitly supplied ones.
        spec = TrialSpec(
            kind=KIND_FINITE_STATE,
            population_size=64,
            size_index=0,
            run_index=0,
            protocol="epidemic",
            predicate=never_converges,
            max_parallel_time=5.0,
        )
        # The registered entry runs the trial (its factory builds the
        # protocol); the spec's predicate decides when it has converged.
        assert spec.workload() is get_workload("epidemic")
        assert not run_trial(spec).converged


class TestCallableKeys:
    """Callables key a trial by ``module:qualname``, so that name must import
    back to the callable: otherwise two different callables share a key and
    one sweep replays the other's records."""

    @pytest.mark.parametrize(
        "factory",
        [
            functools.partial(FiniteStateCounterTermination, counter_threshold=2),
            lambda: FiniteStateCounterTermination(counter_threshold=2),
        ],
        ids=["partial", "lambda"],
    )
    def test_factory_without_an_importable_name_is_rejected(self, factory):
        with pytest.raises(SimulationError, match="does not import back"):
            build_finite_state_trials(
                [64],
                1,
                protocol_factory=factory,
                predicate=termination_signal_predicate,
            )

    def test_closure_predicate_is_rejected(self):
        def local_predicate(simulator) -> bool:
            return False

        with pytest.raises(SimulationError, match="module-level function"):
            TrialSpec(
                kind=KIND_FINITE_STATE,
                population_size=64,
                size_index=0,
                run_index=0,
                protocol="epidemic",
                predicate=local_predicate,
            )

    def test_named_factories_do_not_share_records_through_a_store(self, tmp_path):
        def sweep(factory):
            return build_finite_state_trials(
                [64],
                1,
                engine="count",
                base_seed=3,
                max_parallel_time=50.0,
                protocol_factory=factory,
                predicate=termination_signal_predicate,
            )

        store = JsonlStore(tmp_path)
        low = run_trials(sweep(counter_threshold_2), store=store)
        high = run_trials(sweep(counter_threshold_12), store=store)
        alone = run_trials(sweep(counter_threshold_12))
        assert (low.executed, high.executed) == (1, 1)
        assert records_equal(high.records[0], alone.records[0])
        assert high.records[0].convergence_time > low.records[0].convergence_time


class TestParallelMatchesSerial:
    def test_record_for_record_identical(self):
        specs = epidemic_trials()
        serial = run_trials(specs, workers=1)
        parallel = run_trials(specs, workers=4)
        assert serial.executed == parallel.executed == len(specs)
        assert len(parallel.records) == len(specs)
        for spec, left, right in zip(specs, serial.records, parallel.records):
            assert left.population_size == spec.population_size
            assert left.seed == spec.seed
            assert records_equal(left, right)

    @pytest.mark.parametrize("engine", ["agent", "count", "batched"])
    def test_runner_parallel_equals_serial_per_engine(self, engine):
        common = dict(
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            population_sizes=[64, 128],
            runs_per_size=2,
            max_parallel_time=200.0,
            engine=engine,
            base_seed=9,
        )
        specs = build_finite_state_trials(**common)
        serial = run_trials(specs, workers=1)
        parallel = run_trials(specs, workers=2)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, parallel.records)
        )

    def test_workload_by_name(self):
        sweep = run_trials(
            get_workload("epidemic").trials(
                [64], 2, max_parallel_time=200.0, engine="count"
            ),
            workers=2,
        )
        assert len(sweep.records) == 2
        assert all(record.converged for record in sweep.records)

    def test_figure2_parallel(self):
        specs = figure2_trials(sizes=[48, 64], runs=2, base_seed=1)
        serial = run_trials(specs)
        parallel = run_trials(specs, workers=3)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, parallel.records)
        )

    def test_sequential_parallel(self):
        specs = sequential_trials(sizes=[48], runs=2, base_seed=2)
        serial = run_trials(specs)
        parallel = run_trials(specs, workers=2)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, parallel.records)
        )

    def test_invalid_worker_count(self):
        with pytest.raises(SimulationError):
            run_trials(epidemic_trials(), workers=0)


class TestJsonlResume:
    def test_round_trip_preserves_records(self, tmp_path):
        specs = epidemic_trials()
        first = run_trials(specs, store=JsonlStore(tmp_path))
        assert first.executed == len(specs)
        assert first.from_cache == 0

        second = run_trials(specs, store=JsonlStore(tmp_path))
        assert second.executed == 0
        assert second.from_cache == len(specs)
        assert all(
            records_equal(left, right)
            for left, right in zip(first.records, second.records)
        )

    def test_killed_sweep_resumes_from_cache(self, tmp_path):
        specs = epidemic_trials()
        store = JsonlStore(tmp_path)
        full = run_trials(specs, store=store)

        # Simulate a sweep killed after two finished trials: keep only the
        # first two store lines (plus a torn partial third line).
        lines = store.path.read_text(encoding="utf-8").splitlines()
        store.path.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2],
            encoding="utf-8",
        )

        resumed_store = JsonlStore(tmp_path)
        assert resumed_store.status().completed == 2
        resumed = run_trials(specs, store=resumed_store)
        assert resumed.from_cache == 2
        assert resumed.executed == len(specs) - 2
        assert all(
            records_equal(left, right)
            for left, right in zip(full.records, resumed.records)
        )

    def test_parallel_resume_matches_serial(self, tmp_path):
        specs = epidemic_trials()
        run_trials(specs[:1], store=JsonlStore(tmp_path))
        outcome = run_trials(specs, workers=4, store=JsonlStore(tmp_path))
        assert outcome.from_cache == 1
        assert outcome.executed == len(specs) - 1
        baseline = run_trials(specs)
        assert all(
            records_equal(left, right)
            for left, right in zip(baseline.records, outcome.records)
        )

    def test_record_serialisation_round_trip(self):
        import math

        record = RunRecord(
            population_size=64,
            seed=12,
            converged=False,
            convergence_time=None,
            max_additive_error=math.nan,
            extra={"engine": "count", "outputs": {"True": 64}},
        )
        clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        assert records_equal(record, clone)

    def test_caches_are_shareable_across_sweeps(self, tmp_path):
        store = JsonlStore(tmp_path)
        run_trials(epidemic_trials(sizes=[64], runs=1), store=store)
        other = run_trials(
            epidemic_trials(sizes=[64], runs=1, engine="batched"), store=store
        )
        assert other.executed == 1  # different engine -> different key

    def test_clear_empties_store_and_file(self, tmp_path):
        store = JsonlStore(tmp_path)
        run_trials(epidemic_trials(sizes=[64], runs=1), store=store)
        assert store.status().completed == 1
        store.clear()
        assert store.status().completed == 0
        assert not store.path.exists()


class TestCacheKeys:
    def test_key_is_stable(self):
        spec = epidemic_trials()[0]
        assert spec.cache_key() == spec.cache_key()
        assert spec.cache_key() == epidemic_trials()[0].cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"population_size": 256},
            {"size_index": 7},
            {"run_index": 7},
            {"base_seed": 99},
            {"engine": "count"},
            {"max_parallel_time": 123.0},
            {"check_interval": 32},
            {"protocol": "epidemic", "protocol_factory": None, "predicate": None},
            {"engine_options": (("batch_size", 16),)},
        ],
    )
    def test_key_changes_when_any_field_changes(self, change):
        # Batched, so that batch_size is an option its engine takes.
        base = epidemic_trials(engine="batched")[0]
        changed = dataclasses.replace(base, **change)
        assert changed.cache_key() != base.cache_key()

    def test_params_and_kind_affect_key(self):
        (sequential_trial,) = sequential_trials(sizes=[48], base_seed=3)
        vector_trial = dataclasses.replace(
            sequential_trial, kind="vector", engine="vector", protocol="figure2"
        )
        assert vector_trial.cache_key() != sequential_trial.cache_key()
        (moderate,) = ReferenceWorkload(name=None).trials(
            [48], 1, params=ProtocolParameters.moderate(), base_seed=3
        )
        assert moderate.cache_key() != sequential_trial.cache_key()


def _reject_constant(text):
    raise AssertionError(f"non-strict JSON token in cache line: {text}")


class TestNonFiniteSerialisation:
    """Non-finite floats must never reach the persisted JSON (as the invalid
    literals ``Infinity`` / ``NaN``); they are canonicalised to ``null``."""

    def test_record_to_dict_canonicalises_nested_non_finites(self):
        record = RunRecord(
            population_size=8,
            seed=1,
            converged=False,
            convergence_time=None,
            max_additive_error=math.inf,
            extra={
                "a": math.nan,
                "b": [math.inf, 2.0],
                "c": {"d": -math.inf},
                "ok": 3,
            },
        )
        payload = record_to_dict(record)
        assert payload["max_additive_error"] is None
        assert payload["extra"]["a"] is None
        assert payload["extra"]["b"] == [None, 2.0]
        assert payload["extra"]["c"]["d"] is None
        assert payload["extra"]["ok"] == 3
        json.dumps(payload, allow_nan=False)  # must not raise

    def test_non_converged_figure2_trial_round_trips_strict_json(self, tmp_path):
        (spec,) = build_vector_trials(
            [64],
            1,
            protocol="figure2",
            params=FAST,
            base_seed=1,
            max_parallel_time=0.5,  # far too small: the trial cannot converge
        )
        record = run_trial(spec)
        assert not record.converged
        # No agent reports an estimate: the in-memory error is +infinity and
        # the mean estimate is NaN — exactly the values that used to leak
        # into the cache file as invalid JSON.
        assert math.isinf(record.max_additive_error)
        assert math.isnan(record.extra["final_estimate_mean"])

        store = JsonlStore(tmp_path, name="nonfinite")
        store.append(spec.cache_key(), record)
        text = store.path.read_text(encoding="utf-8")
        assert "Infinity" not in text
        assert "NaN" not in text
        for line in text.splitlines():
            json.loads(line, parse_constant=_reject_constant)  # strict parse

        reloaded = JsonlStore(tmp_path, name="nonfinite").get(spec.cache_key())
        assert reloaded is not None
        assert reloaded.converged is False
        assert math.isnan(reloaded.max_additive_error)
        assert reloaded.extra["final_estimate_mean"] is None


class TestVectorSweeps:
    def test_vector_trials_cache_and_resume(self, tmp_path):
        specs = build_vector_trials(
            [64], 2, protocol="figure2", params=FAST, base_seed=9
        )
        first = run_trials(specs, store=JsonlStore(tmp_path, name="vec"))
        assert first.executed == 2
        assert all(record.converged for record in first.records)
        second = run_trials(specs, store=JsonlStore(tmp_path, name="vec"))
        assert second.executed == 0
        assert second.from_cache == 2
        for live, cached in zip(first.records, second.records):
            assert records_equal(live, cached)

    def test_vector_parallel_matches_serial(self):
        specs = build_vector_trials(
            [64, 96], 1, protocol="figure2", params=FAST, base_seed=4
        )
        serial = run_trials(specs, workers=1)
        parallel = run_trials(specs, workers=2)
        for one, other in zip(serial.records, parallel.records):
            assert records_equal(one, other)

    def test_vector_spec_requires_workload_name(self):
        with pytest.raises(SimulationError):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                params=FAST,
            )

    @pytest.mark.parametrize("engine", [None, "count", "batched", "agent"])
    def test_vector_spec_requires_the_vector_engine(self, engine):
        # Regression: the dataclass default engine="count" was accepted, and
        # keyed (and labelled in manifests) a trial that ran on the vector
        # engine, so it never replayed the builders' spec for that trial.
        options = {} if engine is None else {"engine": engine}
        with pytest.raises(SimulationError, match="runs on the vector engine"):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                protocol="figure2",
                params=FAST,
                **options,
            )

    def test_vector_spec_requires_params(self):
        with pytest.raises(SimulationError, match="params"):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                engine="vector",
                protocol="figure2",
            )

    def test_unknown_vector_workload_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="unknown workload"):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                engine="vector",
                protocol="no-such-workload",
                params=FAST,
            )

    def test_unsupported_engine_options_rejected_at_build_time(self):
        # figure2's kernel takes no options: the sweep must fail up front
        # with a SimulationError, not a TypeError inside a worker mid-sweep.
        with pytest.raises(SimulationError, match="phase_count"):
            build_vector_trials(
                [64], 1, protocol="figure2", params=FAST, phase_count=8
            )

    def test_invalid_option_values_surface_as_protocol_errors(self):
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            build_vector_trials(
                [64],
                1,
                protocol="leader-terminating",
                params=FAST,
                phase_count=2,  # below the clock's minimum of 3
            )

    def test_engine_options_reach_the_kernel_and_the_key(self):
        base = build_vector_trials(
            [64], 1, protocol="leader-terminating", params=FAST, phase_count=8
        )[0]
        other = build_vector_trials(
            [64], 1, protocol="leader-terminating", params=FAST, phase_count=16
        )[0]
        assert base.engine_options == (("phase_count", 8),)
        assert base.cache_key() != other.cache_key()


class TestSchedulerInSpecsAndCacheKeys:
    """TrialSpec.scheduler participates in validation and the cache key."""

    @pytest.mark.parametrize(
        "change",
        [
            {"scheduler": "matching"},
            {"scheduler": "quiescing"},
            {
                "scheduler": "weighted",
                "scheduler_options": (("lazy_rate", 0.5),),
            },
        ],
    )
    def test_key_changes_with_scheduler_fields(self, change):
        base = epidemic_trials(engine="agent")[0]
        changed = dataclasses.replace(base, **change)
        assert changed.cache_key() != base.cache_key()

    def test_scheduler_options_alone_change_the_key(self):
        mild = dataclasses.replace(
            epidemic_trials(engine="agent")[0],
            scheduler="weighted",
            scheduler_options=(("lazy_rate", 0.5),),
        )
        harsh = dataclasses.replace(mild, scheduler_options=(("lazy_rate", 0.1),))
        assert mild.cache_key() != harsh.cache_key()

    def test_cached_uniform_trial_not_served_for_nonuniform_sweep(self, tmp_path):
        """A cache warmed by a uniform-scheduler sweep must execute (not
        replay) every trial of the same sweep under a non-uniform scheduler."""
        uniform = epidemic_trials(sizes=[64], runs=2, engine="agent")
        first = run_trials(uniform, store=JsonlStore(tmp_path))
        assert first.executed == 2

        weighted = build_finite_state_trials(
            population_sizes=[64],
            runs_per_size=2,
            base_seed=5,
            engine="agent",
            max_parallel_time=200.0,
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            scheduler="weighted",
            scheduler_options={"lazy_fraction": 0.5, "lazy_rate": 0.2},
        )
        outcome = run_trials(weighted, store=JsonlStore(tmp_path))
        assert outcome.from_cache == 0
        assert outcome.executed == 2
        # And the non-uniform results themselves replay on a second pass.
        replay = run_trials(weighted, store=JsonlStore(tmp_path))
        assert replay.from_cache == 2
        for live, cached in zip(outcome.records, replay.records):
            assert records_equal(live, cached)

    def test_incompatible_scheduler_rejected_at_build_time(self):
        with pytest.raises(SimulationError):
            epidemic_trials(scheduler="weighted")  # count engine cannot run it
        with pytest.raises(SimulationError):
            build_vector_trials(
                [64], 1, protocol="figure2", params=FAST, scheduler="sequential"
            )

    def test_malformed_scheduler_options_rejected_at_build_time(self):
        with pytest.raises(SimulationError):
            epidemic_trials(
                engine="agent",
                scheduler="weighted",
                scheduler_options={"lazy_rate": 0.0},
            )

    @pytest.mark.parametrize("engine", ["agent", "vector"])
    def test_starvation_of_all_but_one_agent_rejected_at_build_time(self, engine):
        # The policy's population check runs on the spec's n; it used to
        # raise only when the trial ran.
        with pytest.raises(SimulationError, match="fewer than 2 active agents"):
            build_finite_state_trials(
                [10], 1, engine=engine, protocol="epidemic",
                scheduler="quiescing", scheduler_options={"fraction": 0.9},
            )

    def test_vector_trials_accept_round_schedulers(self):
        specs = build_vector_trials(
            [64],
            1,
            protocol="figure2",
            params=FAST,
            scheduler="two-block",
            scheduler_options={"intra": 0.8},
        )
        assert specs[0].scheduler == "two-block"
        record = run_trial(specs[0])
        assert record.converged


class TestSchedulerOptionPlumbing:
    """Regression: dangling scheduler options."""

    def test_dangling_scheduler_options_rejected(self):
        with pytest.raises(SimulationError, match="without a scheduler"):
            TrialSpec(
                kind=KIND_FINITE_STATE,
                population_size=64,
                size_index=0,
                run_index=0,
                engine="agent",
                protocol="epidemic",
                scheduler_options=(("intra", 0.95),),
            )


class TestMultiscaleOptionKeys:
    """The multiscale engine's ``leap_eps`` and ``regime_thresholds`` are
    engine options that join the key at its top level, where they joined as
    ``TrialSpec`` fields; no golden fixture sets either, so these keys,
    computed while they were fields, pin the bytes."""

    @pytest.mark.parametrize("thresholds", [(10, 10000), (10.0, 1e4)])
    def test_crn_key_with_both_options(self, thresholds):
        (spec,) = build_crn_trials(
            [3000], 1, crn="sir", engine="multiscale", base_seed=14,
            leap_eps=0.02, regime_thresholds=thresholds,
        )
        assert spec.cache_key() == (
            "a27c525ced97bf77509eab63ac6285cdaeac8dd36f69234dbc2dd77bcc457f56"
        )

    def test_spec_keeps_the_canonical_values(self):
        (spec,) = build_crn_trials(
            [3000], 1, crn="sir", engine="multiscale",
            leap_eps=0.02, regime_thresholds=[10, 10000],
        )
        assert spec.engine_options == (
            ("leap_eps", 0.02), ("regime_thresholds", (10.0, 10000.0))
        )

    def test_finite_state_key_with_leap_eps(self):
        (spec,) = build_finite_state_trials(
            [400], 1, engine="multiscale", protocol="epidemic", base_seed=19,
            leap_eps=0.1,
        )
        assert spec.cache_key() == (
            "35a542677eda948e4ddc9929f75575b6f8d7ac84a128f8e91532b3064a7e13a1"
        )

    def test_crn_key_without_options(self):
        (spec,) = build_crn_trials(
            [3000], 1, crn="sir", engine="multiscale", base_seed=14
        )
        assert spec.cache_key() == (
            "36c1168f050f03bec1938716a086dbe653eb064b749174778526da3f7934ab30"
        )


class TestCacheKeyBackwardCompatibility:
    def test_default_scheduler_specs_hash_like_pre_scheduler_releases(self):
        """Regression: adding the scheduler fields must not invalidate caches
        written before schedulers became pluggable — a default-scheduler spec
        hashes over exactly the historical field set."""
        import hashlib

        spec = epidemic_trials()[0]
        legacy_payload = {
            "kind": spec.kind,
            "population_size": spec.population_size,
            "size_index": spec.size_index,
            "run_index": spec.run_index,
            "base_seed": spec.base_seed,
            "engine": spec.engine,
            "max_parallel_time": spec.max_parallel_time,
            "check_interval": spec.check_interval,
            "protocol": None,
            "protocol_factory": "repro.protocols.epidemic:EpidemicProtocol",
            "predicate": "repro.protocols.epidemic:epidemic_completion_predicate",
            "engine_options": [],
            "params": None,
            "track_states": False,
        }
        legacy_key = hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert spec.cache_key() == legacy_key


class TestCRNCacheKeys:
    """Key sensitivity of the ``kind="crn"`` spec fields (the CRN travels in
    the spec precisely so that a cached trial is never replayed for a
    modified network — in particular a different rate constant)."""

    @staticmethod
    def _leader_spec(rate=1.0, mode="uniform", engine="count", **overrides):
        from repro.crn import CRN
        from repro.crn.library import single_leader_predicate
        from repro.harness.parallel import KIND_CRN

        options = dict(
            kind=KIND_CRN,
            population_size=60,
            size_index=0,
            run_index=0,
            base_seed=7,
            engine=engine,
            max_parallel_time=500.0,
            crn=CRN.from_spec(
                [f"L + L -> L + F @ {rate}"], name="leader", fractions={"L": 1.0}
            ),
            crn_mode=mode,
            predicate=single_leader_predicate,
        )
        options.update(overrides)
        return TrialSpec(**options)

    def test_key_is_stable_across_identical_specs(self):
        assert self._leader_spec().cache_key() == self._leader_spec().cache_key()

    def test_rate_constant_changes_the_key(self):
        assert (
            self._leader_spec(rate=1.0).cache_key()
            != self._leader_spec(rate=2.0).cache_key()
        )

    def test_lowering_mode_changes_the_key(self):
        assert (
            self._leader_spec(mode="uniform").cache_key()
            != self._leader_spec(mode="thinned").cache_key()
        )

    def test_initial_condition_changes_the_key(self):
        from repro.crn import CRN

        seeded = CRN.from_spec(
            ["L + L -> L + F @ 1.0"],
            name="leader",
            seeds={"F": 1},
            fractions={"L": 1.0},
        )
        assert (
            self._leader_spec().cache_key()
            != self._leader_spec(crn=seeded).cache_key()
        )

    def test_network_structure_changes_the_key(self):
        from repro.crn import CRN

        reversed_products = CRN.from_spec(
            ["L + L -> F + L @ 1.0"], name="leader", fractions={"L": 1.0}
        )
        assert (
            self._leader_spec().cache_key()
            != self._leader_spec(crn=reversed_products).cache_key()
        )

    def test_cached_crn_trial_not_served_for_different_rate(self, tmp_path):
        """End to end through the JSONL store: a cached slow-network trial
        must be re-executed, not replayed, when the rate constant changes."""
        from repro.harness.parallel import build_crn_trials
        from repro.crn import CRN
        from repro.crn.library import single_leader_predicate

        def trials(rate):
            crn = CRN.from_spec(
                [f"L + L -> L + F @ {rate}"], name="leader", fractions={"L": 1.0}
            )
            return build_crn_trials(
                [60],
                2,
                crn,
                engine="count",
                predicate=single_leader_predicate,
                max_chemical_time=500.0,
            )

        store = JsonlStore(tmp_path, name="crn-rates")
        first = run_trials(trials(1.0), store=store)
        assert (first.executed, first.from_cache) == (2, 0)
        replay = run_trials(trials(1.0), store=store)
        assert (replay.executed, replay.from_cache) == (0, 2)
        changed = run_trials(trials(2.0), store=store)
        assert (changed.executed, changed.from_cache) == (2, 0)
        # The single duel reaction normalises to per-interaction probability
        # 1 under either rate constant, so the parallel-time trajectory is
        # seed-identical — but the rate scale doubles, so chemical time
        # halves.  A replayed stale record would report the old value.
        for slow, fast in zip(replay.records, changed.records):
            assert fast.extra["chemical_time"] == pytest.approx(
                slow.extra["chemical_time"] / 2.0
            )

    def test_crn_records_round_trip_through_the_cache_file(self, tmp_path):
        store = JsonlStore(tmp_path, name="crn-roundtrip")
        spec = self._leader_spec()
        record = run_trial(spec)
        store.append(spec.cache_key(), record)
        reloaded = JsonlStore(tmp_path, name="crn-roundtrip")
        cached = reloaded.get(spec.cache_key())
        assert records_equal(cached, record)
        assert cached.extra["counts"] == {"F": 59, "L": 1}


class TestCacheKeySensitivity:
    """Every TrialSpec field must flip the cache key when it changes.

    Parametrized from the staticcheck audit table so the regression test and
    `repro check --only contracts` can never drift apart: a new field added
    to TrialSpec without a perturbation fails the contract check, and a
    perturbation that stops changing the key fails here.
    """

    @pytest.mark.parametrize(
        "perturbation",
        [
            pytest.param(p, id=p.field)
            for p in trial_spec_perturbations()[1]
        ],
    )
    def test_field_participates_in_cache_key(self, perturbation):
        baseline, _ = trial_spec_perturbations()
        base_spec, variant_spec = perturbation.build(TrialSpec, baseline)
        assert base_spec.cache_key() != variant_spec.cache_key(), (
            f"field {perturbation.field!r} does not affect the cache key"
        )

    def test_audit_table_covers_every_field(self):
        _, perturbations = trial_spec_perturbations()
        audited = {p.field for p in perturbations}
        declared = {f.name for f in dataclasses.fields(TrialSpec) if f.init}
        assert audited == declared
