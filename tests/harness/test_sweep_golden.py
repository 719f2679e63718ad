"""Golden records that pin the sweep driver, the trial runners and the JSONL store.

The ``golden/*.jsonl`` fixtures were written at commit d8b7c96 by the JSONL
cache class that :class:`~repro.store.jsonl.JsonlStore` absorbed, one small
sweep per trial kind.  The three ``finite-state-{termination-batched-numpy,
leader-count,epidemic-multiscale-numpy}`` fixtures were written at commit
f004624, while those engines still built their initial configuration from
per-agent ``initial_state`` calls; they pin the closed-form
``initial_configuration`` overrides that replaced them.  Each line holds a
spec's cache key and its record, so the fixtures pin three contracts at
once:

* records do not change (compared field by field);
* cache keys do not change, so a store written by that code replays with
  zero trials executed;
* the store writes the same bytes.

``array-figure2.jsonl`` holds the records of the retired ``kind="array"``
trials; the ``figure2`` vector workload must reproduce them, differing only
in ``extra["engine"]`` and the added ``extra["protocol"]``.  Both figure2
fixtures and both batched fixtures are reproduced on the native backend
too, whose vector and batched kernels are bitwise the numpy ones.

The three ``*-numpy`` fixtures and ``crn-multiscale`` were captured with the
backend named in the spec.  When the backend left the spec (it is a setting
of the process), their ``key`` fields were rewritten once to the keys of the
same sweeps built without it; their records and every other byte are as
captured.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.backend import ENV_BACKEND
from repro.backend.native_backend import NativeBackend
from repro.core.parameters import ProtocolParameters
from repro.harness import parallel
from repro.harness.figures import reproduce_figure2
from repro.harness.parallel import (
    ReferenceWorkload,
    build_crn_trials,
    build_finite_state_trials,
    build_vector_trials,
    get_workload,
    run_trials,
)
from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate
from repro.store.base import record_to_dict
from repro.store.jsonl import JsonlStore

GOLDEN = Path(__file__).parent / "golden"
FAST = ProtocolParameters.fast_test()


def golden_sweep(name: str):
    """The specs behind ``golden/<name>.jsonl``, built as captured (less the
    backend, which no spec names)."""
    if name == "finite-state-count":
        return build_finite_state_trials(
            [40, 70], 2, base_seed=11, engine="count", protocol="epidemic",
            max_parallel_time=60.0,
        )
    if name == "finite-state-callables":
        return build_finite_state_trials(
            [50], 2, base_seed=16, engine="count", max_parallel_time=60.0,
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
        )
    if name == "finite-state-batched-numpy":
        return build_finite_state_trials(
            [300, 600], 2, base_seed=12, engine="batched", protocol="majority",
        )
    if name == "finite-state-termination-batched-numpy":
        return build_finite_state_trials(
            [200, 500], 2, base_seed=17, engine="batched", protocol="termination",
        )
    if name == "finite-state-leader-count":
        return build_finite_state_trials(
            [20, 40], 2, base_seed=18, engine="count", protocol="leader",
        )
    if name == "finite-state-epidemic-multiscale-numpy":
        return build_finite_state_trials(
            [400, 3000], 2, base_seed=19, engine="multiscale", protocol="epidemic",
        )
    if name == "vector-figure2":
        return build_vector_trials(
            [48, 80], 2, protocol="figure2", params=FAST, base_seed=13
        )
    if name == "crn-multiscale":
        return build_crn_trials(
            [3000], 2, crn="sir", engine="multiscale", base_seed=14,
        )
    assert name == "sequential"
    return ReferenceWorkload(name=None).trials(
        [12, 20], 2, params=FAST, base_seed=15
    )


SWEEPS = (
    "finite-state-count",
    "finite-state-callables",
    "finite-state-batched-numpy",
    "finite-state-termination-batched-numpy",
    "finite-state-leader-count",
    "finite-state-epidemic-multiscale-numpy",
    "vector-figure2",
    "crn-multiscale",
    "sequential",
)


def read_golden(name: str) -> list[dict]:
    text = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("name", SWEEPS)
class TestGoldenSweeps:
    def test_keys_are_unchanged(self, name):
        keys = [spec.cache_key() for spec in golden_sweep(name)]
        assert keys == [line["key"] for line in read_golden(name)]

    def test_records_match_field_by_field(self, name, tmp_path):
        golden = read_golden(name)
        outcome = run_trials(golden_sweep(name), store=JsonlStore(tmp_path, name=name))
        assert outcome.executed == len(golden)
        for record, line in zip(outcome.records, golden):
            payload = record_to_dict(record)
            assert payload.keys() == line["record"].keys()
            for field_name, expected in line["record"].items():
                assert payload[field_name] == expected, field_name
        written = (tmp_path / f"{name}.jsonl").read_bytes()
        assert written == (GOLDEN / f"{name}.jsonl").read_bytes()

    def test_store_written_before_the_fold_replays(self, name, tmp_path):
        shutil.copy(GOLDEN / f"{name}.jsonl", tmp_path)
        specs = golden_sweep(name)
        outcome = run_trials(specs, store=JsonlStore(tmp_path, name=name))
        assert (outcome.executed, outcome.from_cache) == (0, len(specs))
        for record, line in zip(outcome.records, read_golden(name)):
            assert record_to_dict(record) == line["record"]


def array_figure2_sweep(**options):
    """The Figure 2 sweep behind ``golden/array-figure2.jsonl``."""
    return get_workload("figure2").trials(
        [48, 80], 2, params=FAST, base_seed=2019, **options
    )


class TestFigure2OnTheVectorWorkload:
    def test_reproduce_figure2_points_match_the_array_records(self):
        golden = [line["record"] for line in read_golden("array-figure2")]
        assert all(record["converged"] for record in golden)
        result = reproduce_figure2(
            [48, 80], runs_per_size=2, params=FAST, base_seed=2019
        )
        assert result.non_converged_runs == 0
        assert [
            (p.population_size, p.seed, p.convergence_time, p.max_additive_error)
            for p in result.points
        ] == [
            (r["population_size"], r["seed"], r["convergence_time"],
             r["max_additive_error"])
            for r in golden
        ]

    def test_records_differ_from_the_array_kind_only_in_labels(self):
        sweep = run_trials(array_figure2_sweep())
        for record, line in zip(sweep.records, read_golden("array-figure2")):
            payload = record_to_dict(record)
            expected = line["record"]
            assert expected["extra"].pop("engine") == "array"
            assert payload["extra"].pop("engine") == "vector"
            assert payload["extra"].pop("protocol") == "figure2"
            assert payload == expected


@pytest.mark.skipif(
    not NativeBackend.available(), reason="native backend unavailable"
)
class TestNativeReproducesTheFigure2Records:
    """The native backend's vector kernels and batched kernel are bitwise the
    numpy ones, so with native as the process's backend the golden sweeps
    of both figure2 kinds and both batched sweeps reproduce their records
    under their golden keys: the backend reaches no key."""

    @pytest.fixture(autouse=True)
    def native_process(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "native")

    @pytest.mark.parametrize(
        "name",
        ["finite-state-batched-numpy", "finite-state-termination-batched-numpy"],
    )
    def test_batched_sweeps(self, name):
        golden = read_golden(name)
        specs = golden_sweep(name)
        assert [spec.cache_key() for spec in specs] == [
            line["key"] for line in golden
        ]
        outcome = run_trials(specs)
        assert len(outcome.records) == len(golden)
        for record, line in zip(outcome.records, golden):
            payload = record_to_dict(record)
            assert payload.keys() == line["record"].keys()
            for field_name, expected in line["record"].items():
                assert payload[field_name] == expected, (name, field_name)

    def test_vector_figure2(self):
        golden = read_golden("vector-figure2")
        specs = golden_sweep("vector-figure2")
        assert [spec.cache_key() for spec in specs] == [
            line["key"] for line in golden
        ]
        outcome = run_trials(specs)
        assert [record_to_dict(record) for record in outcome.records] == [
            line["record"] for line in golden
        ]

    def test_array_figure2(self):
        outcome = run_trials(array_figure2_sweep())
        golden = read_golden("array-figure2")
        assert len(outcome.records) == len(golden)
        for record, line in zip(outcome.records, golden):
            payload = record_to_dict(record)
            expected = line["record"]
            assert expected["extra"].pop("engine") == "array"
            assert payload["extra"].pop("engine") == "vector"
            assert payload["extra"].pop("protocol") == "figure2"
            assert payload == expected


@pytest.mark.parametrize("with_store", [False, True])
class TestDuplicateSpecs:
    def test_each_unique_key_runs_once_and_fills_every_index(
        self, with_store, tmp_path, monkeypatch
    ):
        specs = golden_sweep("finite-state-count")
        doubled = [specs[0], specs[1], specs[0], specs[2], specs[1]]
        calls = []
        run_trial = parallel.run_trial

        def counting_run_trial(spec):
            calls.append(spec.cache_key())
            return run_trial(spec)

        monkeypatch.setattr(parallel, "run_trial", counting_run_trial)
        store = JsonlStore(tmp_path) if with_store else None
        outcome = run_trials(doubled, store=store)
        assert sorted(calls) == sorted({spec.cache_key() for spec in specs[:3]})
        assert outcome.executed == 3
        assert outcome.records[0] is outcome.records[2]
        assert outcome.records[1] is outcome.records[4]
        golden = read_golden("finite-state-count")
        for record, index in zip(outcome.records, (0, 1, 0, 2, 1)):
            assert record_to_dict(record) == golden[index]["record"]

    def test_pooled_sweep_fills_every_index(self, with_store, tmp_path):
        specs = golden_sweep("finite-state-count")
        doubled = [specs[0], specs[1], specs[0], specs[3], specs[1]]
        store = JsonlStore(tmp_path) if with_store else None
        outcome = run_trials(doubled, workers=2, store=store)
        assert outcome.executed == 3
        assert sorted(outcome.executed_keys) == sorted(
            {spec.cache_key() for spec in doubled}
        )
        golden = read_golden("finite-state-count")
        for record, index in zip(outcome.records, (0, 1, 0, 3, 1)):
            assert record_to_dict(record) == golden[index]["record"]
