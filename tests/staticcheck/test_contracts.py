"""Cache-key and capability-matrix contracts (K4xx/M5xx)."""

from __future__ import annotations

import dataclasses
import json
import os
import textwrap

import pytest

from repro.backend import ENV_BACKEND
from repro.staticcheck.contracts import (
    FieldPerturbation,
    audit_cache_key,
    backend_exclusion_diagnostics,
    cache_key_diagnostics,
    capability_matrix_diagnostics,
    declared_backend_cells,
    declared_scheduler_cells,
    exercised_cells,
    store_exclusion_diagnostics,
    telemetry_exclusion_diagnostics,
)


def _rules(diagnostics):
    return {d.rule for d in diagnostics}


@dataclasses.dataclass(frozen=True)
class FakeSpec:
    """Deliberately broken: ``extra`` is missing from the key payload."""

    alpha: int = 1
    extra: int = 0

    def cache_key(self) -> str:
        return json.dumps({"alpha": self.alpha})


class TestCacheKeyAudit:
    def test_real_specs_are_complete(self):
        assert cache_key_diagnostics() == []

    @pytest.mark.parametrize("option", ["leap_eps", "regime_thresholds"])
    def test_k401_proves_each_multiscale_option_moves_the_key(
        self, option, monkeypatch
    ):
        # Both options are engine_options perturbations on a multiscale
        # baseline; a payload that drops one must fail the audit there.
        from repro.harness.parallel import TrialSpec

        payload = TrialSpec.cache_payload

        def without_option(spec):
            trimmed = payload(spec)
            trimmed.pop(option, None)
            return trimmed

        monkeypatch.setattr(TrialSpec, "cache_payload", without_option)
        (diagnostic,) = cache_key_diagnostics()
        assert diagnostic.rule == "K401"
        assert diagnostic.location == "spec:TrialSpec.engine_options"

    def test_unchecked_perturbation_sets_only_its_field(self):
        # The kind decides which other fields a spec may carry, so its
        # variant is the built baseline with the kind alone changed.
        diagnostics = audit_cache_key(
            FakeSpec,
            baseline={"alpha": 1, "extra": 0},
            perturbations=[
                FieldPerturbation("alpha", 2, checked=False),
                FieldPerturbation("extra", 5, checked=False),
            ],
            key=lambda spec: spec.cache_key(),
            location="spec:FakeSpec",
        )
        assert [d.location for d in diagnostics] == ["spec:FakeSpec.extra"]

    def test_k401_detects_omitted_field(self):
        diagnostics = audit_cache_key(
            FakeSpec,
            baseline={"alpha": 1, "extra": 0},
            perturbations=[
                FieldPerturbation("alpha", 2),
                FieldPerturbation("extra", 5),
            ],
            key=lambda spec: spec.cache_key(),
            location="spec:FakeSpec",
        )
        assert _rules(diagnostics) == {"K401"}
        (diag,) = diagnostics
        assert diag.location == "spec:FakeSpec.extra" and diag.severity == "error"

    def test_k402_unaudited_field(self):
        diagnostics = audit_cache_key(
            FakeSpec,
            baseline={"alpha": 1, "extra": 0},
            perturbations=[FieldPerturbation("alpha", 2)],
            key=lambda spec: spec.cache_key(),
            location="spec:FakeSpec",
        )
        assert "K402" in _rules(diagnostics)

    def test_k403_unbuildable_perturbation(self):
        diagnostics = audit_cache_key(
            FakeSpec,
            baseline={"alpha": 1, "extra": 0},
            perturbations=[
                FieldPerturbation("alpha", 2),
                FieldPerturbation("extra", 5, base={"bogus_kwarg": 1}),
            ],
            key=lambda spec: spec.cache_key(),
            location="spec:FakeSpec",
        )
        assert "K403" in _rules(diagnostics)

    def test_k403_identical_variant(self):
        diagnostics = audit_cache_key(
            FakeSpec,
            baseline={"alpha": 1, "extra": 0},
            perturbations=[
                FieldPerturbation("alpha", 2),
                FieldPerturbation("extra", 0),  # same as baseline
            ],
            key=lambda spec: spec.cache_key(),
            location="spec:FakeSpec",
        )
        assert "K403" in _rules(diagnostics)


class TestStoreExclusion:
    def test_real_store_spec_is_fully_audited(self):
        assert store_exclusion_diagnostics() == []

    def test_k404_on_unaudited_store_field(self, monkeypatch):
        # Drop one StoreSpec field from the audit list: the checker must
        # demand an explicit decision for it.
        import repro.store.base as base

        monkeypatch.setattr(
            base, "STORE_KEY_EXCLUDED_FIELDS", ("scheme", "location", "name")
        )
        diagnostics = store_exclusion_diagnostics()
        assert {d.rule for d in diagnostics} == {"K404"}
        (diag,) = diagnostics
        assert "lease_seconds" in diag.message

    def test_k404_on_phantom_audited_field(self, monkeypatch):
        import repro.store.base as base

        monkeypatch.setattr(
            base,
            "STORE_KEY_EXCLUDED_FIELDS",
            base.STORE_KEY_EXCLUDED_FIELDS + ("renamed_away",),
        )
        diagnostics = store_exclusion_diagnostics()
        assert any(
            d.rule == "K404" and "renamed_away" in d.message for d in diagnostics
        )

    def test_k405_on_key_payload_collision(self, monkeypatch):
        # If an excluded name ever coincides with a TrialSpec payload key,
        # store selection would leak into trial identity.
        import repro.store.base as base

        monkeypatch.setattr(
            base,
            "STORE_KEY_EXCLUDED_FIELDS",
            base.STORE_KEY_EXCLUDED_FIELDS + ("engine",),
        )
        diagnostics = store_exclusion_diagnostics()
        assert any(d.rule == "K405" and "engine" in d.message for d in diagnostics)


class TestTelemetryExclusion:
    def test_real_telemetry_layer_is_excluded_from_cache_keys(self):
        # K406 on the live tree: flipping the recorder must not move any
        # cache key, and no manifest name may shadow spec identity.
        assert telemetry_exclusion_diagnostics() == []

    def test_recorder_state_is_restored_after_the_audit(self):
        from repro.obs.recorder import RECORDER

        prior = RECORDER.enabled
        telemetry_exclusion_diagnostics()
        assert RECORDER.enabled == prior
        RECORDER.enabled = True
        try:
            telemetry_exclusion_diagnostics()
            assert RECORDER.enabled is True
        finally:
            RECORDER.enabled = prior

    def test_k406_on_manifest_field_colliding_with_spec_field(self):
        # Inject a drifted manifest schema: a field named like a TrialSpec
        # field would let telemetry leak into trial identity.
        diagnostics = telemetry_exclusion_diagnostics(
            manifest_fields=("schema", "engine")
        )
        assert _rules(diagnostics) == {"K406"}
        assert any(
            "'engine'" in d.message and d.location == "spec:TrialSpec.engine"
            for d in diagnostics
        )

    def test_k406_on_telemetry_key_colliding_with_payload_key(self):
        diagnostics = telemetry_exclusion_diagnostics(telemetry_key="kind")
        assert any(d.rule == "K406" and "'kind'" in d.message for d in diagnostics)

    def test_k406_findings_are_errors(self):
        diagnostics = telemetry_exclusion_diagnostics(
            manifest_fields=("base_seed", "engine"), telemetry_key="kind"
        )
        assert len(diagnostics) == 3
        assert all(d.severity == "error" for d in diagnostics)


class TestBackendExclusion:
    def test_real_specs_keep_one_key_on_every_backend(self):
        # K407 on the live tree: no audited spec's key moves with
        # REPRO_BACKEND, and no backend name shadows spec identity.
        assert backend_exclusion_diagnostics() == []

    def test_k407_on_a_key_that_reads_the_backend(self, monkeypatch):
        # Inject the drift the rule guards against: a payload that reads
        # the process's backend, so native and numpy runs of one trial
        # would get two keys.
        from repro.harness.parallel import TrialSpec

        payload = TrialSpec.cache_payload
        monkeypatch.setattr(
            TrialSpec,
            "cache_payload",
            lambda self: {**payload(self), "stream": os.environ.get(ENV_BACKEND)},
        )
        diagnostics = backend_exclusion_diagnostics()
        assert _rules(diagnostics) == {"K407"}
        (diag,) = diagnostics
        assert diag.location == "spec:TrialSpec.cache_key"
        assert diag.severity == "error"

    def test_k407_on_backend_name_colliding_with_spec_field(self):
        diagnostics = backend_exclusion_diagnostics(backend_names=("numpy", "engine"))
        assert _rules(diagnostics) == {"K407"}
        (diag,) = diagnostics
        assert "'engine'" in diag.message and diag.location == "spec:TrialSpec.engine"

    @pytest.mark.parametrize("prior", [None, "native"])
    def test_backend_variable_is_restored_after_the_audit(self, prior, monkeypatch):
        if prior is None:
            monkeypatch.delenv(ENV_BACKEND, raising=False)
        else:
            monkeypatch.setenv(ENV_BACKEND, prior)
        backend_exclusion_diagnostics()
        assert os.environ.get(ENV_BACKEND) == prior


class TestCapabilityMatrix:
    def test_real_grid_is_consistent(self):
        assert capability_matrix_diagnostics(root=".") == []

    def test_declared_cells_are_nonempty(self):
        assert len(declared_scheduler_cells()) >= 13
        # batched/vector/multiscale x numpy/native
        assert len(declared_backend_cells()) == 6

    def test_m501_on_missing_cell(self, tmp_path):
        self._write_grid(
            tmp_path,
            scheduler_cells=sorted(declared_scheduler_cells())[:-1],
            backend_cells=sorted(declared_backend_cells()),
        )
        diagnostics = capability_matrix_diagnostics(root=tmp_path)
        assert _rules(diagnostics) == {"M501"}

    def test_m502_on_phantom_cell(self, tmp_path):
        self._write_grid(
            tmp_path,
            scheduler_cells=sorted(declared_scheduler_cells())
            + [("agent", "imaginary")],
            backend_cells=sorted(declared_backend_cells()),
        )
        diagnostics = capability_matrix_diagnostics(root=tmp_path)
        assert _rules(diagnostics) == {"M502"}

    def test_m503_on_missing_constants(self, tmp_path):
        grid = tmp_path / "tests" / "engine" / "test_cross_engine.py"
        grid.parent.mkdir(parents=True)
        grid.write_text("x = 1\n")
        diagnostics = capability_matrix_diagnostics(root=tmp_path)
        assert _rules(diagnostics) == {"M503"} and len(diagnostics) == 2

    def test_m503_on_missing_module(self, tmp_path):
        (diag,) = capability_matrix_diagnostics(root=tmp_path)
        assert diag.rule == "M503"

    def test_exercised_cells_parses_literals(self, tmp_path):
        path = tmp_path / "grid.py"
        path.write_text(
            textwrap.dedent(
                """
                EXERCISED_CELLS = [("agent", "sequential")]
                EXERCISED_BACKEND_CELLS = [("vector", "numpy")]
                """
            )
        )
        scheduler_cells, backend_cells = exercised_cells(path)
        assert scheduler_cells == {("agent", "sequential")}
        assert backend_cells == {("vector", "numpy")}

    @staticmethod
    def _write_grid(root, scheduler_cells, backend_cells):
        grid = root / "tests" / "engine" / "test_cross_engine.py"
        grid.parent.mkdir(parents=True)
        grid.write_text(
            f"EXERCISED_CELLS = {sorted(scheduler_cells)!r}\n"
            f"EXERCISED_BACKEND_CELLS = {sorted(backend_cells)!r}\n"
        )
