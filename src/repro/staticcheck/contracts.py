"""Cache-key and capability-matrix contract checks (rules ``K4xx``/``M5xx``).

Cache-key completeness (``K401``/``K402``/``K403``)
    The sweep result cache reuses a stored record whenever a new trial's
    :meth:`TrialSpec.cache_key` matches — so a spec field *not* hashed into
    the key silently serves stale results for different experiments.  The
    checker proves participation by perturbation: for every dataclass field
    it builds two otherwise-identical specs differing only in that field and
    requires their keys to differ.  Conditional fields (``scheduler_options``
    joins the payload only alongside a ``scheduler``; ``crn_mode`` only
    alongside a ``crn``) get per-field baselines that make them active.  A
    field with no registered perturbation is itself an error (``K402``), so
    adding a field to a spec without extending the audit — and therefore
    without thinking about the key — fails CI.

Store-field key exclusion (``K404``/``K405``)
    The inverse contract of ``K401``: *store selection* must stay **out** of
    the trial cache key — the same spec has to hit the same record whether a
    local JSONL shard, a SQLite database or an HTTP store serves it, or
    moving a sweep between stores would silently re-execute (or worse,
    fork) its results.  Every ``StoreSpec`` field must be explicitly listed
    in ``STORE_KEY_EXCLUDED_FIELDS`` (``K404`` — adding a store field
    without auditing it fails CI), and no excluded name may appear among
    ``TrialSpec``'s fields or in its canonical key payload (``K405``).

Process-state key exclusion (``K406``/``K407``)
    Same inverse contract for state of the process that runs a trial.
    Both rules flip that state and require every spec the ``K401`` audit
    builds to keep a byte-identical ``cache_key()``.  ``K406`` flips the
    telemetry recorder off and on: run manifests ride on records under
    ``RunRecord.extra["telemetry"]`` and describe *how* a trial ran, never
    *what* it is, so no manifest field name may collide with a
    ``TrialSpec`` field or cache-payload key either; otherwise enabling
    ``--telemetry`` would fork a sweep's cache.  ``K407`` flips
    ``REPRO_BACKEND`` (unset, then each registered backend): every backend
    makes the same draws, so ``--backend`` must not fork a cache, and no
    backend name (nor ``backend`` itself) may be a ``TrialSpec`` field or
    payload key.

Capability-matrix coverage (``M501``/``M502``/``M503``)
    ``ENGINE_SCHEDULER_CAPABILITY`` plus the registered policies' declared
    capabilities define which (engine × scheduler) cells exist; the backend
    seam adds (array-engine × backend) cells.  The cross-engine test grid
    declares what it exercises in two literal constants
    (``EXERCISED_CELLS`` / ``EXERCISED_BACKEND_CELLS`` in
    ``tests/engine/test_cross_engine.py``) that a test in the same module
    actually runs, and this checker cross-references the two sets *without
    importing the tests*: a declared-but-untested cell is an error (M501),
    as is a tested-but-undeclared cell (M502, the matrix is out of date).
"""

from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import json
import os
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.exceptions import ReproError
from repro.staticcheck.diagnostics import ERROR, Diagnostic

__all__ = [
    "FieldPerturbation",
    "audit_cache_key",
    "backend_exclusion_diagnostics",
    "capability_matrix_diagnostics",
    "contract_diagnostics",
    "declared_backend_cells",
    "declared_scheduler_cells",
    "exercised_cells",
    "scheduler_spec_perturbations",
    "store_exclusion_diagnostics",
    "telemetry_exclusion_diagnostics",
    "trial_spec_perturbations",
]

#: Where the cross-engine grid declares its coverage.
GRID_TEST_PATH = Path("tests/engine/test_cross_engine.py")


@dataclasses.dataclass(frozen=True)
class FieldPerturbation:
    """How to prove one spec field participates in the cache key.

    ``base`` overrides the shared baseline kwargs (to activate conditional
    fields); ``variant`` is the value substituted for ``field`` in the
    perturbed copy.  The two instances must produce different keys.
    ``checked=False`` copies the built baseline and sets only ``field``,
    without the spec's checks: for a field such as ``TrialSpec.kind`` that
    decides which other fields a spec may carry, so that no checked spec
    with the variant value shares the baseline's other fields.
    """

    field: str
    variant: object
    base: Mapping[str, object] = dataclasses.field(default_factory=dict)
    checked: bool = True

    def build(self, cls, baseline: Mapping[str, object]) -> tuple[object, object]:
        """The baseline and perturbed instances of ``cls``."""
        kwargs = {**baseline, **self.base}
        base = cls(**kwargs)
        if self.checked:
            return base, cls(**{**kwargs, self.field: self.variant})
        variant = copy.copy(base)
        object.__setattr__(variant, self.field, self.variant)
        return base, variant


def audit_cache_key(
    cls,
    baseline: Mapping[str, object],
    perturbations: Sequence[FieldPerturbation],
    key: Callable[[object], str],
    location: str,
) -> list[Diagnostic]:
    """Perturb every field of ``cls`` and require the key to change."""
    diagnostics: list[Diagnostic] = []
    covered = {perturbation.field for perturbation in perturbations}
    for field in dataclasses.fields(cls):
        if not field.init:
            continue
        if field.name not in covered:
            diagnostics.append(
                Diagnostic(
                    rule="K402",
                    severity=ERROR,
                    location=f"{location}.{field.name}",
                    message=(
                        f"field {field.name!r} has no registered cache-key "
                        f"perturbation: its participation in the key is "
                        f"unverified"
                    ),
                    hint=(
                        "extend the audit table in repro.staticcheck.contracts "
                        "(and the key itself, if the field was just added)"
                    ),
                )
            )
    for perturbation in perturbations:
        field_location = f"{location}.{perturbation.field}"
        kwargs = {**baseline, **perturbation.base}
        try:
            base_spec, variant_spec = perturbation.build(cls, baseline)
        except Exception as error:
            diagnostics.append(
                Diagnostic(
                    rule="K403",
                    severity=ERROR,
                    location=field_location,
                    message=(
                        f"cache-key audit could not construct the perturbed "
                        f"spec: {error}"
                    ),
                    hint="fix the audit table's baseline/variant values",
                )
            )
            continue
        if kwargs[perturbation.field] == perturbation.variant:
            diagnostics.append(
                Diagnostic(
                    rule="K403",
                    severity=ERROR,
                    location=field_location,
                    message="perturbation variant equals the baseline value",
                    hint="pick a distinct variant in the audit table",
                )
            )
            continue
        if key(base_spec) == key(variant_spec):
            diagnostics.append(
                Diagnostic(
                    rule="K401",
                    severity=ERROR,
                    location=field_location,
                    message=(
                        f"changing field {perturbation.field!r} does not "
                        f"change the cache key: cached results would be "
                        f"reused across different experiments"
                    ),
                    hint="hash the field into the canonical key payload",
                )
            )
    return diagnostics


def _epidemic_crn():
    from repro.crn.library import CRN_WORKLOADS

    return CRN_WORKLOADS["epidemic"].crn


def _sir_crn():
    from repro.crn.library import CRN_WORKLOADS

    return CRN_WORKLOADS["sir"].crn


def trial_spec_perturbations() -> tuple[Mapping[str, object], list[FieldPerturbation]]:
    """Baseline kwargs and per-field perturbations for ``TrialSpec``."""
    from repro.core.parameters import ProtocolParameters
    from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate

    baseline: Mapping[str, object] = {
        "kind": "finite-state",
        "population_size": 64,
        "size_index": 0,
        "run_index": 0,
        "base_seed": 7,
        "engine": "count",
        "max_parallel_time": 32.0,
        "check_interval": None,
        "protocol": "epidemic",
        "protocol_factory": None,
        "predicate": None,
        "engine_options": (),
        "scheduler": None,
        "scheduler_options": (),
        "params": None,
        "crn": None,
        "crn_mode": "uniform",
    }
    crn_base = {
        "kind": "crn",
        "protocol": "epidemic",
        "crn": _epidemic_crn(),
        "crn_mode": "uniform",
    }
    # The multiscale engine's options join the payload at its top level
    # (only when set), so their perturbations run on a multiscale CRN
    # baseline.
    multiscale_base = dict(crn_base, engine="multiscale")
    perturbations = [
        # Each kind requires or forbids a field the others do not (a
        # sequential spec names no workload and carries no callables), so no
        # checked spec of another kind shares the baseline's other fields.
        FieldPerturbation("kind", "sequential", checked=False),
        FieldPerturbation("population_size", 65),
        FieldPerturbation("size_index", 1),
        FieldPerturbation("run_index", 1),
        FieldPerturbation("base_seed", 8),
        FieldPerturbation("engine", "agent"),
        FieldPerturbation("max_parallel_time", 16.0),
        FieldPerturbation("check_interval", 16),
        FieldPerturbation("protocol", "majority"),
        FieldPerturbation("protocol_factory", EpidemicProtocol),
        FieldPerturbation("predicate", epidemic_completion_predicate),
        FieldPerturbation(
            "engine_options", (("batch_size", 32),), base={"engine": "batched"}
        ),
        FieldPerturbation("scheduler", "state-weighted"),
        FieldPerturbation(
            "scheduler_options",
            (("default_rate", 0.5),),
            base={
                "scheduler": "state-weighted",
                "scheduler_options": (("default_rate", 1.0),),
            },
        ),
        FieldPerturbation(
            "engine_options", (("leap_eps", 0.01),), base=multiscale_base
        ),
        FieldPerturbation(
            "engine_options", (("regime_thresholds", (10.0, 1e4)),),
            base=multiscale_base,
        ),
        FieldPerturbation("params", ProtocolParameters(epochs_factor=6)),
        FieldPerturbation("crn", _sir_crn(), base=crn_base),
        FieldPerturbation("crn_mode", "thinned", base=crn_base),
    ]
    return baseline, perturbations


def scheduler_spec_perturbations() -> tuple[Mapping[str, object], list[FieldPerturbation]]:
    """Baseline kwargs and per-field perturbations for ``SchedulerSpec``."""
    baseline: Mapping[str, object] = {
        "name": "state-weighted",
        "options": (("default_rate", 1.0),),
    }
    perturbations = [
        FieldPerturbation("name", "sequential", base={"options": ()}),
        FieldPerturbation("options", (("default_rate", 0.5),)),
    ]
    return baseline, perturbations


def cache_key_diagnostics() -> list[Diagnostic]:
    """Audit the frozen spec dataclasses that key the sweep result cache."""
    from repro.engine.scheduler import SchedulerSpec
    from repro.harness.parallel import TrialSpec

    baseline, perturbations = trial_spec_perturbations()
    diagnostics = audit_cache_key(
        TrialSpec,
        baseline,
        perturbations,
        key=lambda spec: spec.cache_key(),
        location="spec:TrialSpec",
    )
    baseline, perturbations = scheduler_spec_perturbations()
    diagnostics.extend(
        audit_cache_key(
            SchedulerSpec,
            baseline,
            perturbations,
            key=lambda spec: json.dumps(spec.cache_payload(), sort_keys=True),
            location="spec:SchedulerSpec",
        )
    )
    return diagnostics


# ---------------------------------------------------------------------------
# Store-field key exclusion
# ---------------------------------------------------------------------------


def store_exclusion_diagnostics() -> list[Diagnostic]:
    """Prove store-selection fields are *excluded* from the trial cache key.

    Two failure modes, each its own rule:

    ``K404``
        A ``StoreSpec`` field is missing from ``STORE_KEY_EXCLUDED_FIELDS``
        (or the list names a field that no longer exists) — someone added
        or renamed a store field without deciding its key status.
    ``K405``
        An excluded name collides with a ``TrialSpec`` field or appears in
        the canonical key payload — store selection would leak into the
        key, splitting identical trials across stores.
    """
    from repro.store.base import STORE_KEY_EXCLUDED_FIELDS, StoreSpec

    diagnostics: list[Diagnostic] = []
    excluded = set(STORE_KEY_EXCLUDED_FIELDS)
    spec_fields = {
        field.name for field in dataclasses.fields(StoreSpec) if field.init
    }
    for name in sorted(spec_fields - excluded):
        diagnostics.append(
            Diagnostic(
                rule="K404",
                severity=ERROR,
                location=f"spec:StoreSpec.{name}",
                message=(
                    f"StoreSpec field {name!r} is not audited in "
                    f"STORE_KEY_EXCLUDED_FIELDS: its cache-key status is "
                    f"undecided"
                ),
                hint=(
                    "add the field to STORE_KEY_EXCLUDED_FIELDS in "
                    "repro.store.base (store selection must never key trials)"
                ),
            )
        )
    for name in sorted(excluded - spec_fields):
        diagnostics.append(
            Diagnostic(
                rule="K404",
                severity=ERROR,
                location=f"spec:StoreSpec.{name}",
                message=(
                    f"STORE_KEY_EXCLUDED_FIELDS lists {name!r} but StoreSpec "
                    f"has no such field"
                ),
                hint="the audit list and StoreSpec drifted; update one of them",
            )
        )
    return diagnostics + _identity_collisions(
        excluded,
        "K405",
        "store-selection",
        "rename one side; trial identity and result placement must stay "
        "orthogonal",
    )


# ---------------------------------------------------------------------------
# Process-state key exclusion
# ---------------------------------------------------------------------------


def _audited_specs() -> list:
    """Every spec the ``K401`` audit builds: the shared baseline and each
    perturbation's baseline and variant (an unbuildable one is K403's)."""
    from repro.harness.parallel import TrialSpec

    baseline, perturbations = trial_spec_perturbations()
    specs = []
    for perturbation in perturbations:
        kwargs = {**baseline, **perturbation.base}
        for value in (kwargs[perturbation.field], perturbation.variant):
            try:
                specs.append(TrialSpec(**{**kwargs, perturbation.field: value}))
            except (ReproError, TypeError):
                continue
    return [TrialSpec(**baseline), *specs]


def _keys_move(state: Callable, values: Sequence[object]) -> bool:
    """Whether any audited spec's ``cache_key()`` changes as the context
    manager ``state(value)`` sets one piece of process state to each value
    in turn."""
    specs = _audited_specs()
    keys = set()
    for value in values:
        with state(value):
            keys.add(tuple(spec.cache_key() for spec in specs))
    return len(keys) > 1


def _identity_collisions(names, rule: str, what: str, hint: str) -> list[Diagnostic]:
    """One diagnostic per name that is a ``TrialSpec`` field or a key of
    the baseline spec's cache payload."""
    from repro.harness.parallel import TrialSpec

    baseline, _ = trial_spec_perturbations()
    payload_keys = set(TrialSpec(**baseline).cache_payload())
    trial_fields = {
        field.name for field in dataclasses.fields(TrialSpec) if field.init
    }
    diagnostics = []
    for name in sorted(set(names)):
        if name in trial_fields or name in payload_keys:
            where = "field set" if name in trial_fields else "key payload"
            diagnostics.append(
                Diagnostic(
                    rule=rule,
                    severity=ERROR,
                    location=f"spec:TrialSpec.{name}",
                    message=(
                        f"{what} name {name!r} appears in TrialSpec's {where}: "
                        f"it would leak into the cache key and split "
                        f"identical trials"
                    ),
                    hint=hint,
                )
            )
    return diagnostics


@contextlib.contextmanager
def _recorder(enabled: bool):
    from repro.obs.recorder import RECORDER

    prior = RECORDER.enabled
    RECORDER.enabled = enabled
    try:
        yield
    finally:
        RECORDER.enabled = prior


@contextlib.contextmanager
def _backend_variable(value: str | None):
    from repro.backend import ENV_BACKEND

    prior = os.environ.pop(ENV_BACKEND, None)
    if value is not None:
        os.environ[ENV_BACKEND] = value
    try:
        yield
    finally:
        os.environ.pop(ENV_BACKEND, None)
        if prior is not None:
            os.environ[ENV_BACKEND] = prior


def telemetry_exclusion_diagnostics(
    manifest_fields: Sequence[str] | None = None,
    telemetry_key: str | None = None,
) -> list[Diagnostic]:
    """Prove telemetry can never participate in trial identity (``K406``).

    Flipping the process-global recorder on must leave every audited
    spec's ``cache_key()`` byte-identical, and neither the ``extra`` key
    manifests ride under (``"telemetry"``) nor any top-level manifest field
    may be a ``TrialSpec`` field or cache-payload key — a collision is how
    a future refactor would silently promote telemetry into identity.

    ``manifest_fields`` / ``telemetry_key`` default to the real constants
    from :mod:`repro.obs.manifest`; tests inject drifted values to prove
    the rule actually fires.
    """
    from repro.obs.manifest import MANIFEST_FIELDS, TELEMETRY_KEY

    if manifest_fields is None:
        manifest_fields = MANIFEST_FIELDS
    if telemetry_key is None:
        telemetry_key = TELEMETRY_KEY
    diagnostics: list[Diagnostic] = []
    if _keys_move(_recorder, [False, True]):
        diagnostics.append(
            Diagnostic(
                rule="K406",
                severity=ERROR,
                location="spec:TrialSpec.cache_key",
                message=(
                    "enabling the telemetry recorder changes cache_key(): "
                    "telemetry state leaks into trial identity, so a "
                    "--telemetry sweep would fork the cache of an identical "
                    "plain sweep"
                ),
                hint=(
                    "cache_payload() must not read repro.obs state; "
                    "telemetry belongs only under record.extra['telemetry']"
                ),
            )
        )
    diagnostics += _identity_collisions(
        [telemetry_key, *manifest_fields],
        "K406",
        "telemetry/manifest",
        "rename the manifest field (repro.obs.manifest.MANIFEST_FIELDS) or "
        "the spec field; trial identity and observation must stay orthogonal",
    )
    return diagnostics


def backend_exclusion_diagnostics(
    backend_names: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Prove the array backend can never participate in trial identity
    (``K407``).

    Every audited spec's ``cache_key()`` must be byte-identical with
    ``REPRO_BACKEND`` unset and set to each registered backend, and no
    backend name, nor ``backend`` itself, may be a ``TrialSpec`` field or
    cache-payload key.  ``backend_names`` defaults to the registered names;
    tests inject drifted values to prove the rule fires.
    """
    from repro.backend import ENV_BACKEND, backend_names as registered

    names = tuple(registered() if backend_names is None else backend_names)
    diagnostics: list[Diagnostic] = []
    if _keys_move(_backend_variable, [None, *names]):
        diagnostics.append(
            Diagnostic(
                rule="K407",
                severity=ERROR,
                location="spec:TrialSpec.cache_key",
                message=(
                    f"setting {ENV_BACKEND} changes cache_key(): the process's "
                    f"backend leaks into trial identity, so one trial run on "
                    f"two backends would get two keys although every backend "
                    f"makes the same draws"
                ),
                hint=(
                    "cache_payload() must not read the backend; it is a "
                    "setting of the process (--backend or REPRO_BACKEND)"
                ),
            )
        )
    diagnostics += _identity_collisions(
        ["backend", *names],
        "K407",
        "array-backend",
        "the backend is a setting of the process, never a trial field; "
        "rename the spec field",
    )
    return diagnostics


# ---------------------------------------------------------------------------
# Capability-matrix coverage
# ---------------------------------------------------------------------------


def declared_scheduler_cells() -> set[tuple[str, str]]:
    """Every (engine, scheduler) cell the capability matrix declares runnable."""
    from repro.engine.selection import engine_scheduler_matrix

    return {
        (engine, scheduler)
        for engine, schedulers in engine_scheduler_matrix().items()
        for scheduler in schedulers
    }


def declared_backend_cells() -> set[tuple[str, str]]:
    """Every (array-engine, backend) cell the backend registry declares."""
    from repro.backend import BACKEND_NAMES
    from repro.engine.selection import ARRAY_ENGINE_NAMES

    return {
        (engine, backend)
        for engine in ARRAY_ENGINE_NAMES
        for backend in BACKEND_NAMES
    }


def exercised_cells(
    grid_path: str | Path,
) -> tuple[set[tuple[str, str]] | None, set[tuple[str, str]] | None]:
    """Parse the grid module's literal coverage constants (no test import)."""
    tree = ast.parse(Path(grid_path).read_text(encoding="utf-8"))
    found: dict[str, set[tuple[str, str]]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in (
                "EXERCISED_CELLS",
                "EXERCISED_BACKEND_CELLS",
            ):
                value = ast.literal_eval(node.value)
                found[target.id] = {(str(a), str(b)) for a, b in value}
    return found.get("EXERCISED_CELLS"), found.get("EXERCISED_BACKEND_CELLS")


def capability_matrix_diagnostics(root: str | Path = ".") -> list[Diagnostic]:
    """Cross-check declared capability cells against the test grid's coverage."""
    grid_path = Path(root) / GRID_TEST_PATH
    location = str(GRID_TEST_PATH)
    if not grid_path.exists():
        return [
            Diagnostic(
                rule="M503",
                severity=ERROR,
                location=location,
                message="cross-engine grid test module not found",
                hint="run repro check from the repository root",
            )
        ]
    try:
        scheduler_cells, backend_cells = exercised_cells(grid_path)
    except (SyntaxError, ValueError) as error:
        return [
            Diagnostic(
                rule="M503",
                severity=ERROR,
                location=location,
                message=f"could not parse coverage constants: {error}",
                hint="EXERCISED_CELLS must be a literal of (engine, scheduler) pairs",
            )
        ]
    diagnostics: list[Diagnostic] = []
    for constant, exercised, declared, kind in (
        ("EXERCISED_CELLS", scheduler_cells, declared_scheduler_cells(), "scheduler"),
        ("EXERCISED_BACKEND_CELLS", backend_cells, declared_backend_cells(), "backend"),
    ):
        if exercised is None:
            diagnostics.append(
                Diagnostic(
                    rule="M503",
                    severity=ERROR,
                    location=location,
                    message=f"coverage constant {constant} not found",
                    hint="declare the grid's coverage as a module-level literal",
                )
            )
            continue
        for engine, other in sorted(declared - exercised):
            diagnostics.append(
                Diagnostic(
                    rule="M501",
                    severity=ERROR,
                    location=location,
                    message=(
                        f"declared {kind} cell ({engine}, {other}) is not "
                        f"exercised by the cross-engine test grid"
                    ),
                    hint=f"add the cell to the grid tests and to {constant}",
                )
            )
        for engine, other in sorted(exercised - declared):
            diagnostics.append(
                Diagnostic(
                    rule="M502",
                    severity=ERROR,
                    location=location,
                    message=(
                        f"{constant} lists ({engine}, {other}) but the "
                        f"capability matrix does not declare that {kind} cell"
                    ),
                    hint="the matrix and the grid drifted; update one of them",
                )
            )
    return diagnostics


def contract_diagnostics(root: str | Path = ".") -> list[Diagnostic]:
    """All contract checks: cache keys, store/telemetry/backend exclusion,
    coverage."""
    return (
        cache_key_diagnostics()
        + store_exclusion_diagnostics()
        + telemetry_exclusion_diagnostics()
        + backend_exclusion_diagnostics()
        + capability_matrix_diagnostics(root)
    )
