"""Per-trial run manifests: provenance + telemetry attached to sweep records.

A manifest is a plain JSON-ready dict describing *how one trial actually
ran*: the spec hash it executed under, the full seed lineage, the resolved
engine/backend/scheduler, the counters the instrumented hot paths
accumulated (kernel batches, regime switches, store ops, ...), and the
timing breakdown by phase.

Manifests ride on the record under ``record.extra["telemetry"]`` — and
that key is **contractually excluded from cache keys** (staticcheck rule
K406): two runs of the same spec are the same trial no matter what their
telemetry says.  Nothing in a manifest may ever feed back into a cache
key, a trajectory, or a convergence decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.parallel import TrialSpec
    from repro.obs.recorder import Recorder

__all__ = [
    "TELEMETRY_KEY",
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_FIELDS",
    "trial_manifest",
]

#: The key under ``RunRecord.extra`` that carries the manifest.  Audited by
#: staticcheck rule K406: it must never appear among TrialSpec's fields or
#: in the canonical cache-key payload.
TELEMETRY_KEY = "telemetry"

MANIFEST_SCHEMA_VERSION = 1

#: Every top-level manifest field.  K406 perturbation-proves that none of
#: these names collides with a TrialSpec field or cache-payload key, so a
#: manifest can never silently become part of trial identity.
MANIFEST_FIELDS = (
    "schema",
    "spec_hash",
    "seed_lineage",
    "resolution",
    "counters",
    "timing",
)


def _resolved_backend_name(spec: "TrialSpec") -> str | None:
    """The array-backend name this spec resolves to, or None for a trial
    that never touches the backend seam: a sequential reference trial, or
    one on an engine the engine table does not list in
    ``ARRAY_ENGINE_NAMES`` (the per-interaction agent and count engines)."""
    from repro.engine.selection import ARRAY_ENGINE_NAMES

    if spec.kind == "sequential" or spec.engine not in ARRAY_ENGINE_NAMES:
        return None
    requested = dict(spec.engine_options).get("backend")
    try:
        from repro.backend import resolve_backend

        return resolve_backend(requested).name
    except Exception:
        # An unresolvable backend fails loudly at trial run time; the
        # manifest only reports, so fall back to the raw request here.
        return str(requested) if requested is not None else None


def trial_manifest(spec: "TrialSpec", delta: dict) -> dict:
    """Build the run manifest for one executed trial.

    Parameters
    ----------
    spec:
        The trial that ran.
    delta:
        ``Recorder.since(mark)`` output for the trial's execution window —
        ``{"counters": ..., "timing": ...}`` with timing in seconds.
    """
    scheduler_spec = spec.scheduler_spec()
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "spec_hash": spec.cache_key(),
        "seed_lineage": {
            "base_seed": spec.base_seed,
            "size_index": spec.size_index,
            "run_index": spec.run_index,
            "seed": spec.seed,
        },
        "resolution": {
            "kind": spec.kind,
            "engine": spec.engine,
            "backend": _resolved_backend_name(spec),
            "scheduler": scheduler_spec.name if scheduler_spec is not None else None,
        },
        "counters": dict(delta.get("counters", {})),
        "timing": dict(delta.get("timing", {})),
    }
