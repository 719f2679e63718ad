"""The repository's committed waivers: every exception, with its reason.

A waiver never hides a finding — waived diagnostics still print, marked with
the justification below, and a waiver that stops matching anything is itself
reported (rule ``W001``).  Additions to this list belong in code review, not
in a local config: the point is that the repo's recorded exceptions are the
*only* exceptions.
"""

from __future__ import annotations

from repro.staticcheck.diagnostics import Waiver

__all__ = ["BUILTIN_WAIVERS"]

BUILTIN_WAIVERS: tuple[Waiver, ...] = (
    Waiver(
        rule="D302",
        location="src/repro/store/",
        justification=(
            "lease expiry is *about* wall-clock time: claims record "
            "acquired_at/expires_at so crashed drivers' trials are "
            "reclaimable, and throughput reports derive from append "
            "timestamps — all store metadata, never part of a RunRecord, "
            "so simulation results stay deterministic"
        ),
    ),
    Waiver(
        rule="D302",
        location="src/repro/obs/",
        justification=(
            "the telemetry recorder is the repository's single clock site: "
            "instrumented hot paths read time only through "
            "Recorder.now_ns() (time.perf_counter_ns, monotonic), metrics "
            "and manifests are observational — excluded from cache keys by "
            "contract K406 and never read back by any simulation path, so "
            "trajectories and records stay bit-identical with telemetry on "
            "or off (tests/obs/test_telemetry_identical.py)"
        ),
    ),
    Waiver(
        rule="P102",
        location="protocol:leader",
        justification=(
            "leader election's output is intentionally non-consensus: one "
            "agent outputs True among False followers, so the stable silent "
            "configuration {L, F} disagreeing on output is the spec, not a "
            "bug"
        ),
    ),
    Waiver(
        rule="P102",
        location="protocol:termination",
        justification=(
            "the counter-termination workload signals via the surviving "
            "candidate's output, so terminated candidate/follower states "
            "disagree by design (per-agent termination detection, paper "
            "Section 3.4)"
        ),
    ),
)
