"""``repro.obs`` — the unified telemetry subsystem.

Structured metrics (counters, monotonic timers), span-style traces,
per-trial run manifests, and live progress views, all behind one
process-global :class:`~repro.obs.recorder.Recorder` whose default-off
``enabled`` flag decides what is emitted.  See DESIGN.md "Observability"
for the architecture, the overhead contract (<0.5% for the always-on
blocks / <3% enabled on the batched epidemic hot path, gated by
``benchmarks/bench_obs_overhead.py``), and the determinism stance (no RNG,
monotonic clocks only, D302-waivered, K406-audited out of every cache
key).
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "recorder": [
        "RECORDER",
        "Recorder",
        "RecorderMark",
        "recording",
        "set_telemetry",
    ],
    "manifest": [
        "TELEMETRY_KEY",
        "MANIFEST_FIELDS",
        "MANIFEST_SCHEMA_VERSION",
        "trial_manifest",
    ],
    "progress": [
        "SweepProgress",
        "ProgressView",
        "StatusWatcher",
        "render_progress_line",
    ],
    "trace": [
        "collect_spool_events",
        "export_spool",
        "validate_trace",
        "write_chrome_trace",
    ],
})
