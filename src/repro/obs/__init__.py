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

from repro.obs.manifest import (
    MANIFEST_FIELDS,
    MANIFEST_SCHEMA_VERSION,
    TELEMETRY_KEY,
    trial_manifest,
)
from repro.obs.progress import (
    ProgressView,
    StatusWatcher,
    SweepProgress,
    render_progress_line,
)
from repro.obs.recorder import (
    RECORDER,
    Recorder,
    RecorderMark,
    recording,
    set_telemetry,
)
from repro.obs.trace import (
    collect_spool_events,
    export_spool,
    validate_trace,
    write_chrome_trace,
)

__all__ = [
    "RECORDER",
    "Recorder",
    "RecorderMark",
    "recording",
    "set_telemetry",
    "TELEMETRY_KEY",
    "MANIFEST_FIELDS",
    "MANIFEST_SCHEMA_VERSION",
    "trial_manifest",
    "SweepProgress",
    "ProgressView",
    "StatusWatcher",
    "render_progress_line",
    "collect_spool_events",
    "export_spool",
    "validate_trace",
    "write_chrome_trace",
]
