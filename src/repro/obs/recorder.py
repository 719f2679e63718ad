"""The process-global telemetry recorder: counters, timers and spans.

Design constraints (see DESIGN.md "Observability"):

**Always accumulating, emitted on demand.**  Each hot loop has one path:
chunk-level blocks (a ``run_interactions`` call, a convergence-check chunk,
a multiscale advance, an SSA run, a store call) record counters and timers
unconditionally, never per interaction.  The vector engine's per-round
timing is the one exception and records only while the recorder is
enabled.  :attr:`Recorder.enabled` (default off, ``--telemetry``) decides
what is *emitted*: run manifests, spans, the trace spool and the CLI
summary.  ``benchmarks/bench_obs_overhead.py`` gates the always-on blocks
below 0.5% of the batched epidemic hot path.

**Determinism.**  The recorder never draws randomness and never influences
a simulation: it only *reads* monotonic clocks (``time.perf_counter_ns``,
the sole wall-clock use in this package, waivered under D302) and
accumulates into plain dicts.  Enabling telemetry must not change a single
byte of any trajectory, record, or cache key — proven by the K406 contract
audit and the golden-stream tests in ``tests/obs``.

**Single clock site.**  Call sites never import :mod:`time`; they ask the
recorder for timestamps (:meth:`Recorder.now_ns`).  That keeps the D302
determinism-lint waiver confined to ``src/repro/obs/`` instead of leaking
into every instrumented engine file.

Span events accumulate in Chrome trace-event form (phase ``"X"`` complete
events, microsecond timestamps) so :mod:`repro.obs.trace` can export them
to a Perfetto-loadable file without translation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Recorder",
    "RecorderMark",
    "RECORDER",
    "set_telemetry",
    "recording",
]


@dataclass(frozen=True)
class RecorderMark:
    """A point-in-time snapshot used to compute per-trial deltas.

    :meth:`Recorder.mark` captures the current counter/timer totals and the
    trace-event cursor; :meth:`Recorder.since` subtracts them out, so one
    process-global recorder can still attribute work to individual trials
    run back-to-back in the same process.
    """

    counters: dict[str, int]
    timers_ns: dict[str, int]
    event_index: int
    t_ns: int


class Recorder:
    """Accumulates counters, monotonic timings, and span events.

    All methods are cheap dict updates and record whether or not the
    recorder is :attr:`enabled`; ``enabled`` only tells call sites whether
    to emit (manifests, spans, spool) and the vector round whether to time
    itself.
    """

    __slots__ = (
        "enabled",
        "counters",
        "timers_ns",
        "events",
        "spool_dir",
        "_origin_ns",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, int] = {}
        self.timers_ns: dict[str, int] = {}
        #: Pending Chrome trace events (phase "X"), flushed by flush_spool().
        self.events: list[dict] = []
        #: Directory for per-process trace spool files (None = keep in memory).
        self.spool_dir: str | None = None
        self._origin_ns = time.perf_counter_ns()

    # -- clock ---------------------------------------------------------------

    def now_ns(self) -> int:
        """Monotonic nanoseconds; the only clock the instrumented paths see."""
        return time.perf_counter_ns()

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def add_time(self, name: str, elapsed_ns: int) -> None:
        """Accumulate ``elapsed_ns`` into the timer ``name``."""
        self.timers_ns[name] = self.timers_ns.get(name, 0) + elapsed_ns

    # -- spans ---------------------------------------------------------------

    def add_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        category: str = "repro",
        args: dict | None = None,
    ) -> None:
        """Record a completed span as a Chrome trace-event dict."""
        event = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": (start_ns - self._origin_ns) / 1000.0,
            "dur": max(0.0, (end_ns - start_ns) / 1000.0),
            "pid": os.getpid(),
            "tid": threading.get_ident() % 2**31,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    @contextmanager
    def span(self, name: str, category: str = "repro", args: dict | None = None):
        """Context manager recording the enclosed block as one span."""
        start = self.now_ns()
        try:
            yield
        finally:
            self.add_span(name, start, self.now_ns(), category=category, args=args)

    # -- marks / snapshots ---------------------------------------------------

    def mark(self) -> RecorderMark:
        """Snapshot totals so :meth:`since` can attribute a delta."""
        return RecorderMark(
            counters=dict(self.counters),
            timers_ns=dict(self.timers_ns),
            event_index=len(self.events),
            t_ns=self.now_ns(),
        )

    def since(self, mark: RecorderMark) -> dict:
        """Counters/timers accumulated since ``mark`` (plus elapsed time).

        Returns ``{"counters": {...}, "timing": {...seconds...}}`` with
        zero-delta entries dropped and ``timing["total"]`` always present.
        """
        counters = {
            name: value - mark.counters.get(name, 0)
            for name, value in self.counters.items()
            if value - mark.counters.get(name, 0)
        }
        timing = {
            name: (value - mark.timers_ns.get(name, 0)) / 1e9
            for name, value in self.timers_ns.items()
            if value - mark.timers_ns.get(name, 0)
        }
        timing["total"] = (self.now_ns() - mark.t_ns) / 1e9
        return {"counters": counters, "timing": timing}

    def snapshot(self) -> dict:
        """All totals as a JSON-ready dict (timers converted to seconds)."""
        return {
            "counters": dict(self.counters),
            "timing": {name: ns / 1e9 for name, ns in self.timers_ns.items()},
        }

    # -- spool ---------------------------------------------------------------

    def flush_spool(self) -> str | None:
        """Append pending span events to this process's spool file.

        One JSON trace event per line, in ``{spool_dir}/trace-{pid}.jsonl``;
        per-process files mean concurrent sweep workers never interleave
        within a line.  Returns the spool path (``None`` when no spool
        directory is configured — events then stay in :attr:`events`).
        """
        if self.spool_dir is None or not self.events:
            return None
        os.makedirs(self.spool_dir, exist_ok=True)
        path = os.path.join(self.spool_dir, f"trace-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        self.events.clear()
        return path

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Clear every accumulated metric and pending event."""
        self.counters.clear()
        self.timers_ns.clear()
        self.events.clear()
        self._origin_ns = time.perf_counter_ns()


#: The process-global recorder.  The singleton is never replaced (call sites
#: bind it at import time); state is toggled/cleared in place via
#: set_telemetry() / reset().
RECORDER = Recorder()


def set_telemetry(enabled: bool, spool_dir: str | None = None) -> Recorder:
    """Enable or disable the global recorder; optionally attach a spool dir."""
    RECORDER.enabled = enabled
    if spool_dir is not None:
        RECORDER.spool_dir = spool_dir
    return RECORDER


@contextmanager
def recording(spool_dir: str | None = None):
    """Enable the global recorder for a block, restoring the prior state.

    Primarily for tests and short-lived CLI invocations; leaves accumulated
    metrics in place (callers snapshot or reset explicitly).
    """
    prior_enabled = RECORDER.enabled
    prior_spool = RECORDER.spool_dir
    RECORDER.enabled = True
    if spool_dir is not None:
        RECORDER.spool_dir = spool_dir
    try:
        yield RECORDER
    finally:
        RECORDER.enabled = prior_enabled
        RECORDER.spool_dir = prior_spool
