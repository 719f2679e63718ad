"""T-OBS-OVERHEAD — telemetry cost gate on the batched-epidemic hot path.

Each hot loop has one path (DESIGN.md "Observability"): its chunk-level
recording blocks — one per convergence-check chunk of the shared
``run_until`` loop and one per ``run_interactions`` call it makes — run
whether or not telemetry is on, and ``--telemetry`` only decides what is
emitted.  The layer promises that this is

* **near-free when off** — gate: the projected cost of the always-on
  recording blocks stays below **0.5%** of the baseline runtime.
* **cheap when on** — emitting adds nothing per chunk on this path.  Gate:
  an enabled run stays within **3%** of a disabled run.

Both gates drive the batched epidemic at ``REPRO_OBS_N`` agents (default
1,000,000 — the acceptance scale) through ``run_until`` with the sweep
driver's default check interval (``n`` interactions) for
``REPRO_OBS_INTERACTIONS`` interactions per side (default 12,000,000:
twelve chunks at the default ``n``, about half a second on a 2-vCPU VM).
The enabled gate runs ``REPRO_OBS_ROUNDS`` alternating pairs (default 11).
In a pair, a telemetry-off and a telemetry-on engine take turns one
``run_until`` chunk at a time, swapping which side goes first at every
chunk and every pair, so machine noise and run order land on both sides
alike.  The gate judges the median of the per-pair on/off time ratios: the
two sides run the same code path, so best-of runs of each side mostly
measure noise on a shared machine, while the paired median ignores the odd
pair that a busy neighbour distorts.

The no-op gate cannot diff against a tree without the blocks (they are
permanently in the code), so it bounds their cost from first principles:
time a tight loop of the recorder calls one chunk makes, read how
many chunks the disabled side recorded (``engine.convergence_checks``, which
the recorder keeps with telemetry off), and project
``chunk_cost x chunk_count / baseline_runtime``, the baseline being the
median disabled run.  That projection is an overestimate (the measured loop
includes its own loop overhead), which is the conservative direction for a
gate.

Also a script::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

printing the measurements and exiting non-zero on a gate failure — this is
what the CI perf-regression job runs.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.engine.selection import build_engine
from repro.obs.recorder import RECORDER
from repro.protocols.epidemic import EpidemicProtocol

OBS_N = int(os.environ.get("REPRO_OBS_N", "1000000"))
OBS_INTERACTIONS = int(os.environ.get("REPRO_OBS_INTERACTIONS", "12000000"))
OBS_ROUNDS = int(os.environ.get("REPRO_OBS_ROUNDS", "11"))

#: Gate thresholds from the telemetry design contract.
ENABLED_OVERHEAD_LIMIT = 0.03
NOOP_OVERHEAD_LIMIT = 0.005


def _timed_pair(first_enabled: bool, seed: int = 3) -> tuple[dict, int]:
    """Seconds each side of one pair spent in ``run_until``, keyed by the
    telemetry flag, and the convergence checks the off side recorded."""
    engines = {}
    for enabled in (False, True):
        engines[enabled] = build_engine(
            "batched", EpidemicProtocol(), OBS_N, seed=seed, backend="numpy"
        )
        engines[enabled].run_interactions(10_000)  # warm-up outside timed region
    elapsed = {False: 0.0, True: 0.0}
    checks = 0
    order = (first_enabled, not first_enabled)
    prior = RECORDER.enabled
    try:
        for _ in range(max(1, OBS_INTERACTIONS // OBS_N)):
            for enabled in order:
                simulator = engines[enabled]
                stop = simulator.interactions + OBS_N
                RECORDER.enabled = enabled
                before = RECORDER.counters.get("engine.convergence_checks", 0)
                started = time.perf_counter()
                simulator.run_until(
                    lambda sim: sim.interactions >= stop, max_parallel_time=1.0
                )
                elapsed[enabled] += time.perf_counter() - started
                if not enabled:
                    checks += RECORDER.counters["engine.convergence_checks"] - before
            order = order[::-1]
    finally:
        RECORDER.enabled = prior
        RECORDER.reset()
    return elapsed, checks


def _chunk_recording_cost_seconds(evaluations: int = 200_000) -> float:
    """Measured cost of one chunk's always-on recording: the recorder
    calls of the ``run_until_predicate`` block plus those of the batched
    ``run_interactions`` block it wraps."""
    recorder = RECORDER
    try:
        started = time.perf_counter()
        for _ in range(evaluations):
            t0 = recorder.now_ns()
            t_kernel = recorder.now_ns()
            recorder.add_time("backend.kernel_advance", recorder.now_ns() - t_kernel)
            recorder.count("backend.kernel_advances", 1)
            recorder.count("engine.batched_batches", 1)
            recorder.count("engine.fallback_batches", 0)
            recorder.count("engine.interactions", 1)
            t1 = recorder.now_ns()
            recorder.add_time("engine.step", t1 - t0)
            recorder.add_time("engine.convergence_check", recorder.now_ns() - t1)
            recorder.count("engine.convergence_checks")
        elapsed = time.perf_counter() - started
    finally:
        recorder.reset()
    return elapsed / evaluations


def run_overhead_gate() -> tuple[dict, list[str]]:
    """Measure both overheads; return (report, gate failures)."""
    failures: list[str] = []

    ratios: list[float] = []
    baseline_runs: list[float] = []
    enabled_runs: list[float] = []
    for round_index in range(OBS_ROUNDS):
        elapsed, chunk_count = _timed_pair(first_enabled=round_index % 2 == 1)
        baseline_runs.append(elapsed[False])
        enabled_runs.append(elapsed[True])
        ratios.append(elapsed[True] / elapsed[False])
    baseline_seconds = statistics.median(baseline_runs)
    enabled_seconds = statistics.median(enabled_runs)
    ratio_q1, _, ratio_q3 = (
        statistics.quantiles(ratios, n=4, method="inclusive")
        if len(ratios) > 1 else ratios * 3
    )

    enabled_overhead = statistics.median(ratios) - 1.0
    if enabled_overhead > ENABLED_OVERHEAD_LIMIT:
        failures.append(
            f"enabled telemetry costs {enabled_overhead:+.2%} (median of "
            f"{OBS_ROUNDS} alternating pairs) on the batched epidemic hot path "
            f"(limit {ENABLED_OVERHEAD_LIMIT:.1%})"
        )

    chunk_count = max(1, chunk_count)
    chunk_seconds = _chunk_recording_cost_seconds()
    noop_overhead = chunk_seconds * chunk_count / baseline_seconds
    if noop_overhead > NOOP_OVERHEAD_LIMIT:
        failures.append(
            f"projected always-on recording overhead is {noop_overhead:.3%} "
            f"({chunk_count} chunks x {chunk_seconds * 1e9:.0f}ns over a "
            f"{baseline_seconds:.3f}s run; limit {NOOP_OVERHEAD_LIMIT:.1%})"
        )

    report = {
        "population_size": OBS_N,
        "interactions": OBS_INTERACTIONS,
        "rounds": OBS_ROUNDS,
        "baseline_seconds": baseline_seconds,
        "enabled_seconds": enabled_seconds,
        "enabled_overhead": enabled_overhead,
        "overhead_quartiles": (ratio_q1 - 1.0, ratio_q3 - 1.0),
        "chunk_count": chunk_count,
        "chunk_ns": chunk_seconds * 1e9,
        "noop_overhead": noop_overhead,
    }
    return report, failures


# -- pytest entry (collected by the benchmark job's bench_* matcher) ------------


def bench_obs_overhead_gate():
    """The CI gate as a test: telemetry must stay within its overhead budget."""
    report, failures = run_overhead_gate()
    assert report["baseline_seconds"] > 0
    assert not failures, "; ".join(failures)


def main() -> int:
    print(
        f"telemetry overhead: batched epidemic, n={OBS_N:,}, "
        f"{OBS_INTERACTIONS:,} interactions, {OBS_ROUNDS} alternating pairs"
    )
    report, failures = run_overhead_gate()
    low, high = report["overhead_quartiles"]
    print(f"  telemetry off : {report['baseline_seconds']:7.3f}s (median)")
    print(f"  telemetry on  : {report['enabled_seconds']:7.3f}s (median)")
    print(
        f"  paired on/off : {report['enabled_overhead']:+.2%} median, "
        f"quartiles {low:+.2%} / {high:+.2%} (limit {ENABLED_OVERHEAD_LIMIT:.1%})"
    )
    print(
        f"  always-on     : {report['chunk_count']} chunks x "
        f"{report['chunk_ns']:.0f}ns = {report['noop_overhead']:.4%} "
        f"projected (limit {NOOP_OVERHEAD_LIMIT:.1%})"
    )
    for failure in failures:
        print(f"  GATE FAILURE: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
