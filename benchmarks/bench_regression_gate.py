"""T-GATE — the enforced perf-regression gate over the four BENCH families.

``BENCH_engines.json`` / ``BENCH_schedulers.json`` / ``BENCH_crn.json`` /
``BENCH_multiscale.json`` are *trajectory* artifacts: full-scale benchmark
runs committed for the record but far too slow to re-measure on every push.
This gate replays a tiny-``n`` slice of each family against
**committed baselines**
(``benchmarks/baselines/regression_gate.json``) and fails when

* a slice's throughput falls more than ``REGRESSION_TOLERANCE`` (30%) below
  its baseline floor — floors are stored as a *fraction of a calibration
  rate* (elementwise numpy throughput, the same machine-speed proxy as
  ``bench_backend_smoke``), so the gate tracks runner speed instead of
  hard-coding seconds; or
* any accuracy bound is violated at all: every trial of every slice must
  converge, and the size-estimation slice's additive error must stay within
  its committed bound — accuracy gets **zero** tolerance because it drifts
  only when the simulation itself changed.

The gate must demonstrably gate: setting ``REPRO_GATE_THROTTLE`` (seconds
of artificial stall injected into every timed region) makes the run fail,
and CI runs one throttled job asserting exactly that, so a gate that
silently stopped failing is itself caught.

Also a script::

    PYTHONPATH=src python benchmarks/bench_regression_gate.py

printing each slice's measurements vs its floor and exiting non-zero on any
regression — this is what the CI ``perf-regression-gate`` job runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "regression_gate.json"
#: Maximum tolerated throughput shortfall before the gate fails (matches
#: bench_backend_smoke).  Accuracy bounds get no tolerance at all.
REGRESSION_TOLERANCE = 0.30
#: Artificial stall (seconds) added inside every timed region; the CI
#: self-test sets this to prove a slowdown actually fails the job.
GATE_THROTTLE = float(os.environ.get("REPRO_GATE_THROTTLE", "0") or 0)


def _calibration_rate() -> float:
    """Machine-speed proxy: elementwise-multiply throughput (ops/second)."""
    block = np.random.default_rng(0).random(1_000_000)
    started = time.perf_counter()
    for _ in range(20):
        block = block * 1.0000001
    elapsed = time.perf_counter() - started
    return 20 * block.size / max(elapsed, 1e-9)


def _timed(thunk):
    """Run ``thunk`` under the wall clock, plus any injected throttle."""
    started = time.perf_counter()
    value = thunk()
    if GATE_THROTTLE > 0:
        time.sleep(GATE_THROTTLE)
    return value, time.perf_counter() - started


# -- the four slices ------------------------------------------------------------
#
# Each returns {"interactions": int, "seconds": float, "accuracy": [failures]}.
# Workload scales are env-tunable but default to a couple of seconds total.

ENGINE_N = int(os.environ.get("REPRO_GATE_ENGINE_N", "20000"))
ENGINE_INTERACTIONS = int(os.environ.get("REPRO_GATE_ENGINE_INTERACTIONS", "500000"))
SCHED_SIZES = (128, 192)
SCHED_RUNS = 2
CRN_N = int(os.environ.get("REPRO_GATE_CRN_N", "2000"))
CRN_RUNS = 2
MULTISCALE_N = int(float(os.environ.get("REPRO_GATE_MULTISCALE_N", "1e7")))
#: Additive-error bound for the size-estimation (schedulers-family) slice.
#: Theorem 3.1 promises error ~1 whp at large n; at these tiny sizes the
#: committed bound is measured-plus-slack and any drift past it means the
#: estimation pipeline itself changed.
ESTIMATION_ERROR_BOUND_KEY = "estimation_error_bound"


def slice_engines() -> dict:
    """BENCH_engines slice: batched epidemic throughput at tiny n."""
    from repro.engine.selection import build_engine
    from repro.protocols.epidemic import EpidemicProtocol

    simulator = build_engine("batched", EpidemicProtocol(), ENGINE_N, seed=1)
    simulator.run_interactions(10_000)  # warm-up outside the timed region
    _, elapsed = _timed(lambda: simulator.run_interactions(ENGINE_INTERACTIONS))
    return {
        "interactions": ENGINE_INTERACTIONS,
        "seconds": elapsed,
        "accuracy": [],
    }


def slice_schedulers(baseline: dict) -> dict:
    """BENCH_schedulers slice: size estimation under the default matching
    round scheduler.

    Accuracy criteria: every run converges and the worst additive error of
    the log2(n) estimate stays within the committed bound.
    """
    from repro.harness.parallel import get_workload, run_trials

    result, elapsed = _timed(
        lambda: run_trials(
            get_workload("figure2").trials(SCHED_SIZES, SCHED_RUNS, base_seed=11)
        )
    )
    failures = []
    interactions = 0
    worst = 0.0
    for record in result.records:
        interactions += int(record.extra.get("interactions", 0) or 0)
        if not record.converged:
            failures.append(
                f"estimation run n={record.population_size} "
                f"seed={record.seed} did not converge"
            )
        elif math.isfinite(record.max_additive_error):
            worst = max(worst, record.max_additive_error)
    bound = baseline[ESTIMATION_ERROR_BOUND_KEY]
    if worst > bound:
        failures.append(
            f"size-estimation additive error {worst:.3f} exceeds the "
            f"committed bound {bound:.3f}"
        )
    return {"interactions": interactions, "seconds": elapsed, "accuracy": failures}


def slice_crn() -> dict:
    """BENCH_crn slice: approximate-majority on the batched engine."""
    from repro.harness.parallel import build_crn_trials, run_trials

    specs = build_crn_trials(
        population_sizes=[CRN_N],
        runs_per_size=CRN_RUNS,
        crn="approximate-majority",
        base_seed=3,
        engine="batched",
    )
    outcome, elapsed = _timed(lambda: run_trials(specs))
    failures = []
    interactions = 0
    for record in outcome.records:
        interactions += int(record.extra.get("interactions", 0) or 0)
        if not record.converged:
            failures.append(
                f"approximate-majority run n={record.population_size} "
                f"seed={record.seed} did not converge"
            )
    return {"interactions": interactions, "seconds": elapsed, "accuracy": failures}


def slice_multiscale() -> dict:
    """BENCH_multiscale slice: epidemic to completion at n = 10^7.

    Throughput is *effective* interactions/s (``parallel_time * n`` — the
    work an interaction-bound engine would have had to draw), the same
    currency BENCH_multiscale.json records.  Accuracy criterion: the
    epidemic must actually finish (every agent infected) inside the budget.
    """
    from repro.engine.selection import build_engine
    from repro.protocols.epidemic import EpidemicProtocol, EpidemicState
    from repro.exceptions import ConvergenceError

    simulator = build_engine("multiscale", EpidemicProtocol(), MULTISCALE_N, seed=7)
    failures = []

    def run():
        try:
            simulator.run_until(
                lambda engine: engine.count(EpidemicState.INFECTED) == MULTISCALE_N,
                max_parallel_time=100.0,
            )
        except ConvergenceError:
            failures.append(
                f"multiscale epidemic n={MULTISCALE_N} did not finish "
                "within 100 units of parallel time"
            )

    _, elapsed = _timed(run)
    return {
        "interactions": int(simulator.interactions),
        "seconds": elapsed,
        "accuracy": failures,
    }


def load_baseline() -> dict:
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_gate() -> tuple[list[dict], list[str]]:
    """Replay every slice; return (measurements, gate failures)."""
    baseline = load_baseline()
    calibration = _calibration_rate()
    slices = [
        ("engines", slice_engines()),
        ("schedulers", slice_schedulers(baseline)),
        ("crn", slice_crn()),
        ("multiscale", slice_multiscale()),
    ]
    records: list[dict] = []
    failures: list[str] = []
    for name, measured in slices:
        rate = measured["interactions"] / max(measured["seconds"], 1e-9)
        floor_fraction = baseline["floors_per_calibration"][name]
        floor = floor_fraction * calibration * (1.0 - REGRESSION_TOLERANCE)
        records.append(
            {
                "slice": name,
                "interactions": measured["interactions"],
                "seconds": measured["seconds"],
                "interactions_per_second": rate,
                "floor": floor,
            }
        )
        if rate < floor:
            failures.append(
                f"{name} slice throughput {rate:,.0f} interactions/s fell "
                f"below the committed machine-scaled floor {floor:,.0f}/s "
                f"(>{REGRESSION_TOLERANCE:.0%} regression)"
            )
        failures.extend(
            f"{name} slice accuracy: {failure}"
            for failure in measured["accuracy"]
        )
    return records, failures


# -- pytest entry (collected by the benchmark job's bench_* matcher) ------------


def bench_regression_gate():
    """The CI gate as a test: replay all four slices against the baselines."""
    records, failures = run_gate()
    assert len(records) == 4, "a slice went missing"
    assert not failures, "; ".join(failures)


def main() -> int:
    print(
        f"regression gate: engines(n={ENGINE_N:,}), "
        f"schedulers(sizes={list(SCHED_SIZES)} x {SCHED_RUNS}), "
        f"crn(n={CRN_N:,} x {CRN_RUNS}), multiscale(n={MULTISCALE_N:,})"
        + (f" [throttled +{GATE_THROTTLE:g}s/slice]" if GATE_THROTTLE else "")
    )
    records, failures = run_gate()
    for record in records:
        print(
            f"  {record['slice']:>10}: {record['seconds']:7.3f}s, "
            f"{record['interactions_per_second']:>12,.0f} inter/s "
            f"(floor {record['floor']:,.0f}/s)"
        )
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(
        "gate: ok (no slice regressed by more than "
        f"{REGRESSION_TOLERANCE:.0%}; all accuracy bounds hold)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
