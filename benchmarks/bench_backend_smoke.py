"""T-BACKEND-SMOKE — fast regression gate for the array-backend seam.

A tiny-``n`` throughput check designed to run on every CI push (seconds, not
minutes): it times the batched epidemic and a fast-constant Figure 2 trial
(``Log-Size-Estimation`` on the vector engine, n = 1000, run to all-done) on
the numpy reference backend and on every *available* compiled backend, then
fails if any available backend falls below what the seam guarantees for it:

* every compiled backend must stay at or above ``(1 - 0.3) x`` the numpy
  reference's batched throughput — a compiled backend slower than numpy
  means its kernels silently stopped being used (a broken compile cache, an
  accidental fallback) or regressed outright;
* the native backend's batched epidemic must run at least 40x numpy's
  (measured 169–189x in four runs on a 2-vCPU VM: 1.4–1.8e9 against
  8.0–9.6e6 interactions/s): its kernel draws one multinomial per batch,
  O(S^2) work, whereas a kernel that draws once per interaction, like the
  one it replaced (1.4–1.6e8/s, 16–18x numpy, same VM), stays far below
  the floor;
* the native backend's Figure 2 round must be at least
  ``NATIVE_FIGURE2_MIN_SPEEDUP`` times faster than numpy's, in the median
  over seeds 1–5 of the per-seed ratio (one trial per seed and backend,
  the backends alternating; 3.2–3.6 s in all).  One trial's ratio swung
  from 9.0x to 16.8x over three runs on a 2-vCPU VM, and one seed read
  5.9x among 11.5–15.6x, while the median of five read 13.4x, 14.2x and
  13.2x in three runs there: the floor is half the smallest median.  A
  vector kernel that silently stopped being bound runs at numpy speed,
  which the 0.7x batched floor would pass, and one 2.5x slower than
  today's fails;
* the native backend's multiscale SIR (n = 10^9, eight seeds, 100 units of
  parallel time each) must run at least 33x numpy's effective interactions
  per second, half the 66–73x measured in three runs on a 2-vCPU VM: a
  regime loop that silently stopped being bound runs at numpy speed;
* the numpy backend itself must stay at or above ``(1 - 0.3) x`` a recorded
  per-interaction floor, scaled by a calibration loop so the gate tracks
  machine speed instead of hard-coding wall-clock numbers.

Also a script::

    PYTHONPATH=src python benchmarks/bench_backend_smoke.py

which prints the same measurements and exits non-zero on a gate failure —
this is what the CI optional-deps job runs.  ``REPRO_SMOKE_N`` /
``REPRO_SMOKE_INTERACTIONS`` scale the workload.
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

import numpy as np

from repro.backend import backend_availability
from repro.core.array_simulator import LogSizeVectorProtocol
from repro.core.parameters import ProtocolParameters
from repro.crn import compile_crn
from repro.crn.library import get_crn_workload
from repro.engine.selection import build_engine
from repro.engine.vector import VectorSimulator
from repro.protocols.epidemic import EpidemicProtocol

SMOKE_N = int(os.environ.get("REPRO_SMOKE_N", "50000"))
SMOKE_INTERACTIONS = int(os.environ.get("REPRO_SMOKE_INTERACTIONS", "2000000"))
#: Maximum tolerated throughput shortfall before the gate fails.
REGRESSION_TOLERANCE = 0.30
#: numpy-backend floor as a fraction of the calibration rate (see
#: ``_calibration_rate``).  The optimized reference kernel measures at
#: ~0.027x calibration at the default smoke scale; 0.008 leaves >3x slack
#: for runner noise while still catching an order-of-magnitude regression.
NUMPY_FLOOR_PER_CALIBRATION = 0.008
#: Population and seeds of the Figure 2 trials, and the median per-round
#: speedup over those seeds the native backend must keep over numpy.
FIGURE2_N = 1000
FIGURE2_SEEDS = range(1, 6)
NATIVE_FIGURE2_MIN_SPEEDUP = 6.5
#: Batched-epidemic throughput the native backend must keep over numpy.
NATIVE_BATCHED_MIN_SPEEDUP = 40.0
#: Population and seeds of the multiscale SIR trials, and the effective
#: throughput the native backend must keep over numpy on them.
MULTISCALE_N = 10**9
MULTISCALE_SEEDS = range(1, 9)
NATIVE_MULTISCALE_MIN_SPEEDUP = 33.0


def _calibration_rate() -> float:
    """Machine-speed proxy: elementwise-multiply throughput (ops/second).

    Scaling the numpy floor by this keeps the gate meaningful across CI
    runners of very different speeds without hard-coding seconds.
    """
    block = np.random.default_rng(0).random(1_000_000)
    started = time.perf_counter()
    for _ in range(20):
        block = block * 1.0000001
    elapsed = time.perf_counter() - started
    return 20 * block.size / max(elapsed, 1e-9)


def measure_backend(backend: str, seed: int = 1) -> dict:
    """Throughput of the batched epidemic on one backend at smoke scale."""
    simulator = build_engine(
        "batched", EpidemicProtocol(), SMOKE_N, seed=seed, backend=backend
    )
    # Warm up outside the timed region: the cffi module load (native)
    # happens on the first batch.
    simulator.run_interactions(10_000)
    started = time.perf_counter()
    simulator.run_interactions(SMOKE_INTERACTIONS)
    elapsed = time.perf_counter() - started
    return {
        "backend": backend,
        "population_size": SMOKE_N,
        "interactions": SMOKE_INTERACTIONS,
        "seconds": elapsed,
        "interactions_per_second": SMOKE_INTERACTIONS / max(elapsed, 1e-9),
    }


def measure_figure2_round(backend: str, seed: int) -> float:
    """Seconds per round of a fast Figure 2 trial at n=1000 on one backend."""
    simulator = VectorSimulator(
        LogSizeVectorProtocol(ProtocolParameters.fast_test()),
        FIGURE2_N,
        seed=seed,
        backend=backend,
    )
    # The native module loaded when the simulator resolved its backend.
    started = time.perf_counter()
    simulator.run_until(VectorSimulator.all_done, max_parallel_time=10_000.0)
    return (time.perf_counter() - started) / simulator.rounds


def measure_figure2_rounds(backends: list[str]) -> dict[str, list[float]]:
    """Seconds per round of one Figure 2 trial per seed of
    ``FIGURE2_SEEDS`` on each backend, the backends alternating seed by
    seed so a slow stretch of the machine hits both alike."""
    per_round: dict[str, list[float]] = {backend: [] for backend in backends}
    for seed in FIGURE2_SEEDS:
        for backend in backends:
            per_round[backend].append(measure_figure2_round(backend, seed))
    return per_round


def measure_multiscale(backend: str) -> dict:
    """Effective interactions/s of multiscale SIR trials at n=10^9, each run
    for 100 units of parallel time in chunks of ``n`` interactions."""
    compiled = compile_crn(get_crn_workload("sir").crn)
    seconds = interactions = 0
    for seed in MULTISCALE_SEEDS:
        simulator = compiled.build(
            "multiscale", MULTISCALE_N, seed=seed, backend=backend
        )
        started = time.perf_counter()
        for _ in range(100):
            simulator.run_interactions(MULTISCALE_N)
        seconds += time.perf_counter() - started
        interactions += simulator.interactions
    return {
        "seconds": seconds,
        "interactions_per_second": interactions / max(seconds, 1e-9),
    }


def run_smoke() -> tuple[list[dict], list[str]]:
    """Measure every available backend; return (records, gate failures)."""
    failures: list[str] = []
    available = [
        name for name, reason in backend_availability().items() if reason is None
    ]
    records = [measure_backend(name) for name in available]
    by_name = {record["backend"]: record for record in records}
    figure2 = measure_figure2_rounds(available)
    for name in available:
        by_name[name]["figure2"] = figure2[name]
        by_name[name]["multiscale"] = measure_multiscale(name)

    numpy_rate = by_name["numpy"]["interactions_per_second"]
    floor = NUMPY_FLOOR_PER_CALIBRATION * _calibration_rate() * (
        1.0 - REGRESSION_TOLERANCE
    )
    # The calibration proxy is itself noisy; the floor sits far below any
    # healthy numpy-backend rate, so tripping it means a real regression
    # (e.g. the hoisted pair-weight rebuild got un-hoisted).
    if numpy_rate < floor:
        failures.append(
            f"numpy backend throughput {numpy_rate:,.0f}/s fell below the "
            f"machine-scaled floor {floor:,.0f}/s (>30% regression)"
        )
    for record in records:
        if record["backend"] == "numpy":
            continue
        ratio = record["interactions_per_second"] / numpy_rate
        if ratio < 1.0 - REGRESSION_TOLERANCE:
            failures.append(
                f"{record['backend']} backend runs at {ratio:.2f}x the numpy "
                f"reference (allowed: >= {1.0 - REGRESSION_TOLERANCE:.2f}x); "
                f"its kernels regressed or silently stopped being used"
            )
    if "native" in by_name:
        batched = by_name["native"]["interactions_per_second"] / numpy_rate
        if batched < NATIVE_BATCHED_MIN_SPEEDUP:
            failures.append(
                f"native batched epidemic runs at {batched:.1f}x numpy's "
                f"(required: >= {NATIVE_BATCHED_MIN_SPEEDUP:.0f}x); its kernel "
                f"costs more than one multinomial per batch"
            )
        speedup = statistics.median(
            numpy_round / native_round
            for numpy_round, native_round in zip(
                by_name["numpy"]["figure2"], by_name["native"]["figure2"]
            )
        )
        if speedup < NATIVE_FIGURE2_MIN_SPEEDUP:
            failures.append(
                f"native Figure 2 rounds run at {speedup:.2f}x numpy's in the "
                f"median over seeds (required: >= "
                f"{NATIVE_FIGURE2_MIN_SPEEDUP:.1f}x); its vector kernels "
                f"regressed or silently stopped being bound"
            )
        multiscale = (
            by_name["native"]["multiscale"]["interactions_per_second"]
            / by_name["numpy"]["multiscale"]["interactions_per_second"]
        )
        if multiscale < NATIVE_MULTISCALE_MIN_SPEEDUP:
            failures.append(
                f"native multiscale SIR runs at {multiscale:.1f}x numpy's "
                f"(required: >= {NATIVE_MULTISCALE_MIN_SPEEDUP:.0f}x); its "
                f"regime loop regressed or silently stopped being bound"
            )
    return records, failures


# -- pytest entries (collected by the benchmark job's bench_* matcher) ----------


def bench_backend_smoke_gate():
    """The CI gate as a test: fail on any >30% backend throughput regression."""
    records, failures = run_smoke()
    assert records, "no backend measured"
    assert not failures, "; ".join(failures)


def main() -> int:
    print(
        f"backend smoke: batched epidemic, n={SMOKE_N:,}, "
        f"{SMOKE_INTERACTIONS:,} interactions per backend"
    )
    records, failures = run_smoke()
    for record in records:
        figure2, multiscale = record["figure2"], record["multiscale"]
        print(
            f"  {record['backend']:>7}: {record['seconds']:7.3f}s "
            f"({record['interactions_per_second']:,.0f} interactions/s); "
            f"figure2 n={FIGURE2_N}: "
            f"{statistics.median(figure2) * 1e6:,.0f} us/round (median of "
            f"{len(figure2)} seeds); multiscale SIR n={MULTISCALE_N:.0e}: "
            f"{multiscale['interactions_per_second']:.3e} effective "
            f"interactions/s"
        )
    for name, reason in backend_availability().items():
        if reason is not None:
            print(f"  {name:>7}: unavailable ({reason})")
    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(
        "gate: ok (no backend regressed by more than 30%; native batched "
        f">= {NATIVE_BATCHED_MIN_SPEEDUP:.0f}x, median figure2 rounds >= "
        f"{NATIVE_FIGURE2_MIN_SPEEDUP}x and multiscale SIR >= "
        f"{NATIVE_MULTISCALE_MIN_SPEEDUP:.0f}x numpy where available)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
