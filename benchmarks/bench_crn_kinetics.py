"""T-CRN — mass-action kinetics of the CRN front-end, validated and scaled.

Two halves, matching the two promises of the CRN subsystem
(``DESIGN.md``, CRN front-end):

**Validation** — at small ``n`` the engines running a lowered 3-species CRN
(the SIR network) must reproduce the exact Gillespie SSA *in distribution*:
for each sampled chemical time the mean and standard deviation of the
recovered-count are compared between engine runs (sampled at parallel time
``Gamma * t``) and SSA runs, and the two-sample z-score of the means must
stay small.  The thinned lowering is validated on a clock-free jump-chain
statistic (the SIR final epidemic size).

**Scale** — the same declarative spec must run at populations no exact SSA
can touch: a library CRN is executed end to end at ``n = 10^6`` (default;
``REPRO_CRN_N`` overrides) on the batched engine, recording wall-clock
time, interactions per second and the convergence result.

Besides the pytest-benchmark entries, this module doubles as a script::

    PYTHONPATH=src python benchmarks/bench_crn_kinetics.py

which runs both halves and writes the ``BENCH_crn.json`` artifact.
Environment knobs: ``REPRO_CRN_N`` (scale population, default 1e6),
``REPRO_CRN_VAL_N`` (validation population, default 60),
``REPRO_CRN_VAL_RUNS`` (runs per validation sample, default 96).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro._version import __version__
from repro.crn import compile_crn, get_crn_workload, simulate_ssa
from repro.exceptions import ConvergenceError

SCALE_N = int(float(os.environ.get("REPRO_CRN_N", "1000000")))
VALIDATION_N = int(os.environ.get("REPRO_CRN_VAL_N", "60"))
VALIDATION_RUNS = max(8, int(os.environ.get("REPRO_CRN_VAL_RUNS", "96")))
VALIDATION_TIMES = (2.0, 6.0, 12.0)
ARTIFACT_NAME = "BENCH_crn.json"

#: Scale workloads: (workload, engine, mode) — the headline batched run plus
#: a thinned comparison point on the same network.
SCALE_CELLS = (
    ("approximate-majority", "batched", "uniform"),
    ("approximate-majority", "batched", "thinned"),
    ("sir", "batched", "uniform"),
)


def _mean_std(values) -> tuple[float, float]:
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / max(1, len(values) - 1)
    return mean, math.sqrt(variance)


def _z_score(sample_a, sample_b) -> float:
    mean_a, std_a = _mean_std(sample_a)
    mean_b, std_b = _mean_std(sample_b)
    spread = math.sqrt(std_a**2 / len(sample_a) + std_b**2 / len(sample_b))
    return (mean_a - mean_b) / max(spread, 1e-9)


# ---------------------------------------------------------------------------
# Validation half: engine moments vs the exact SSA
# ---------------------------------------------------------------------------


def validate_uniform_lowering(engine: str, runs: int = VALIDATION_RUNS) -> dict:
    """Compare engine vs SSA moments of the SIR recovered-count trajectory."""
    workload = get_crn_workload("sir")
    compiled = compile_crn(workload.crn)
    engine_rows = []
    started = time.perf_counter()
    for run in range(runs):
        simulator = compiled.build(engine, VALIDATION_N, seed=1000 + run)
        previous = 0.0
        row = []
        for chemical_time in VALIDATION_TIMES:
            target = compiled.to_parallel_time(chemical_time)
            simulator.run_parallel_time(target - previous)
            previous = target
            row.append(simulator.count("R"))
        engine_rows.append(row)
    engine_seconds = time.perf_counter() - started
    ssa_rows = [
        list(
            simulate_ssa(
                workload.crn, VALIDATION_N, VALIDATION_TIMES, seed=5000 + run
            ).counts["R"]
        )
        for run in range(2 * runs)
    ]
    points = []
    for position, chemical_time in enumerate(VALIDATION_TIMES):
        engine_sample = [row[position] for row in engine_rows]
        ssa_sample = [row[position] for row in ssa_rows]
        engine_mean, engine_std = _mean_std(engine_sample)
        ssa_mean, ssa_std = _mean_std(ssa_sample)
        points.append(
            {
                "chemical_time": chemical_time,
                "engine_mean": engine_mean,
                "engine_std": engine_std,
                "ssa_mean": ssa_mean,
                "ssa_std": ssa_std,
                "z_mean": _z_score(engine_sample, ssa_sample),
            }
        )
    return {
        "check": "uniform-time-moments",
        "crn": "sir",
        "engine": engine,
        "mode": "uniform",
        "population_size": VALIDATION_N,
        "runs": runs,
        "ssa_runs": 2 * runs,
        "rate_scale": compiled.rate_scale,
        "points": points,
        "max_abs_z": max(abs(point["z_mean"]) for point in points),
        "wall_seconds": engine_seconds,
    }


def validate_thinned_jump_chain(engine: str, runs: int = VALIDATION_RUNS) -> dict:
    """Compare the thinned lowering's SIR final size against the SSA."""
    workload = get_crn_workload("sir")
    compiled = compile_crn(workload.crn, mode="thinned")
    started = time.perf_counter()
    finals = []
    for run in range(runs):
        simulator = compiled.build(engine, VALIDATION_N, seed=3000 + run)
        simulator.run_until(
            workload.predicate,
            max_parallel_time=100_000.0,
            check_interval=VALIDATION_N,
        )
        finals.append(simulator.count("R"))
    engine_seconds = time.perf_counter() - started
    ssa_finals = [
        simulate_ssa(workload.crn, VALIDATION_N, [100_000.0], seed=7000 + run).at(0)["R"]
        for run in range(2 * runs)
    ]
    engine_mean, engine_std = _mean_std(finals)
    ssa_mean, ssa_std = _mean_std(ssa_finals)
    return {
        "check": "thinned-jump-chain-final-size",
        "crn": "sir",
        "engine": engine,
        "mode": "thinned",
        "population_size": VALIDATION_N,
        "runs": runs,
        "ssa_runs": 2 * runs,
        "engine_mean": engine_mean,
        "engine_std": engine_std,
        "ssa_mean": ssa_mean,
        "ssa_std": ssa_std,
        "max_abs_z": abs(_z_score(finals, ssa_finals)),
        "wall_seconds": engine_seconds,
    }


# ---------------------------------------------------------------------------
# Scale half: a library CRN at n = 10^6 on the batched engine
# ---------------------------------------------------------------------------


def run_at_scale(workload_name: str, engine: str, mode: str, n: int = SCALE_N) -> dict:
    """One end-to-end CRN run at large ``n``, timed."""
    workload = get_crn_workload(workload_name)
    compiled = compile_crn(workload.crn, mode=mode)
    simulator = compiled.build(engine, n, seed=2019)
    budget = compiled.rate_scale * workload.default_budget(n)
    started = time.perf_counter()
    converged = True
    convergence_time = None
    try:
        convergence_time = simulator.run_until(workload.predicate, max_parallel_time=budget)
    except ConvergenceError:  # a timeout is data, not a crash
        converged = False
    elapsed = time.perf_counter() - started
    cell = {
        "crn": workload_name,
        "engine": engine,
        "mode": mode,
        "population_size": n,
        "converged": converged,
        "convergence_parallel_time": convergence_time,
        "interactions": int(simulator.interactions),
        "interactions_per_second": simulator.interactions / max(elapsed, 1e-9),
        "wall_seconds": elapsed,
        "counts": {
            str(state): int(count)
            for state, count in sorted(simulator.configuration().items())
        },
    }
    if mode == "uniform" and convergence_time is not None:
        cell["convergence_chemical_time"] = compiled.to_chemical_time(convergence_time)
    return cell


# ---------------------------------------------------------------------------
# pytest-benchmark entries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["count", "batched"])
def bench_crn_uniform_matches_ssa(benchmark, engine):
    """Uniform lowering: SIR trajectory moments vs the exact SSA."""
    cell = {}

    def run_cell():
        cell.update(validate_uniform_lowering(engine, runs=32))
        return cell

    benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info.update(cell)
    assert cell["max_abs_z"] < 4.0


def bench_crn_thinned_matches_ssa_jump_chain(benchmark):
    """Thinned lowering: SIR final size (clock-free) vs the exact SSA."""
    cell = {}

    def run_cell():
        cell.update(validate_thinned_jump_chain("batched", runs=32))
        return cell

    benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info.update(cell)
    assert cell["max_abs_z"] < 4.0


def bench_crn_batched_at_scale(benchmark):
    """One library CRN to convergence on the batched engine (modest n here)."""
    cell = {}

    def run_cell():
        cell.update(run_at_scale("approximate-majority", "batched", "uniform", n=100_000))
        return cell

    benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info.update(cell)
    assert cell["converged"]


# ---------------------------------------------------------------------------
# Script mode: validation report + scale table + artifact
# ---------------------------------------------------------------------------


def main() -> int:
    print(
        f"CRN kinetics benchmark: validation at n = {VALIDATION_N} "
        f"({VALIDATION_RUNS} engine runs, {2 * VALIDATION_RUNS} SSA runs), "
        f"scale at n = {SCALE_N}"
    )
    print()
    print("validation against the exact SSA (|z| of the trajectory means):")
    validations = []
    for engine in ("count", "batched"):
        cell = validate_uniform_lowering(engine)
        validations.append(cell)
        zs = ", ".join(
            f"t={p['chemical_time']:g}: z={p['z_mean']:+.2f}" for p in cell["points"]
        )
        print(f"  uniform/{engine:<8} sir  {zs}  [{cell['wall_seconds']:.1f}s]")
    for engine in ("count", "batched"):
        cell = validate_thinned_jump_chain(engine)
        validations.append(cell)
        print(
            f"  thinned/{engine:<8} sir  final size: engine "
            f"{cell['engine_mean']:.1f} vs SSA {cell['ssa_mean']:.1f} "
            f"(z={cell['max_abs_z']:.2f})  [{cell['wall_seconds']:.1f}s]"
        )
    worst = max(cell["max_abs_z"] for cell in validations)
    print(f"  worst |z| over all checks: {worst:.2f} (threshold 4.0)")
    print()

    print(f"library CRNs at scale (batched engine):")
    scale = []
    for workload_name, engine, mode in SCALE_CELLS:
        cell = run_at_scale(workload_name, engine, mode)
        scale.append(cell)
        rate = cell["interactions_per_second"]
        print(
            f"  {workload_name:<22} {mode:<8} n={cell['population_size']:.0e}  "
            f"conv={cell['converged']}  "
            f"interactions={cell['interactions']:.3e} ({rate:.2e}/s)  "
            f"[{cell['wall_seconds']:.1f}s]"
        )

    artifact = {
        "version": __version__,
        "validation_population": VALIDATION_N,
        "validation_runs": VALIDATION_RUNS,
        "validation_times": list(VALIDATION_TIMES),
        "z_threshold": 4.0,
        "validation": validations,
        "scale_population": SCALE_N,
        "scale": scale,
    }
    path = _REPO_ROOT / ARTIFACT_NAME
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\nartifact written to {path}")
    return 0 if worst < 4.0 else 1


if __name__ == "__main__":
    sys.exit(main())
