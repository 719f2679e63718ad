"""T-MS — the adaptive multiscale CRN engine, validated and at extreme scale.

Two halves, mirroring ``bench_crn_kinetics.py`` (T-CRN):

**Validation** — the approximation must be invisible in distribution:

- *tau-leap vs SSA*: at an overlapping population the multiscale engine's
  SIR recovered-count moments are compared against the exact Gillespie
  reference at fixed chemical times; the two-sample z-score of the means
  must stay below 4.0 (same methodology and threshold as T-CRN).
- *ODE vs tau-leap*: at large ``n`` the mean-field regime must reproduce
  the tau-leap means — the same epidemic is run with the ODE regime enabled
  and disabled and the infected fractions compared.

**Scale** — the point of the engine: the library CRNs (epidemic, SIR,
approximate-majority, predator–prey) run end to end at ``n = 10^9`` and
``n = 10^12`` on one core, recording wall-clock seconds, *effective*
interactions (``parallel_time * n`` — what an interaction-bound engine
would have had to draw), effective interactions/s and the per-regime work
counters.  A non-converged predator–prey run is expected data: its
mean-field limit oscillates forever, and random extinction at ``n = 10^9``
is astronomically unlikely inside the budget.

Script mode writes the ``BENCH_multiscale.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_multiscale.py

Environment knobs: ``REPRO_MS_SCALE_NS`` (comma-separated scale
populations, default ``1e9,1e12``), ``REPRO_MS_VAL_N`` (validation
population, default 2000), ``REPRO_MS_VAL_RUNS`` (engine runs per
validation check, default 48).
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
from repro.crn.multiscale import DEFAULT_CRITICAL_THRESHOLD
from repro.exceptions import ConvergenceError

SCALE_NS = tuple(
    int(float(value))
    for value in os.environ.get("REPRO_MS_SCALE_NS", "1e9,1e12").split(",")
)
VALIDATION_N = int(float(os.environ.get("REPRO_MS_VAL_N", "2000")))
VALIDATION_RUNS = max(8, int(os.environ.get("REPRO_MS_VAL_RUNS", "48")))
VALIDATION_TIMES = (1.0, 2.0, 4.0)
Z_THRESHOLD = 4.0
ARTIFACT_NAME = "BENCH_multiscale.json"

#: The library CRNs the scale half demonstrates (leader election is Theta(n)
#: chemical time by design — out of scope for a fixed budget at 10^12).
SCALE_WORKLOADS = ("epidemic", "sir", "approximate-majority", "predator-prey")


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
# Validation half
# ---------------------------------------------------------------------------


def validate_tau_leap_vs_ssa(runs: int = VALIDATION_RUNS, n: int = VALIDATION_N) -> dict:
    """SIR recovered-count moments: multiscale engine vs the exact SSA."""
    workload = get_crn_workload("sir")
    compiled = compile_crn(workload.crn)
    started = time.perf_counter()
    engine_rows = []
    for run in range(runs):
        simulator = compiled.build("multiscale", n, seed=1000 + run)
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
            simulate_ssa(workload.crn, n, VALIDATION_TIMES, seed=5000 + run).counts["R"]
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
        "check": "tau-leap-vs-ssa-moments",
        "crn": "sir",
        "engine": "multiscale",
        "population_size": n,
        "runs": runs,
        "ssa_runs": 2 * runs,
        "rate_scale": compiled.rate_scale,
        "points": points,
        "max_abs_z": max(abs(point["z_mean"]) for point in points),
        "wall_seconds": engine_seconds,
    }


def validate_ode_vs_tau_leap(n: int = 1_000_000, horizon: float = 12.0) -> dict:
    """Mean-field regime vs pure tau-leaping on the same epidemic."""
    workload = get_crn_workload("epidemic")
    compiled = compile_crn(workload.crn)
    started = time.perf_counter()
    fractions = {}
    for label, ode_threshold in (("ode", 1e4), ("tau-leap", 1e15)):
        simulator = compiled.build(
            "multiscale", n, seed=2,
            regime_thresholds=(DEFAULT_CRITICAL_THRESHOLD, ode_threshold),
        )
        simulator.run_parallel_time(compiled.rate_scale * horizon)
        fractions[label] = simulator.count("I") / n
    return {
        "check": "ode-vs-tau-leap-means",
        "crn": "epidemic",
        "population_size": n,
        "chemical_time": horizon,
        "infected_fraction_ode": fractions["ode"],
        "infected_fraction_tau_leap": fractions["tau-leap"],
        "abs_difference": abs(fractions["ode"] - fractions["tau-leap"]),
        "wall_seconds": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# Scale half
# ---------------------------------------------------------------------------


def run_at_scale(workload_name: str, n: int) -> dict:
    """One end-to-end multiscale run at extreme ``n``, timed."""
    workload = get_crn_workload(workload_name)
    compiled = compile_crn(workload.crn)
    simulator = compiled.build("multiscale", n, seed=2019)
    budget = compiled.rate_scale * workload.default_budget(n)
    started = time.perf_counter()
    converged = True
    convergence_time = None
    try:
        convergence_time = simulator.run_until(
            workload.predicate, max_parallel_time=budget
        )
    except ConvergenceError:  # a timeout is data, not a crash
        converged = False
    elapsed = time.perf_counter() - started
    cell = {
        "crn": workload_name,
        "engine": "multiscale",
        "population_size": n,
        "converged": converged,
        "convergence_parallel_time": convergence_time,
        "effective_interactions": int(simulator.interactions),
        "effective_interactions_per_second": simulator.interactions
        / max(elapsed, 1e-9),
        "wall_seconds": elapsed,
        "regime_stats": simulator.regime_stats(),
        "counts": {
            str(state): int(count)
            for state, count in sorted(simulator.configuration().items())
        },
    }
    if convergence_time is not None:
        cell["convergence_chemical_time"] = compiled.to_chemical_time(
            convergence_time
        )
    return cell


# ---------------------------------------------------------------------------
# pytest-benchmark entries
# ---------------------------------------------------------------------------


def bench_multiscale_matches_ssa(benchmark):
    """Tau-leap SIR moments vs the exact SSA (reduced runs for CI)."""
    cell = {}

    def run_cell():
        cell.update(validate_tau_leap_vs_ssa(runs=24))
        return cell

    benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info.update(cell)
    assert cell["max_abs_z"] < Z_THRESHOLD


def bench_multiscale_ode_matches_tau_leap(benchmark):
    """The ODE regime reproduces tau-leap means at large n."""
    cell = {}

    def run_cell():
        cell.update(validate_ode_vs_tau_leap(n=200_000))
        return cell

    benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info.update(cell)
    assert cell["abs_difference"] < 0.05


def bench_multiscale_epidemic_at_scale(benchmark):
    """Epidemic to completion at n = 10^8 (modest for CI; script does 10^12)."""
    cell = {}

    def run_cell():
        cell.update(run_at_scale("epidemic", 100_000_000))
        return cell

    benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info.update(cell)
    assert cell["converged"]


# ---------------------------------------------------------------------------
# Script mode: validation report + scale table + artifact
# ---------------------------------------------------------------------------


def main() -> int:
    print(
        f"multiscale benchmark: validation at n = {VALIDATION_N} "
        f"({VALIDATION_RUNS} engine runs, {2 * VALIDATION_RUNS} SSA runs), "
        f"scale at n in {', '.join(f'{n:.0e}' for n in SCALE_NS)}"
    )
    print()
    print("validation (tau-leap vs exact SSA, |z| of trajectory means):")
    leap_cell = validate_tau_leap_vs_ssa()
    zs = ", ".join(
        f"t={p['chemical_time']:g}: z={p['z_mean']:+.2f}" for p in leap_cell["points"]
    )
    print(f"  multiscale sir n={VALIDATION_N}  {zs}  [{leap_cell['wall_seconds']:.1f}s]")
    print(f"  worst |z|: {leap_cell['max_abs_z']:.2f} (threshold {Z_THRESHOLD})")
    ode_cell = validate_ode_vs_tau_leap()
    print(
        f"  ode-vs-tau-leap epidemic n={ode_cell['population_size']:.0e}: "
        f"infected fraction {ode_cell['infected_fraction_ode']:.4f} vs "
        f"{ode_cell['infected_fraction_tau_leap']:.4f} "
        f"(|diff|={ode_cell['abs_difference']:.4f})"
    )
    print()

    print("library CRNs at extreme scale (multiscale engine):")
    scale = []
    for n in SCALE_NS:
        for workload_name in SCALE_WORKLOADS:
            cell = run_at_scale(workload_name, n)
            scale.append(cell)
            stats = cell["regime_stats"]
            print(
                f"  {workload_name:<22} n={n:.0e}  conv={cell['converged']}  "
                f"eff={cell['effective_interactions']:.3e} "
                f"({cell['effective_interactions_per_second']:.2e}/s)  "
                f"exact={stats['exact_events']} leaps={stats['leaps']} "
                f"ode={stats['ode_steps']}  [{cell['wall_seconds']:.1f}s]"
            )

    artifact = {
        "version": __version__,
        "validation_population": VALIDATION_N,
        "validation_runs": VALIDATION_RUNS,
        "validation_times": list(VALIDATION_TIMES),
        "z_threshold": Z_THRESHOLD,
        "validation": [leap_cell, ode_cell],
        "scale_populations": list(SCALE_NS),
        "scale": scale,
    }
    path = _REPO_ROOT / ARTIFACT_NAME
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\nartifact written to {path}")
    ok = leap_cell["max_abs_z"] < Z_THRESHOLD and ode_cell["abs_difference"] < 0.05
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
