"""Self-tests of the benchmark itself.

Run from the root of a checkout (takes about ten seconds)::

    python3 perfbench/selftest.py

Each case checks one promise of ``perfbench/run.py``:

* a sweep whose trials cannot converge reports every trial failed and no
  speed;
* a CLI error (exit code 2) counts all the invocation's trials as failed;
* the same sweep seed gives the same records;
* traced layer self times never exceed the traced total, on a serial
  workload and on a pooled, store-backed one;
* without the ``src/`` tree the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run
from run import Workload

EPIDEMIC_SMALL = ("sweep", "--protocol", "epidemic", "--sizes", "100000",
                  "--engine", "batched", "--backend", "native")
SIR_SMALL = ("crn", "sweep", "--crn", "sir", "--engine", "multiscale",
             "--sizes", "1000000", "--workers", "2", "--backend", "native")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_non_converging_trials_fail() -> None:
    workload = Workload(
        "epidemic-too-short", EPIDEMIC_SMALL + ("--max-time", "0.5"),
        runs=2, check=run._check_epidemic,
    )
    result = run.run(workload, seed=1, seconds=0, trace=False)
    _require(not result["correct"], f"must-fail run reported correct: {result}")
    _require(
        result["failed"] == result["attempted"] > 0,
        f"failed_frac is not 1: {result['failed']}/{result['attempted']}",
    )
    speeds = {"sweep_s", "interactions_per_s"} & set(result["metrics"])
    _require(not speeds, f"a failing run reported a speed: {sorted(speeds)}")


def test_cli_error_fails_every_trial() -> None:
    workload = Workload(
        "figure2-bad-option",
        ("sweep", "--engine", "vector", "--protocol", "figure2", "--fast",
         "--sizes", "64", "--check-interval", "5"),
        runs=2, check=run._check_figure2,
    )
    invocation = run.invoke(workload, 1, run.child_env())
    _require(invocation.failed == 2, f"exit-2 sweep failed {invocation.failed}/2 trials")
    _require(
        any("exit code 2" in problem for problem in invocation.problems),
        f"exit code 2 not reported: {invocation.problems}",
    )


def test_same_seed_same_records() -> None:
    workload = Workload("epidemic-small", EPIDEMIC_SMALL, runs=2, check=run._check_epidemic)
    env = run.child_env()
    first = run.invoke(workload, 7, env)
    second = run.invoke(workload, 7, env)
    _require(first.failed == second.failed == 0, "small epidemic sweep failed")
    _require(first.records == second.records, "one seed gave two different sweeps")


def test_layer_self_times_within_total() -> None:
    env = run.child_env()
    for workload in (
        Workload("epidemic-small", EPIDEMIC_SMALL, runs=2, check=run._check_epidemic),
        Workload("sir-small-resume", SIR_SMALL, runs=8, check=run._check_sir, resumed_runs=4),
    ):
        invocation = run.invoke(workload, 3, env, traced=True)
        _require(not invocation.problems, f"{workload.name}: {invocation.problems}")
        layers = invocation.layers
        _require(layers["unattributed_s"] >= 0, f"{workload.name}: negative unattributed time")
        _require(
            0 < layers["harness.worker_busy_ratio"] <= 1,
            f"{workload.name}: worker busy ratio {layers['harness.worker_busy_ratio']}",
        )
    _require(layers["store.replays"] == 4, f"resume replayed {layers['store.replays']}/4")
    _require(layers["store.appends"] == 4, f"resume appended {layers['store.appends']}/4")


def test_refuses_without_source_tree() -> None:
    bare = os.path.join(run.WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "epidemic-1e6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    _require(completed.returncode != 0, "ran without a source tree")
    _require(not completed.stdout.strip(), f"printed a result: {completed.stdout!r}")


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {test.__name__}: {error}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
