"""End-to-end benchmark of ``repro`` sweeps, with a separate traced pass.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload epidemic-1e6 --seed 1 --seconds 40 --trace 0

Each workload is a real ``repro sweep`` / ``repro crn sweep`` command line.
One run repeats it in fresh processes for about ``--seconds`` seconds,
times every invocation from outside (process start to exit), checks every
record the sweep produced, and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics: ``sweep_s``, ``setup_s`` and
  ``peak_rss_mb`` as medians over the invocations of the run, and
  ``interactions_per_s`` pooled over the whole run;
* ``--trace 1``: the per-layer metrics.  Invocations alternate untraced and
  traced with the same sweep seed; the traced ones wrap each layer's public
  calls from :mod:`layers` and report self times per layer.

``attempted`` and ``failed`` count trials: a trial fails when its record is
missing, did not converge within its budget, or breaks its workload's
accuracy check, and every trial of an invocation fails when the CLI exits
with an error, crashes, or warns that the native backend fell back to
numpy.  A run with any failure reports ``correct: false`` and no speed.

Invocation ``k`` of a run uses sweep seed ``1000 * seed + k``, so the same
``--seed`` gives the same inputs.  See ``perfbench/README.md`` for the
workloads, the metric definitions and the recorded seeds.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")

#: Seed the recorded figures were taken with, and one kept aside to confirm
#: a claim on inputs not used while writing it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

#: Theorem 3.1 / Lemma 3.12 additive-error bound checked on figure2 trials.
FIGURE2_ERROR_BOUND = 5.7
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 90.0
FALLBACK_WARNING = "falling back to the numpy reference backend"

_WARM_UP = (
    "import sys, repro.cli\n"
    "from repro.backend import get_backend\n"
    "backend = get_backend('native')\n"
    "if not backend.available():\n"
    "    sys.exit('native backend unavailable: %s' % backend.unavailable_reason())\n"
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _check_epidemic(record: dict) -> str | None:
    outputs = record["extra"].get("outputs", {})
    if outputs != {"True": record["population_size"]}:
        return f"epidemic did not infect everyone: {outputs}"
    return None


def _check_figure2(record: dict) -> str | None:
    error = record.get("max_additive_error")
    if error is None or not math.isfinite(error) or error >= FIGURE2_ERROR_BOUND:
        return f"max_additive_error {error} is not below {FIGURE2_ERROR_BOUND}"
    return None


def _check_sir(record: dict) -> str | None:
    counts = record["extra"].get("counts", {})
    if counts.get("I", 0) != 0 or sum(counts.values()) != record["population_size"]:
        return f"SIR infection not extinct or agents lost: {counts}"
    return None


@dataclass(frozen=True)
class Workload:
    """One ``repro`` command line and the checks on its records."""

    name: str
    argv: tuple[str, ...]  # without --runs, --seed and --store
    runs: int  # --runs; one size, so also the number of records
    check: Callable[[dict], str | None]
    #: > 0: start each invocation from a store in which a sweep with this
    #: many runs already completed (the first run indices), as after a
    #: killed and resumed sweep.
    resumed_runs: int = 0

    def command(self, seed: int, runs: int | None = None) -> list[str]:
        runs = self.runs if runs is None else runs
        return [*self.argv, "--runs", str(runs), "--seed", str(seed)]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "epidemic-1e6",
            ("sweep", "--protocol", "epidemic", "--sizes", "1000000",
             "--engine", "batched", "--backend", "native"),
            runs=4,
            check=_check_epidemic,
        ),
        Workload(
            "figure2-fast",
            ("sweep", "--engine", "vector", "--protocol", "figure2", "--fast",
             "--sizes", "1000", "--backend", "native"),
            runs=4,
            check=_check_figure2,
        ),
        Workload(
            "crn-sir-1e9-resume",
            ("crn", "sweep", "--crn", "sir", "--engine", "multiscale",
             "--sizes", "1000000000", "--workers", "2", "--backend", "native"),
            runs=64,
            check=_check_sir,
            resumed_runs=32,
        ),
    )
}


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """What one fresh ``repro`` process did, measured from outside."""

    sweep_s: float
    setup_s: float | None
    peak_rss_mb: float
    records: list[dict]
    fresh_interactions: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    """The environment of every ``repro`` process the benchmark starts."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_NATIVE_CACHE"] = os.path.join(WORK, "native-cache")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float, float]:
    """Reap ``proc``; return (exit code, monotonic end, peak RSS in MB).

    ``wait4`` reports the largest peak RSS among the process and the
    children it reaped (its pool workers).  On timeout the whole process
    group is killed.
    """
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the process left behind
    return proc.returncode, end, usage.ru_maxrss / 1024.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _run_cli(argv: list[str], env: dict, log_path: str) -> int:
    """Untimed helper invocation of the CLI (store preparation)."""
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        code, _, _ = _wait(proc, INVOCATION_TIMEOUT_S)
    return code


def _prepare_store(workload: Workload, seed: int, directory: str, env: dict) -> str:
    """A store holding the first ``resumed_runs`` run indices, checkpointed
    into its main file."""
    path = os.path.join(directory, "store.db")
    argv = workload.command(seed, workload.resumed_runs) + ["--store", f"sqlite:{path}"]
    code = _run_cli(argv, env, os.path.join(directory, "prepare.log"))
    if code != 0:
        raise RuntimeError(f"preparing the resumed store failed (exit {code})")
    with sqlite3.connect(path) as connection:
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    return path


def _stored_records(path: str) -> int:
    connection = sqlite3.connect(path)
    try:
        return connection.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    except sqlite3.Error:
        return 0
    finally:
        connection.close()


def invoke(
    workload: Workload, seed: int, env: dict, traced: bool = False
) -> Invocation:
    """Run the workload once in a fresh process and check what it produced."""
    directory = os.path.join(WORK, f"invocation-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    argv = workload.command(seed)
    store = None
    if workload.resumed_runs:
        store = _prepare_store(workload, seed, directory, env)
        argv += ["--store", f"sqlite:{store}"]
    out_path = os.path.join(directory, "out.json")
    marks_path = os.path.join(directory, "marks")
    trace_dir = os.path.join(directory, "trace")
    env = dict(env, PERFBENCH_MARKS=marks_path)
    if traced:
        os.makedirs(trace_dir)
        env["PERFBENCH_TRACE_DIR"] = trace_dir

    with open(os.path.join(directory, "stdout"), "w", encoding="utf-8") as stdout, \
            open(os.path.join(directory, "stderr"), "w", encoding="utf-8") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), out_path, *argv],
            cwd=ROOT, env=env, stdout=stdout, stderr=stderr,
            start_new_session=True,
        )
        code, end, peak_rss_mb = _wait(proc, INVOCATION_TIMEOUT_S)

    result = _read_json(out_path)
    records = result.get("records", [])
    problems: list[str] = []
    with open(os.path.join(directory, "stderr"), encoding="utf-8") as handle:
        stderr_text = handle.read()
    if code not in (0, 1):
        problems.append(f"exit code {code}: {result.get('error') or stderr_text[-300:]}")
    if FALLBACK_WARNING in stderr_text:
        problems.append("the native backend fell back to numpy")
    if len(records) != workload.runs:
        problems.append(f"{len(records)} records, expected {workload.runs}")
    fresh = workload.runs - workload.resumed_runs
    if records and result.get("executed") != fresh:
        problems.append(f"executed {result.get('executed')} trials, expected {fresh}")
    if store is not None and _stored_records(store) != workload.runs:
        problems.append("the store does not hold every record")

    if problems:
        failed = workload.runs  # every trial is unresolved
    else:
        failed = 0
        for record in records:
            reason = (
                None if record["converged"] else "did not converge within its budget"
            ) or workload.check(record)
            if reason is not None:
                failed += 1
                if len(problems) < 3:
                    problems.append(f"n={record['population_size']} seed={record['seed']}: {reason}")

    marks = _read_marks(marks_path)
    invocation = Invocation(
        sweep_s=end - start,
        setup_s=min(marks) - start if marks else None,
        peak_rss_mb=peak_rss_mb,
        records=records,
        fresh_interactions=sum(
            int(record["extra"].get("interactions", 0))
            for record in records[workload.resumed_runs:]
        ),
        attempted=workload.runs,
        failed=failed,
        problems=problems,
    )
    if traced and not problems:
        invocation.layers = layer_metrics(trace_dir, invocation, workload)
    return invocation


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _read_marks(path: str) -> list[float]:
    try:
        with open(path, encoding="utf-8") as handle:
            return [float(line) for line in handle if line.strip()]
    except OSError:
        return []


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced invocation
# ---------------------------------------------------------------------------

#: Spans recorded by :mod:`layers`; each is reported as ``<span>_s``, its
#: self seconds.
_LAYER_SPANS = (
    "cli.import",
    "cli.parse",
    "harness.spec",
    "engine.build",
    "protocols.table_compile",
    "backend.load",
    "engine.advance",
    "engine.check",
    "scheduler.draw_round",
    "core.apply_round",
    "crn.compile",
    "store.open",
    "store.claim",
    "store.append",
    "store.pending",
    "store.get",
    "harness.poll_wait",
    "harness.driver",
    "harness.pool",
    "harness.trial",
)
_LAYER_CALLS = {
    "engine.builds": "engine.build",
    "engine.checks": "engine.check",
    "store.claims": "store.claim",
    "store.appends": "store.append",
}
_REGIME_COUNTERS = ("exact_events", "leaps", "ode_steps", "regime_switches")

PER_LAYER = (
    *(f"{span}_s" for span in _LAYER_SPANS),
    *_LAYER_CALLS,
    "store.replays",
    "engine.interactions",
    "backend.fallback_ratio",
    *(f"crn.{name}" for name in _REGIME_COUNTERS),
    "harness.ipc_s",
    "harness.worker_busy_ratio",
    "unattributed_s",
    "traced_sweep_s",
    "trace_overhead_s",
)
END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "interactions_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_metrics(trace_dir: str, invocation: Invocation, workload: Workload) -> dict:
    """Fold the per-process totals of one traced invocation into metrics.

    Self times and counts are summed over the driver and its workers.
    ``unattributed_s`` is the traced wall time minus the driver's self
    times: on the serial workloads every layer runs in the driver, and on
    the pooled one the driver's time waiting for workers is its own
    ``harness.poll_wait_s``.
    """
    stats = [_read_json(path) for path in glob.glob(os.path.join(trace_dir, "stats-*.json"))]
    drivers = [entry for entry in stats if entry.get("role") == "driver"]
    if len(drivers) != 1:
        raise RuntimeError(f"expected one driver trace, found {len(drivers)}")
    driver = drivers[0]
    workers = [entry for entry in stats if entry.get("role") == "worker"]

    def total(kind: str, name: str, entries=stats) -> float:
        return sum(entry[kind].get(name, 0.0) for entry in entries)

    metrics = {f"{span}_s": total("self_s", span) for span in _LAYER_SPANS}
    metrics.update(
        {metric: float(total("calls", span)) for metric, span in _LAYER_CALLS.items()}
    )
    metrics["store.replays"] = total("counters", "store.replays")
    fresh = invocation.records[workload.resumed_runs:]
    metrics["engine.interactions"] = float(invocation.fresh_interactions)
    batched = total("counters", "backend.batched_batches")
    fallback = total("counters", "backend.fallback_batches")
    metrics["backend.fallback_ratio"] = fallback / (batched + fallback) if batched + fallback else 0.0
    for name in _REGIME_COUNTERS:
        metrics[f"crn.{name}"] = float(
            sum(record["extra"].get("regime", {}).get(name, 0) for record in fresh)
        )
    dispatch_to_harvest = driver["counters"].get("dispatch_to_harvest_s", 0.0)
    worker_trial_s = total("counters", "trial_s", workers)
    metrics["harness.ipc_s"] = dispatch_to_harvest - worker_trial_s if dispatch_to_harvest else 0.0
    run_trials_s = driver["counters"].get("run_trials_s", 0.0)
    pool_size = driver["counters"].get("workers", 1.0)
    metrics["harness.worker_busy_ratio"] = (
        total("counters", "trial_s") / (pool_size * run_trials_s) if run_trials_s else 0.0
    )
    driver_self = sum(driver["self_s"].values())
    metrics["unattributed_s"] = invocation.sweep_s - driver_self
    metrics["traced_sweep_s"] = invocation.sweep_s
    for entry in stats:
        if sum(entry["self_s"].values()) > invocation.sweep_s:
            invocation.problems.append(
                f"{entry['role']} {entry['pid']}: layer self times exceed the traced total"
            )
    return metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def warm_up(env: dict) -> None:
    """Compile (or load) the native kernel and byte-compile the package, so
    no timed invocation pays a cold cache."""
    completed = subprocess.run(
        [sys.executable, "-c", _WARM_UP], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(completed.stderr.strip() or "warm-up failed")


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` for about ``seconds``; return the result object."""
    env = child_env()
    warm_up(env)
    begin = time.monotonic()
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    durations: list[float] = []
    while True:
        sweep_seed = 1000 * seed + len(untraced)
        started = time.monotonic()
        untraced.append(invoke(workload, sweep_seed, env))
        if trace:
            traced.append(invoke(workload, sweep_seed, env, traced=True))
        durations.append(time.monotonic() - started)
        enough = len(untraced) >= MIN_INVOCATIONS
        if enough and time.monotonic() - begin + statistics.median(durations) > seconds:
            break
    shutil.rmtree(os.path.join(WORK, f"invocation-{os.getpid()}"), ignore_errors=True)
    invocations = untraced + traced
    attempted = sum(invocation.attempted for invocation in invocations)
    failed = sum(invocation.failed for invocation in invocations)
    problems = [problem for invocation in invocations for problem in invocation.problems]
    correct = failed == 0 and not problems
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    if trace:
        if correct:
            for name in PER_LAYER:
                if name == "trace_overhead_s":
                    value = statistics.median([t.sweep_s - u.sweep_s for t, u in zip(traced, untraced)])
                else:
                    value = statistics.median([invocation.layers[name] for invocation in traced])
                metrics[name] = {"value": value, "unit": _unit(name)}
    else:
        samples = {
            "sweep_s": [invocation.sweep_s for invocation in untraced],
            "setup_s": [i.setup_s for i in untraced if i.setup_s is not None],
            "peak_rss_mb": [invocation.peak_rss_mb for invocation in untraced],
        }
        values = {name: statistics.median(series) for name, series in samples.items() if series}
        # Work varies with the seed, so throughput pools the whole run.
        values["interactions_per_s"] = sum(
            invocation.fresh_interactions for invocation in untraced
        ) / sum(invocation.sweep_s for invocation in untraced)
        # A failing run reports its failures, never a speed.
        reported = END_TO_END if correct else ("setup_s", "peak_rss_mb")
        for name in reported:
            if name in values:
                metrics[name] = {"value": values[name], "unit": END_TO_END[name]}
        for name, series in samples.items():
            if series:
                print(
                    f"{name}: median {statistics.median(series):.6g} min {min(series):.6g} "
                    f"max {max(series):.6g} over {len(series)} invocations"
                )
        print(f"interactions_per_s: {values['interactions_per_s']:.6g} over the run")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
        "to confirm claims on unseen inputs)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
