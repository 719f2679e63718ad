"""Run one ``repro`` CLI invocation for the benchmark and record its outcome.

Usage::

    python3 perfbench/child.py OUT.json <repro CLI arguments...>

The invocation is the real command line (:func:`repro.cli.main`, exactly
what the ``repro`` console script runs).  Two probes are added from
outside the program, in every run:

* the start of the first trial in each process, appended to the file named
  by ``$PERFBENCH_MARKS`` as a ``time.monotonic`` reading, so the benchmark
  can tell set-up from trial time;
* the sweep outcome returned by ``run_trials``, written to ``OUT.json``
  after the CLI returns, so the benchmark can check every record.

With ``$PERFBENCH_TRACE_DIR`` set, :mod:`layers` also wraps each layer's
public calls and the driver writes its totals there on exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict


def _install_first_trial_mark(parallel, marks_path: str) -> None:
    original = parallel.run_trial
    marked = [False]  # per process; a forked worker starts unmarked

    def unmark() -> None:
        marked[0] = False

    os.register_at_fork(after_in_child=unmark)

    @functools.wraps(original)
    def run_trial(spec):
        if not marked[0]:
            marked[0] = True
            with open(marks_path, "a", encoding="utf-8") as handle:
                handle.write(f"{time.monotonic()!r}\n")
        return original(spec)

    parallel.run_trial = run_trial


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    start = time.perf_counter()
    import repro.cli as cli
    import_seconds = time.perf_counter() - start
    from repro.harness import parallel

    tracer = None
    if trace_dir:
        import layers

        tracer = layers.install(trace_dir, import_seconds)
    _install_first_trial_mark(parallel, os.environ["PERFBENCH_MARKS"])

    outcomes = []
    sweep = cli.run_trials

    @functools.wraps(sweep)
    def run_trials(*args, **kwargs):
        outcome = sweep(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    cli.run_trials = run_trials

    result: dict = {}
    try:
        return cli.main(argv)
    except BaseException as error:
        result["error"] = f"{type(error).__name__}: {error}"
        raise
    finally:
        if outcomes:
            outcome = outcomes[-1]
            result["records"] = [asdict(record) for record in outcome.records]
            result["executed"] = outcome.executed
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        if tracer is not None:
            tracer.write()


if __name__ == "__main__":
    sys.exit(main())
