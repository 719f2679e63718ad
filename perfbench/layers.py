"""Layer timers for the traced pass, installed from outside the program.

:func:`install` wraps the public calls of each ``repro`` layer — the
functions and methods it names, layer by layer — in a timer.  Nothing
under ``src/`` changes: the wrappers replace module attributes and class
methods in the running process, before the CLI parses its arguments.

Every wrapped call is a span.  A span's *self time* is its duration minus
the time covered by wrapped calls nested inside it, so the self times of
one process add up to at most that process's wall time and never count a
second twice.  Each process (the driver and every forked pool worker)
keeps its own totals and writes them to ``stats-<pid>.json`` in the trace
directory: the driver when the CLI returns, a worker after each trial
(pool workers are terminated, not shut down, so they get no exit hook).

Cross-process stamps (dispatch to the pool, harvest from it, and each
in-worker trial) use ``time.monotonic``, which is system-wide on Linux, so
the driver and worker readings can be subtracted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "install"]


class Tracer:
    """Per-process span stack with self-time totals and counters."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset("driver")

    def _reset(self, role: str) -> None:
        self.role = role
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child_seconds]

    def after_fork_in_child(self) -> None:
        """A forked worker starts with empty totals and no open spans."""
        self._reset("worker")

    def span(self, name: str, fn, *, count_nested: bool = True):
        """Wrap ``fn`` so each call adds to ``name``'s self time.

        ``count_nested=False`` counts a call only when no span of the same
        name is already open (a build that delegates to another build is
        one build).
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack
            if count_nested or all(frame[0] != name for frame in stack):
                self.calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def write(self) -> None:
        """Write this process's totals (atomically replacing earlier ones)."""
        payload = {
            "pid": os.getpid(),
            "role": self.role,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }
        path = os.path.join(self.out_dir, f"stats-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (callers that did ``from x import f`` hold their own
    binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, layer: str, **options) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.span(layer, original, **options))


def _wrap_method(tracer: Tracer, cls, attr: str, layer: str, **options) -> None:
    """Wrap ``cls.attr`` and every subclass's own override of it."""
    pending = [cls]
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        if attr in vars(klass):
            setattr(klass, attr, tracer.span(layer, vars(klass)[attr], **options))


class _TimedSleep:
    """Stand-in for the ``time`` module of the sweep driver: ``sleep`` is a
    span, everything else is the real module."""

    def __init__(self, tracer: Tracer) -> None:
        self.sleep = tracer.span("harness.poll_wait", time.sleep)

    def __getattr__(self, name: str):
        return getattr(time, name)


def install(out_dir: str, import_seconds: float) -> Tracer:
    """Wrap every layer of an imported ``repro`` and return the tracer.

    ``import_seconds`` is the measured ``import repro.cli`` time (the import
    happens before anything can be wrapped).
    """
    import multiprocessing.pool

    import repro.cli as cli
    import repro.crn.compile as crn_compile
    import repro.engine.running as running
    import repro.engine.selection as selection
    import repro.harness.parallel as parallel
    import repro.protocols.compiled as compiled
    from repro.backend import ArrayBackend, resolve_backend
    from repro.core.array_simulator import LogSizeVectorProtocol
    from repro.crn.multiscale import MultiscaleSimulator
    from repro.engine.batched_simulator import BatchedCountSimulator
    from repro.engine.scheduler import RoundScheduler
    from repro.engine.vector import VectorSimulator
    from repro.store.sqlite import SqliteStore

    tracer = Tracer(out_dir)
    tracer.self_s["cli.import"] += import_seconds
    tracer.calls["cli.import"] += 1
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)

    # cli: argument parser construction (parsing itself is cheap).
    _wrap_function(tracer, cli, "build_parser", "cli.parse")

    # harness: spec expansion and cache-key hashing.
    for builder in ("build_finite_state_trials", "build_vector_trials", "build_crn_trials"):
        _wrap_function(tracer, parallel, builder, "harness.spec")
    _wrap_method(tracer, parallel.TrialSpec, "cache_key", "harness.spec")

    # engine construction and its nested table compile / backend load.
    _wrap_function(tracer, selection, "build_engine", "engine.build", count_nested=False)
    _wrap_method(tracer, crn_compile.CompiledCRN, "build", "engine.build", count_nested=False)
    _wrap_method(tracer, VectorSimulator, "__init__", "engine.build", count_nested=False)
    _wrap_function(tracer, compiled, "compile_transition_table", "protocols.table_compile")
    _replace_everywhere(resolve_backend, tracer.span("backend.load", resolve_backend))
    for kernel in ("batched_kernel", "tau_leap_kernel", "finite_round_kernel"):
        _wrap_method(tracer, ArrayBackend, kernel, "backend.load")
    _wrap_function(tracer, crn_compile, "compile_crn", "crn.compile")

    # engine advance, with the batched engine's batch/fallback split.
    batched_advance = tracer.span(
        "engine.advance", BatchedCountSimulator.run_interactions
    )

    def run_interactions(self, count):
        batched, fallback = self.batched_batches, self.fallback_batches
        try:
            return batched_advance(self, count)
        finally:
            tracer.add("backend.batched_batches", self.batched_batches - batched)
            tracer.add("backend.fallback_batches", self.fallback_batches - fallback)

    BatchedCountSimulator.run_interactions = functools.wraps(
        BatchedCountSimulator.run_interactions
    )(run_interactions)
    _wrap_method(tracer, MultiscaleSimulator, "run_interactions", "engine.advance")

    # convergence checks: the predicate handed to the shared run loop, and
    # the vector protocol's all_done.
    original_loop = running.run_until_predicate

    @functools.wraps(original_loop)
    def run_until_predicate(simulator, predicate, *args, **kwargs):
        return original_loop(
            simulator, tracer.span("engine.check", predicate), *args, **kwargs
        )

    _replace_everywhere(original_loop, run_until_predicate)
    _wrap_method(tracer, LogSizeVectorProtocol, "all_done", "engine.check")

    # vector engine rounds.
    _wrap_method(tracer, RoundScheduler, "draw_round", "scheduler.draw_round")
    _wrap_method(tracer, LogSizeVectorProtocol, "apply_round", "core.apply_round")

    # store.
    _wrap_method(tracer, SqliteStore, "__init__", "store.open")
    _wrap_method(tracer, SqliteStore, "claim", "store.claim")
    _wrap_method(tracer, SqliteStore, "append", "store.append")
    _wrap_method(tracer, SqliteStore, "pending", "store.pending")
    timed_get = tracer.span("store.get", SqliteStore.get)

    def get(self, key):
        record = timed_get(self, key)
        if record is not None:
            tracer.add("store.replays", 1)
        return record

    SqliteStore.get = functools.wraps(SqliteStore.get)(get)

    # sweep driver: its own loop, poll sleeps, the pool, and each trial.
    original_run_trials = parallel.run_trials
    timed_run_trials = tracer.span("harness.driver", original_run_trials)

    @functools.wraps(original_run_trials)
    def run_trials(specs, workers=1, **kwargs):
        start = time.monotonic()
        try:
            return timed_run_trials(specs, workers=workers, **kwargs)
        finally:
            tracer.add("run_trials_s", time.monotonic() - start)
            tracer.add("workers", workers)

    _replace_everywhere(original_run_trials, run_trials)
    parallel.time = _TimedSleep(tracer)

    timed_trial = tracer.span("harness.trial", parallel.run_trial)

    @functools.wraps(parallel.run_trial)
    def run_trial(spec):
        start = time.monotonic()
        try:
            return timed_trial(spec)
        finally:
            tracer.add("trial_s", time.monotonic() - start)
            if tracer.role == "worker":
                tracer.write()

    parallel.run_trial = run_trial

    pool_class = multiprocessing.pool.Pool
    for method in ("__init__", "terminate", "join"):
        setattr(pool_class, method, tracer.span("harness.pool", getattr(pool_class, method)))
    original_apply_async = pool_class.apply_async

    @functools.wraps(original_apply_async)
    def apply_async(self, *args, **kwargs):
        dispatched = time.monotonic()
        result = original_apply_async(self, *args, **kwargs)
        result.perfbench_dispatched = dispatched
        return result

    pool_class.apply_async = apply_async
    original_get = multiprocessing.pool.ApplyResult.get

    @functools.wraps(original_get)
    def harvest(self, timeout=None):
        dispatched = getattr(self, "perfbench_dispatched", None)
        if dispatched is not None:
            tracer.add("dispatch_to_harvest_s", time.monotonic() - dispatched)
        return original_get(self, timeout)

    multiprocessing.pool.ApplyResult.get = harvest
    return tracer
