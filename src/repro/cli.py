"""Command-line interface of the reproduction library.

Subcommands
-----------
``repro figure2 --sizes 128,256,512,1024 --runs 3``
    Reproduce the Figure 2 sweep (vectorised engine) and print the table,
    the ASCII plot and optionally a CSV file.
``repro accuracy --sizes 256,1024``
    Theorem 3.1 accuracy table.
``repro states --sizes 256,1024``
    Lemma 3.9 state-complexity table.
``repro termination --sizes 64,128,256``
    Theorem 4.1 experiment: termination-signal time of a uniform dense
    protocol vs a leader-driven protocol.
``repro bounds --n 4096``
    Print the paper's claimed probability bounds for a population size.
``repro simulate --protocol epidemic --n 1000000 --engine batched``
    Run one trial of any registered workload and print its record — the
    record ``repro sweep --runs 1`` stores.  ``--protocol`` names a
    finite-state protocol (any engine; see ``DESIGN.md``, Engine selection)
    or a vector workload that is not finite-state (``figure2``:
    ``Log-Size-Estimation`` to all-done, ``leader-terminating``: Theorem
    3.13; ``--fast`` scales their constants down); ``--crn`` names a reaction
    network.  ``--reaction "L+L -> L+F" --init L:1 --chem-time 5`` simulates
    an ad-hoc network for a fixed chemical duration instead.  ``--telemetry``
    adds the trial's run manifest (phase timings and counters).
``repro sweep --protocol majority --sizes 10000,100000 --runs 10 --workers 4 --cache-dir .repro-cache --resume``
    Multi-size, multi-seed sweep of any registered workload through the
    parallel sweep driver: trials fan out over a worker pool, finished
    trials are appended to a SQLite cache in the directory, and
    ``--resume`` replays cached trials so interrupted or repeated sweeps
    only execute what is missing (see ``DESIGN.md``, Sweep driver).  With
    ``--crn NAME`` the full network (every rate constant) participates in
    the cache key.
``repro simulate/sweep ... --scheduler two-block --scheduler-opt intra=0.95``
    Run under a non-uniform interaction scheduler (see ``repro engines`` for
    the engine × scheduler compatibility matrix and ``DESIGN.md``,
    Schedulers, for the scenario semantics).
``repro simulate/sweep ... --backend native``
    Run this invocation's hot loops through a pluggable array backend
    (numpy reference or cffi-compiled C; sets ``REPRO_BACKEND`` for the
    call).  It changes no record or cache key; an unavailable backend warns
    and falls back to numpy (see ``DESIGN.md``, Array backends).
``repro engines``
    Print the engine × scheduler compatibility matrix, one-line
    descriptions of every registered scheduler, and the array-backend
    availability report.
``repro protocols``
    List every registered workload — finite-state, vector and CRN — with
    its engine compatibility.
``repro crn info [--crn sir]``
    List the CRN workload library, or show one network's species,
    reactions, rate scale and lowerings.  ``repro crn simulate`` and
    ``repro crn sweep`` are ``repro simulate`` and ``repro sweep``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import TYPE_CHECKING, Sequence

# At top level: the modules the parser and `main` need, and the two small
# helpers most verbs format and parse with.  A verb imports the rest of
# what it runs, so `repro sweep --protocol epidemic` loads no CRN, analysis
# or termination module.  `run_trials` and `run_trial` stay module globals
# read at call time: the benchmark's probes rebind them.
from repro._version import __version__
from repro.backend import (
    BACKEND_NAMES,
    ENV_BACKEND,
    backend_availability,
    get_backend,
)
from repro.core.parameters import ProtocolParameters
from repro.engine.scheduler import SCHEDULER_NAMES, get_scheduler_policy
from repro.engine.selection import (
    DEFAULT_SCHEDULERS,
    ENGINE_NAMES,
    engine_scheduler_matrix,
)
from repro.exceptions import ReproError, SimulationError
from repro.harness.parallel import (
    KIND_CRN,
    KIND_FINITE_STATE,
    KIND_VECTOR,
    WORKLOADS,
    TrialSpec,
    get_workload,
    run_trial,
    run_trials,
)
from repro.harness.reporting import format_key_values, format_table
from repro.harness.results import SweepResult
from repro.store import (
    DEFAULT_LEASE_SECONDS,
    StoreError,
    open_cache_dir,
    open_store,
    parse_store_url,
)
from repro.store.base import record_to_dict
from repro.types import Workload
from repro.workloads.populations import parse_size_list

if TYPE_CHECKING:  # pragma: no cover
    from repro.crn.model import CRN

#: The ``--crn`` and ``--mode`` choices: ``sorted(CRN_WORKLOADS)`` and
#: ``CRN_MODES`` spelled out, so building the parser loads no CRN module
#: (``tests/test_cli.py`` holds them equal).
CRN_NAMES = ("approximate-majority", "epidemic", "leader", "predator-prey", "sir")
CRN_MODE_NAMES = ("uniform", "thinned")


def _parameters_from_args(args: argparse.Namespace) -> ProtocolParameters:
    if getattr(args, "fast", False):
        return ProtocolParameters.fast_test()
    return ProtocolParameters.paper()


def _sweep_store_from_args(args: argparse.Namespace, name: str):
    """Resolve ``--store`` / ``--cache-dir`` into a result store (or ``None``).

    ``--store`` opens a shared result store (always resuming — shared
    stores are never cleared, since other drivers may own records in
    them); ``--cache-dir`` opens the local SQLite cache
    ``<DIR>/<name>.sqlite`` (:func:`~repro.store.open_cache_dir`), cleared
    first unless ``--resume`` is given.
    """
    lease = getattr(args, "lease", DEFAULT_LEASE_SECONDS)
    if getattr(args, "store", None):
        if args.cache_dir:
            raise SimulationError("pass either --store or --cache-dir, not both")
        return open_store(args.store, lease_seconds=lease)
    if not args.cache_dir:
        return None
    return open_cache_dir(
        args.cache_dir, name, resume=args.resume, lease_seconds=lease
    )


def _telemetry_from_args(args: argparse.Namespace):
    """Resolve the telemetry flags: switch the recorder to emitting, build
    the progress callback.  Returns ``(progress_view or None)``."""
    from repro.obs import ProgressView, set_telemetry

    spool = getattr(args, "trace_spool", "") or None
    if getattr(args, "telemetry", False) or spool:
        set_telemetry(True, spool_dir=spool)
    return ProgressView() if getattr(args, "progress", False) else None


def _print_telemetry_summary() -> None:
    """One-screen driver-side metrics after a ``--telemetry`` sweep."""
    from repro.obs import RECORDER

    if not RECORDER.enabled:
        return
    snapshot = RECORDER.snapshot()
    interesting = {
        name: value
        for name, value in sorted(snapshot["counters"].items())
        if not name.startswith("engine.interactions")
    }
    timing = {
        name: f"{seconds:.3f}s"
        for name, seconds in sorted(snapshot["timing"].items())
    }
    if interesting or timing:
        print()
        print("telemetry (driver-side totals):")
        print(format_key_values({**interesting, **timing}))
    if RECORDER.spool_dir:
        print(
            f"trace spool: {RECORDER.spool_dir} "
            f"(export: repro trace export --spool {RECORDER.spool_dir} "
            f"--out trace.json)"
        )


def _parse_scheduler_options(pairs: Sequence[str] | None) -> dict:
    """Parse repeated ``--scheduler-opt key=value`` flags.

    Values are coerced to int, then float, falling back to the raw string.
    """
    options: dict = {}
    for pair in pairs or ():
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SimulationError(
                f"malformed --scheduler-opt {pair!r}; expected key=value"
            )
        value: object = raw
        for convert in (int, float):
            try:
                value = convert(raw)
                break
            except ValueError:
                continue
        options[key] = value
    return options


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.harness.figures import reproduce_figure2

    params = _parameters_from_args(args)
    sizes = parse_size_list(args.sizes)
    result = reproduce_figure2(
        population_sizes=sizes,
        runs_per_size=args.runs,
        params=params,
        base_seed=args.seed,
    )
    print("Figure 2 reproduction (convergence time vs population size)")
    print(result.table())
    print()
    print(result.ascii_plot())
    print()
    print(f"max additive error over all runs: {result.max_error_observed():.3f}")
    print(f"non-converged runs: {result.non_converged_runs}")
    slope = result.growth_exponent()
    if slope is not None:
        print(f"least-squares slope of time against log2(n)^2: {slope:.2f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result.to_csv())
        print(f"raw points written to {args.csv}")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.harness.tables import accuracy_table

    params = _parameters_from_args(args)
    table = accuracy_table(
        population_sizes=parse_size_list(args.sizes),
        runs_per_size=args.runs,
        params=params,
        base_seed=args.seed,
    )
    print("Theorem 3.1 accuracy (observed vs claimed additive error)")
    print(table.text)
    return 0


def _cmd_states(args: argparse.Namespace) -> int:
    from repro.harness.tables import state_complexity_table

    params = _parameters_from_args(args)
    table = state_complexity_table(
        population_sizes=parse_size_list(args.sizes),
        params=params,
        base_seed=args.seed,
    )
    print("Lemma 3.9 state complexity (realised field ranges)")
    print(table.text)
    return 0


def _cmd_termination(args: argparse.Namespace) -> int:
    from repro.core.leader_terminating import LeaderTerminatingSizeEstimation
    from repro.protocols.leader_election import NonuniformCounterLeaderElection
    from repro.termination.definitions import TerminationSpec
    from repro.termination.impossibility import termination_time_sweep

    sizes = parse_size_list(args.sizes)

    uniform_spec = TerminationSpec(
        terminated_predicate=lambda state: state.terminated,
        description="uniform counter protocol",
    )
    uniform = termination_time_sweep(
        protocol_factory=lambda: NonuniformCounterLeaderElection(
            counter_threshold=args.threshold
        ),
        spec=uniform_spec,
        population_sizes=sizes,
        runs_per_size=args.runs,
        max_parallel_time=args.budget,
        seed=args.seed,
    )
    # The first sweep has checked --runs and --budget: a bad value is one
    # error line, with no header before it.
    print("Theorem 4.1 experiment: time until the first terminated agent")
    print()
    print(f"(a) uniform dense protocol (counter threshold {args.threshold}):")
    rows = [
        [obs.population_size, obs.mean_time, obs.max_time, obs.termination_probability]
        for obs in uniform
    ]
    print(format_table(["n", "mean time", "max time", "P(terminate)"], rows))
    print()

    print("(b) leader-driven terminating size estimation (Theorem 3.13):")
    leader_spec = TerminationSpec(
        terminated_predicate=lambda state: state.terminated,
        description="leader-driven size estimation",
    )
    leader = termination_time_sweep(
        protocol_factory=lambda: LeaderTerminatingSizeEstimation(
            params=ProtocolParameters.fast_test(),
            phase_count=8,
            termination_rounds_factor=1,
        ),
        spec=leader_spec,
        population_sizes=sizes,
        runs_per_size=args.runs,
        max_parallel_time=args.budget * 20,
        seed=args.seed,
    )
    rows = [
        [obs.population_size, obs.mean_time, obs.max_time, obs.termination_probability]
        for obs in leader
    ]
    print(format_table(["n", "mean time", "max time", "P(terminate)"], rows))
    print()
    print(
        "Expected shape: series (a) stays flat as n grows (Theorem 4.1); "
        "series (b) grows with n (the leader can delay the signal)."
    )
    return 0


#: Flags that only some workload kinds read (argparse dest -> those kinds).
#: Every other check belongs to TrialSpec and the trial builders.
_KIND_FLAGS = {
    "fast": (KIND_VECTOR,),
    "phase_count": (KIND_VECTOR,),
    "max_time": (KIND_FINITE_STATE, KIND_VECTOR),
    "scheduler": (KIND_FINITE_STATE, KIND_VECTOR),
    "scheduler_opt": (KIND_FINITE_STATE, KIND_VECTOR),
    "batch_size": (KIND_FINITE_STATE, KIND_CRN),
    "check_interval": (KIND_FINITE_STATE, KIND_CRN),
    "leap_eps": (KIND_FINITE_STATE, KIND_CRN),
    "regime_thresholds": (KIND_FINITE_STATE, KIND_CRN),
    "chem_time": (KIND_CRN,),
    "mode": (KIND_CRN,),
}


def _engine_options(args: argparse.Namespace) -> dict:
    """The given flags that reach the engine (for vector workloads, the kernel)."""
    names = ("batch_size", "phase_count", "leap_eps", "regime_thresholds")
    return {
        name: getattr(args, name) for name in names if getattr(args, name) is not None
    }


def _check_kind_flags(args: argparse.Namespace, kind: str, name: str) -> None:
    """Reject a flag that workloads of ``kind`` do not read (a flag is given
    when it is not ``None`` or ``False``; ``0`` and ``0.0`` count as given)."""
    for dest, kinds in _KIND_FLAGS.items():
        value = getattr(args, dest)
        if value is not None and value is not False and kind not in kinds:
            flag = "--" + dest.replace("_", "-")
            raise SimulationError(
                f"{flag} does not apply to {kind} workloads such as {name!r} "
                f"(it applies to: {', '.join(kinds)})"
            )


def _workload_from_args(args: argparse.Namespace) -> Workload:
    """The entry ``--protocol`` or ``--crn`` names (default: epidemic)."""
    if args.crn is None:
        return get_workload(args.protocol or "epidemic")
    if args.protocol is not None:
        raise SimulationError("pass either --protocol or --crn, not both")
    from repro.crn.library import get_crn_workload

    return get_crn_workload(args.crn)


def _specs_from_args(
    args: argparse.Namespace, workload: Workload, sizes: Sequence[int], runs: int
) -> list[TrialSpec]:
    """The trials ``repro simulate`` / ``repro sweep`` run for ``workload``."""
    _check_kind_flags(args, workload.kind, workload.name)
    if args.scheduler_opt and args.scheduler is None:
        raise SimulationError("--scheduler-opt requires --scheduler")
    options = {
        "engine": args.engine,
        "max_parallel_time": args.max_time,
        "max_chemical_time": args.chem_time,
        "check_interval": args.check_interval,
        "mode": args.mode,
        "params": ProtocolParameters.fast_test() if args.fast else None,
        "scheduler": args.scheduler,
        "scheduler_options": _parse_scheduler_options(args.scheduler_opt) or None,
        **_engine_options(args),
    }
    given = {key: value for key, value in options.items() if value is not None}
    return workload.trials(sizes, runs, base_seed=args.seed, **given)


def _schedule_label(spec: TrialSpec) -> str:
    """How a trial's interactions are drawn, e.g. ``matching scheduler``."""
    if spec.kind == KIND_CRN:
        return f"{spec.crn_mode} lowering"
    scheduler = spec.scheduler_spec()
    name = DEFAULT_SCHEDULERS[spec.engine] if scheduler is None else scheduler.label()
    return f"{name} scheduler"


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.reaction:
        return _simulate_adhoc(args)
    if args.init or args.seed_init or args.name != "adhoc":
        raise SimulationError(
            "--init, --seed-init and --name describe an ad-hoc --reaction "
            "network; they cannot be combined with a registered workload"
        )
    workload = _workload_from_args(args)
    population_size = (
        workload.default_population if args.n is None else args.n
    )
    (spec,) = _specs_from_args(args, workload, [population_size], 1)
    _telemetry_from_args(args)
    record = run_trial(spec)
    print(
        f"{workload.kind} workload {workload.name!r} on the {spec.engine} engine "
        f"({_schedule_label(spec)}), n={population_size}: {workload.description}"
    )
    print(json.dumps(record_to_dict(record), indent=2, sort_keys=True))
    return 0 if record.converged else 1


def _simulate_adhoc(args: argparse.Namespace) -> int:
    """Run an ad-hoc ``--reaction`` network for exactly ``--chem-time``.

    No convergence predicate exists for an ad-hoc network, so no
    "converged" claim is reported (the exit code only reflects successful
    execution).
    """
    if args.protocol is not None:
        raise SimulationError("pass either --protocol or --reaction, not both")
    crn, _ = _crn_from_args(args)
    _check_kind_flags(args, KIND_CRN, crn.name)
    for flag, given in (
        ("--check-interval", args.check_interval is not None),
        ("--telemetry", args.telemetry),
    ):
        if given:
            raise SimulationError(
                f"{flag} does not apply to an ad-hoc --reaction network: it "
                f"runs for a fixed --chem-time, with no convergence check "
                f"and no trial record"
            )
    if args.mode == "thinned":
        raise SimulationError(
            "an ad-hoc network runs for a fixed --chem-time, which the "
            "thinned lowering cannot honour (its event clock has no "
            "constant mapping to chemical time); use --mode uniform, or "
            "a registered workload with a convergence predicate"
        )
    if args.chem_time is None:
        raise SimulationError(
            "an ad-hoc network needs --chem-time (the chemical duration "
            "to simulate); registered workloads carry a default budget"
        )
    from repro.crn.compile import compile_crn

    compiled = compile_crn(crn)
    engine = args.engine or "batched"
    population_size = 10_000 if args.n is None else args.n
    simulator = compiled.build(
        engine, population_size, seed=args.seed, **_engine_options(args)
    )
    simulator.run_parallel_time(compiled.to_parallel_time(args.chem_time))
    summary = {
        "population_size": population_size,
        "engine": engine,
        "mode": "uniform",
        "rate_scale": compiled.rate_scale,
        "parallel_time": simulator.parallel_time,
        "interactions": simulator.interactions,
    }
    if engine == "multiscale":
        for key, value in simulator.regime_stats().items():
            summary[f"regime[{key}]"] = value
    summary["chemical_time"] = compiled.to_chemical_time(simulator.parallel_time)
    for state, count in sorted(simulator.configuration().items()):
        summary[f"count[{state}]"] = count
    print(f"{compiled.protocol.describe()} on the {engine} engine")
    print(format_key_values(summary))
    return 0


def _print_sweep_summary(result: SweepResult) -> None:
    summaries = result.summary_by_size()
    rows = []
    for size in result.population_sizes():
        summary = summaries.get(size)
        records = result.records_for(size)
        rows.append(
            [
                size,
                len(records),
                sum(1 for record in records if not record.converged),
                result.convergence_rate(size),
                summary.mean if summary else None,
                summary.minimum if summary else None,
                summary.maximum if summary else None,
            ]
        )
    print(
        format_table(
            [
                "n",
                "runs",
                "non-conv",
                "P(converged)",
                "mean time",
                "min time",
                "max time",
            ],
            rows,
        )
    )
    # Multiscale trials carry per-regime work counters in their records
    # (exact SSA events, tau-leaps, ODE steps, regime switches); aggregate
    # them per population size so the sweep output shows where the engine
    # actually spent its events.
    by_size: dict[int, dict[str, int]] = {}
    for record in result.records:
        regime = record.extra.get("regime")
        if regime:
            totals = by_size.setdefault(record.population_size, {})
            for name, value in regime.items():
                totals[name] = totals.get(name, 0) + int(value)
    if by_size:
        print()
        print("multiscale regime totals (summed over runs):")
        print(
            format_table(
                ["n", "exact events", "leaps", "ode steps", "switches"],
                [
                    [
                        size,
                        by_size[size].get("exact_events", 0),
                        by_size[size].get("leaps", 0),
                        by_size[size].get("ode_steps", 0),
                        by_size[size].get("regime_switches", 0),
                    ]
                    for size in sorted(by_size)
                ],
            )
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = parse_size_list(args.sizes)
    workload = _workload_from_args(args)
    specs = _specs_from_args(args, workload, sizes, args.runs)
    name = f"{workload.store_prefix}{workload.name}-{specs[0].engine}"
    store = _sweep_store_from_args(args, name)
    progress_view = _telemetry_from_args(args)
    try:
        result = run_trials(
            specs, workers=args.workers, store=store,
            lease_seconds=args.lease, progress=progress_view,
        )
    finally:
        if progress_view is not None:
            progress_view.close()
        if store is not None:
            store.close()

    print(
        f"sweep of {workload.kind} workload {workload.name!r} on the "
        f"{specs[0].engine} engine ({_schedule_label(specs[0])}; {len(sizes)} "
        f"sizes x {args.runs} runs, workers={args.workers})"
    )
    print(
        f"trials: {len(specs)} total, {result.executed} executed, "
        f"{result.from_cache} from cache"
    )
    if store is not None:
        print(f"store: {store.describe()}")
    print()
    _print_sweep_summary(result)
    _print_telemetry_summary()
    return 0 if all(record.converged for record in result.records) else 1


def _cmd_engines(args: argparse.Namespace) -> int:
    """Print the engine × scheduler compatibility matrix."""
    if getattr(args, "verify", False):
        return _verify_capability_matrix()
    matrix = engine_scheduler_matrix()
    print("engine x scheduler compatibility (* = engine default):")
    rows = []
    for engine in ENGINE_NAMES:
        supported = matrix[engine]
        row = [engine]
        for name in SCHEDULER_NAMES:
            if name not in supported:
                cell = "-"
            elif name == DEFAULT_SCHEDULERS[engine]:
                cell = "yes *"
            else:
                cell = "yes"
            row.append(cell)
        rows.append(row)
    print(format_table(["engine", *SCHEDULER_NAMES], rows))
    print()
    print("schedulers:")
    for name in SCHEDULER_NAMES:
        policy_cls = get_scheduler_policy(name)
        print(f"  {name}: {policy_cls.description}")
        if policy_cls.option_names:
            print(f"      options: {', '.join(policy_cls.option_names)}")
    print()
    print("array backends (--backend NAME; env default: " + ENV_BACKEND + "):")
    availability = backend_availability()
    for name in BACKEND_NAMES:
        reason = availability[name]
        status = "available" if reason is None else f"unavailable: {reason}"
        print(f"  {name}: {get_backend(name).describe()} [{status}]")
    print()
    print(
        "Pick one with --scheduler NAME [--scheduler-opt key=value ...] on "
        "`repro simulate` and `repro sweep`; see DESIGN.md (Schedulers) for "
        "time semantics and paper fidelity.  Backends swap the hot-loop "
        "kernels without changing engine semantics (DESIGN.md, Array "
        "backends); unavailable backends fall back to numpy with a warning."
    )
    return 0


def _verify_capability_matrix() -> int:
    """`repro engines --verify`: every declared cell must be grid-tested."""
    from repro.staticcheck.contracts import (
        capability_matrix_diagnostics,
        declared_backend_cells,
        declared_scheduler_cells,
    )

    diagnostics = capability_matrix_diagnostics(".")
    declared = len(declared_scheduler_cells()) + len(declared_backend_cells())
    if not diagnostics:
        print(
            f"capability matrix verified: all {declared} declared "
            f"(engine x scheduler) and (engine x backend) cells are "
            f"exercised by the cross-engine test grid"
        )
        return 0
    print(
        f"capability matrix verification found {len(diagnostics)} problem(s):",
        file=sys.stderr,
    )
    for diagnostic in diagnostics:
        print(
            f"  {diagnostic.rule} {diagnostic.location}: {diagnostic.message}",
            file=sys.stderr,
        )
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    """`repro check`: run the static analyzers and report diagnostics."""
    from repro.staticcheck import render_json, render_text, run_check

    try:
        diagnostics, code = run_check(
            root=args.root,
            only=args.only or None,
            lint_paths=args.paths or None,
            waiver_file=args.waivers or None,
        )
    except (ValueError, OSError) as error:
        print(f"repro check: error: {error}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    print(render(diagnostics))
    return code


def _cmd_protocols(args: argparse.Namespace) -> int:
    """List every registered workload with its engine compatibility."""
    from repro.crn.library import CRN_WORKLOADS

    rows = [
        [
            workload.name,
            workload.kind,
            ",".join(workload.engines),
            workload.description,
        ]
        for workload in [
            *sorted(WORKLOADS.values(), key=lambda entry: (entry.kind, entry.name)),
            *sorted(CRN_WORKLOADS.values(), key=lambda entry: entry.name),
        ]
    ]
    print("registered workloads:")
    print(format_table(["name", "kind", "engines", "description"], rows))
    print()
    print(
        "run any of them with `repro simulate` or `repro sweep`: protocols "
        "via --protocol NAME, CRN workloads via --crn NAME (the thinned "
        "lowering, --mode thinned, is count/batched only).  `repro engines` "
        "prints the engine x scheduler matrix."
    )
    return 0


def _parse_species_values(text: str | None, flag: str, convert) -> dict:
    """Parse ``SPECIES:VALUE,SPECIES:VALUE`` flags for CRN initial conditions."""
    values: dict = {}
    for entry in (text or "").split(","):
        entry = entry.strip()
        if not entry:
            continue
        species, separator, raw = entry.partition(":")
        if not separator or not species:
            raise SimulationError(
                f"malformed {flag} entry {entry!r}; expected SPECIES:VALUE"
            )
        try:
            values[species.strip()] = convert(raw.strip())
        except ValueError:
            raise SimulationError(
                f"malformed {flag} value {raw!r} for species {species!r}"
            ) from None
    return values


def _crn_from_args(args: argparse.Namespace) -> tuple[CRN, bool]:
    """Resolve the network: a registered workload or an ad-hoc spec.

    Returns ``(crn, registered)``.
    """
    from repro.crn.library import get_crn_workload
    from repro.crn.model import CRN

    reactions = list(args.reaction or [])
    if args.crn is not None:
        if reactions or args.init or args.seed_init:
            raise SimulationError(
                "--crn names a registered workload; ad-hoc --reaction/--init/"
                "--seed-init flags cannot be combined with it"
            )
        return get_crn_workload(args.crn).crn, True
    if not reactions:
        raise SimulationError(
            "no network given: pass --crn NAME (see `repro crn info`) or at "
            "least one --reaction 'A + B -> C + D @ k'"
        )
    fractions = _parse_species_values(args.init, "--init", float)
    seeds = _parse_species_values(args.seed_init, "--seed-init", int)
    return (
        CRN.from_spec(reactions, name=args.name, seeds=seeds, fractions=fractions),
        False,
    )


def _regime_thresholds_arg(text: str) -> tuple[float, float]:
    """Parse ``--regime-thresholds CRITICAL,ODE`` into a float pair."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected CRITICAL,ODE (two comma-separated numbers), got {text!r}"
        )
    try:
        critical, ode = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected CRITICAL,ODE (two comma-separated numbers), got {text!r}"
        ) from None
    return (critical, ode)


def _cmd_crn_info(args: argparse.Namespace) -> int:
    from repro.crn.compile import compile_crn
    from repro.crn.library import CRN_WORKLOADS, get_crn_workload

    if args.crn is None and not args.reaction:
        print("registered CRN workloads (see also `repro protocols`):")
        rows = [
            [
                name,
                len(CRN_WORKLOADS[name].crn.species()),
                len(CRN_WORKLOADS[name].crn.reactions),
                CRN_WORKLOADS[name].default_population,
                CRN_WORKLOADS[name].description,
            ]
            for name in sorted(CRN_WORKLOADS)
        ]
        print(format_table(["name", "species", "reactions", "default n", "description"], rows))
        print()
        print(
            "`repro crn info --crn NAME` shows one network; `repro simulate "
            "--reaction 'A + B -> C + D @ k' ...` runs an ad-hoc one."
        )
        return 0
    crn, registered = _crn_from_args(args)
    uniform = compile_crn(crn)
    thinned = compile_crn(crn, mode="thinned")
    print(crn.describe())
    print()
    print("reactions:")
    for reaction in crn.reactions:
        print(f"  {reaction.text()}")
    print()
    summary = {
        "species": ", ".join(crn.species()),
        "seeds": ", ".join(f"{s}:{c}" for s, c in crn.seeds) or "-",
        "fractions": ", ".join(f"{s}:{w:g}" for s, w in crn.fractions),
        "rate_scale": uniform.rate_scale,
        "uniform lowering engines": ",".join(ENGINE_NAMES),
        "thinned lowering engines": "count,batched",
        "thinned activity rates": ", ".join(
            f"{s}:{r:g}" for s, r in thinned.state_rates
        ),
        "compiled states": uniform.protocol.compiled().num_states,
        "reactive ordered pairs": uniform.protocol.compiled().reactive_pair_count(),
    }
    if registered:
        workload = get_crn_workload(args.crn)
        summary["workload"] = workload.description
        summary["default population"] = workload.default_population
        summary["chemical budget at default n"] = workload.default_budget(
            workload.default_population
        )
    print(format_key_values(summary))
    print()
    print(
        "parallel time = rate_scale x chemical time under the uniform "
        "lowering (DESIGN.md, CRN front-end)."
    )
    return 0


def _cmd_store_serve(args: argparse.Namespace) -> int:
    from repro.store.server import serve_store

    try:
        server = serve_store(
            args.db,
            host=args.host,
            port=args.port,
            lease_seconds=args.lease,
            verbose=args.verbose,
        )
    except OSError as error:
        print(f"repro store serve: error: {error}", file=sys.stderr)
        return 2
    print(f"serving {server.store.describe()} at {server.url}")
    print("point sweep drivers at it with: repro sweep --store " + server.url)
    server.serve_forever()
    server.stop()
    return 0


def _watch_store_status(store, interval: float, iterations: int | None) -> int:
    """Poll ``store.status()`` and render per-driver health until interrupted.

    The snapshot diffing (per-driver completion attribution, lease churn,
    stale alerts) lives in :class:`repro.obs.StatusWatcher`; this loop only
    polls and prints.  ``iterations`` bounds the poll count (None = forever,
    for terminals; tests and scripts pass a finite count).
    """
    import time as _time

    from repro.obs import StatusWatcher

    watcher = StatusWatcher()
    polls = 0
    print(f"watching {store.describe()} every {interval:g}s (ctrl-c to stop)")
    try:
        while iterations is None or polls < iterations:
            status = store.status()
            for line in watcher.update(status):
                print(line)
            sys.stdout.flush()
            polls += 1
            if iterations is not None and polls >= iterations:
                break
            _time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0


def _open_status_store(url: str):
    """Open the store ``repro store status`` reports on, creating nothing.

    A ``sqlite:PATH`` store must already exist: a mistyped path is an
    error, not an empty store left behind.
    """
    spec = parse_store_url(url)
    if spec.scheme == "sqlite" and not os.path.exists(spec.location):
        raise StoreError(f"no sqlite store at {spec.location}")
    return open_store(spec)


def _cmd_store_status(args: argparse.Namespace) -> int:
    store = _open_status_store(args.store)
    if getattr(args, "watch", False):
        try:
            return _watch_store_status(
                store, args.interval, args.iterations
            )
        finally:
            store.close()
    status = store.status()
    print(f"store: {store.describe()}")
    print(
        format_key_values(
            {
                "completed trials": status.completed,
                "leased (in progress)": status.leased,
                "stale leases (reclaimable)": status.stale,
            }
        )
    )
    if status.leases:
        print()
        print("leases:")
        rows = [
            [
                entry.key[:16],
                entry.owner,
                "-" if entry.expires is None else f"{entry.expires:.0f}",
                "STALE" if entry.stale else "live",
            ]
            for entry in status.leases
        ]
        print(format_table(["key", "owner", "expires (unix)", "state"], rows))
    if status.workloads:
        print()
        print("throughput by workload (completed trials):")
        rows = []
        for entry in status.workloads:
            rate = entry.interactions_per_second
            rows.append(
                [
                    entry.workload,
                    str(entry.trials),
                    f"{entry.interactions:,}",
                    f"{entry.wall_seconds:.2f}",
                    "-" if rate is None else f"{rate:,.0f}",
                ]
            )
        print(
            format_table(
                ["workload", "trials", "interactions", "wall s", "inter/s"],
                rows,
            )
        )
    store.close()
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs import export_spool

    try:
        trace = export_spool(args.spool, args.out)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"repro trace export: error: {error}", file=sys.stderr)
        return 2
    events = trace["traceEvents"]
    pids = sorted({event.get("pid") for event in events})
    print(
        f"wrote {args.out}: {len(events)} events from {len(pids)} process(es)"
    )
    print("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing")
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from repro.obs import validate_trace

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"repro trace validate: error: {error}", file=sys.stderr)
        return 2
    problems = validate_trace(trace)
    if problems:
        for problem in problems:
            print(f"INVALID {problem}")
        print(f"{args.trace}: {len(problems)} schema problem(s)")
        return 1
    events = trace.get("traceEvents", [])
    print(f"{args.trace}: valid Chrome trace ({len(events)} events)")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.error_bounds import theorem_3_1_summary

    summary = theorem_3_1_summary(args.n)
    if args.json:
        print(json.dumps(summary, default=str, indent=2))
    else:
        print(f"Claimed bounds of Theorem 3.1 at n = {args.n}")
        print(format_key_values(summary))
    return 0


def _add_network_flags(parser: argparse.ArgumentParser, adhoc: bool) -> None:
    """``--crn NAME`` and, with ``adhoc``, the ad-hoc network flags."""
    parser.add_argument(
        "--crn",
        choices=CRN_NAMES,
        default=None,
        help="registered CRN workload (see `repro crn info`)",
    )
    if not adhoc:
        return
    parser.add_argument(
        "--reaction", action="append", default=None, metavar="SPEC",
        help="ad-hoc reaction 'A + B -> C + D @ k', repeatable "
        "(unimolecular: 'A -> B @ k')",
    )
    parser.add_argument(
        "--init", default="", metavar="SPECIES:FRAC,...",
        help="ad-hoc networks: relative initial fractions, e.g. "
        "'A:0.52,B:0.48'",
    )
    parser.add_argument(
        "--seed-init", default="", metavar="SPECIES:COUNT,...",
        help="ad-hoc networks: exact seeded agent counts, e.g. 'I:1'",
    )
    parser.add_argument(
        "--name", default="adhoc", help="name of an ad-hoc network"
    )


def _add_workload_arguments(parser: argparse.ArgumentParser, sweep: bool) -> None:
    """The flags of ``repro simulate`` (``sweep=False``) and ``repro sweep``.

    One parser serves every workload kind; a kind-specific flag given to a
    workload of another kind is rejected when the trials are built.
    """
    parser.add_argument(
        "--protocol",
        choices=sorted(WORKLOADS),
        default=None,
        help="registered protocol workload (default: epidemic): a "
        "finite-state protocol, or figure2 / leader-terminating on the "
        "vector engine",
    )
    _add_network_flags(parser, adhoc=not sweep)
    if sweep:
        parser.add_argument(
            "--sizes", default="1000,10000,100000",
            help="comma-separated population sizes",
        )
        parser.add_argument(
            "--runs", type=int, default=3, help="runs (seeds) per size"
        )
    else:
        parser.add_argument(
            "--n", type=int, default=None,
            help="population size (default: the workload's, e.g. 100000, or "
            "2000 for leader election; 10000 for an ad-hoc network)",
        )
    parser.add_argument(
        "--engine",
        choices=list(ENGINE_NAMES),
        default=None,
        help="simulation engine (default: vector for vector workloads, "
        "batched otherwise; agent: exact reference; count: per-interaction "
        "counts; batched: multinomial batches, fastest at large n; vector: "
        "numpy matching rounds; multiscale: exact/tau-leap/ODE regimes)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="sweep-level base seed; trial (n index i, run j) runs "
        "spawn_seed(seed, i, j)",
    )
    parser.add_argument(
        "--max-time", type=float, default=None,
        help="per-trial parallel-time budget before a run counts as "
        "non-converged (default: the workload's, e.g. 200 for polylog-time "
        "protocols, 4n for leader election)",
    )
    parser.add_argument(
        "--chem-time", type=float, default=None,
        help="CRN workloads: chemical-time budget (default: the workload's; "
        "an ad-hoc network runs for exactly this duration)",
    )
    parser.add_argument(
        "--check-interval", type=int, default=None,
        help="interactions between predicate checks (default: "
        "engine-chosen; vector workloads check every round)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="batched engine only: interactions per batch (default ~sqrt(n))",
    )
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="array backend for this invocation's hot-loop kernels (sets "
        "$REPRO_BACKEND for the call; default: $REPRO_BACKEND or numpy); it "
        "never changes a record or cache key; unavailable backends fall "
        "back to numpy with a warning — see `repro engines`",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="vector workloads only: use scaled-down protocol constants",
    )
    parser.add_argument(
        "--phase-count", type=int, default=None,
        help="leader-terminating workload only: phases of the leader-driven "
        "clock (paper: 289; small values terminate sooner)",
    )
    parser.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default=None,
        help="interaction scheduler (default: the engine's own — sequential "
        "for agent/count/batched, matching for vector; participates in the "
        "trial cache keys; `repro engines` prints the compatibility matrix)",
    )
    parser.add_argument(
        "--scheduler-opt", action="append", default=None, metavar="KEY=VALUE",
        help="scheduler option, repeatable (e.g. --scheduler two-block "
        "--scheduler-opt intra=0.95)",
    )
    parser.add_argument(
        "--mode", choices=CRN_MODE_NAMES, default=None,
        help="CRN lowering: uniform (default; exact kinetics and times, any "
        "engine) or thinned (exact reaction sequence via state-weighted "
        "rates, fewer null interactions; count or batched engine)",
    )
    parser.add_argument(
        "--leap-eps", type=float, default=None,
        help="multiscale engine only: tau-leap relative-propensity "
        "tolerance (Cao's epsilon; default 0.05, smaller = more exact)",
    )
    parser.add_argument(
        "--regime-thresholds", type=_regime_thresholds_arg, default=None,
        metavar="CRITICAL,ODE",
        help="multiscale engine only: per-species count thresholds — below "
        "CRITICAL a channel fires by exact SSA, above ODE the whole system "
        "integrates deterministically (default 20,1e5)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="emit telemetry: every trial's record gains a run manifest "
        "(spec hash, seed lineage, engine/backend/scheduler resolution, "
        "hot-path counters, timing breakdown) under the 'telemetry' key — "
        "excluded from cache keys, so records stay interchangeable with "
        "plain runs — and a sweep prints the driver-side totals",
    )
    parser.set_defaults(handler=_cmd_sweep if sweep else _cmd_simulate)
    if not sweep:
        return
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, same results either way)",
    )
    parser.add_argument(
        "--cache-dir", default="",
        help="directory of the local result cache, one SQLite file "
        "DIR/<workload>-<engine>.sqlite per sweep, which concurrent drivers "
        "may share (empty: no cache)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay trials already in the cache instead of recomputing "
        "them, importing the DIR/<workload>-<engine>.jsonl shard an earlier "
        "version wrote (without this flag the cache and that shard are "
        "removed first)",
    )
    parser.add_argument(
        "--store", default="",
        help="shared result store URL: sqlite:PATH or http://HOST:PORT (a "
        "`repro store serve` daemon).  Many concurrent drivers may point at "
        "one store and cooperate on the sweep; always resumes, mutually "
        "exclusive with --cache-dir",
    )
    parser.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="--cache-dir and --store: seconds a claimed trial stays owned "
        "before a killed driver's claim is reclaimed (size it above the "
        f"slowest single trial; default {DEFAULT_LEASE_SECONDS:g})",
    )
    parser.add_argument(
        "--trace-spool", default="", metavar="DIR",
        help="spool span-level trace events to per-process JSONL files in "
        "DIR (implies --telemetry); merge into a Perfetto-loadable Chrome "
        "trace with `repro trace export --spool DIR --out FILE`",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live progress line on stderr while the sweep runs "
        "(trials done/executed/cached, throughput, ETA)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Size Estimation and Impossibility of "
            "Termination in Uniform Dense Population Protocols' (PODC 2019)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure2 = subparsers.add_parser("figure2", help="reproduce Figure 2")
    figure2.add_argument("--sizes", default="128,256,512,1024")
    figure2.add_argument("--runs", type=int, default=3)
    figure2.add_argument("--seed", type=int, default=2019)
    figure2.add_argument("--csv", default="", help="optional CSV output path")
    figure2.add_argument("--fast", action="store_true")
    figure2.set_defaults(handler=_cmd_figure2)

    accuracy = subparsers.add_parser("accuracy", help="Theorem 3.1 accuracy table")
    accuracy.add_argument("--sizes", default="256,512,1024")
    accuracy.add_argument("--runs", type=int, default=3)
    accuracy.add_argument("--seed", type=int, default=7)
    accuracy.add_argument("--fast", action="store_true")
    accuracy.set_defaults(handler=_cmd_accuracy)

    states = subparsers.add_parser("states", help="Lemma 3.9 state-complexity table")
    states.add_argument("--sizes", default="256,512,1024")
    states.add_argument("--seed", type=int, default=11)
    states.add_argument("--fast", action="store_true")
    states.set_defaults(handler=_cmd_states)

    termination = subparsers.add_parser(
        "termination", help="Theorem 4.1 termination-time experiment"
    )
    termination.add_argument("--sizes", default="32,64,128")
    termination.add_argument("--runs", type=int, default=3)
    termination.add_argument("--threshold", type=int, default=10)
    termination.add_argument("--budget", type=float, default=200.0)
    termination.add_argument("--seed", type=int, default=0)
    termination.set_defaults(handler=_cmd_termination)

    bounds = subparsers.add_parser("bounds", help="print the claimed bounds for n")
    bounds.add_argument("--n", type=int, default=4096)
    bounds.add_argument("--json", action="store_true")
    bounds.set_defaults(handler=_cmd_bounds)

    engines = subparsers.add_parser(
        "engines",
        help="print the engine x scheduler compatibility matrix",
        description=(
            "Show which interaction schedulers each simulation engine can "
            "run, the per-engine defaults, and every scheduler's options."
        ),
    )
    engines.add_argument(
        "--verify",
        action="store_true",
        help="check that every declared (engine x scheduler) and (engine x "
        "backend) cell is exercised by the cross-engine test grid; exit 1 "
        "and list untested cells otherwise (requires the repo checkout)",
    )
    engines.set_defaults(handler=_cmd_engines)

    check = subparsers.add_parser(
        "check",
        help="static analysis: protocol/CRN semantics, determinism lint, "
        "cache-key and capability-matrix contracts",
        description=(
            "Run the static analyzers (see DESIGN.md, 'Static analysis'). "
            "Exit 0 when every error-severity finding is waived, 1 "
            "otherwise; warnings and info never fail. Committed waivers "
            "live in repro.staticcheck.waivers, each with a justification; "
            "--waivers adds ad-hoc ones from a JSON file."
        ),
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: text)",
    )
    check.add_argument(
        "--only", action="append", default=None, metavar="FAMILY",
        choices=("semantic", "lint", "contracts"),
        help="run only this analyzer family (repeatable; default: all)",
    )
    check.add_argument(
        "--root", default=".",
        help="repository root (default: current directory); lint locations "
        "and waiver prefixes are relative to it",
    )
    check.add_argument(
        "--paths", action="append", default=None, metavar="PATH",
        help="override the determinism lint's target files/directories "
        "(default: src/repro; repeatable)",
    )
    check.add_argument(
        "--waivers", default=None, metavar="FILE",
        help="extra waivers as JSON: "
        '{"waivers": [{"rule": ..., "location": ..., "justification": ...}]}',
    )
    check.set_defaults(handler=_cmd_check)

    protocols = subparsers.add_parser(
        "protocols",
        help="list registered finite-state, vector and CRN workloads",
        description=(
            "Show every registered workload with its kind and the engines it "
            "can run on (mirrors `repro engines` for workloads)."
        ),
    )
    protocols.set_defaults(handler=_cmd_protocols)

    crn = subparsers.add_parser(
        "crn",
        help="declarative CRN front-end: inspect, simulate and sweep networks",
        description=(
            "Specify a protocol as a chemical reaction network — a registered "
            "workload (--crn NAME) or ad-hoc reaction specs — compile it onto "
            "an engine, and simulate mass-action kinetics exactly (see "
            "DESIGN.md, CRN front-end).  `crn simulate` and `crn sweep` are "
            "`repro simulate` and `repro sweep`."
        ),
    )
    crn_sub = crn.add_subparsers(dest="crn_command", required=True)
    crn_info = crn_sub.add_parser(
        "info", help="list CRN workloads or inspect one network"
    )
    _add_network_flags(crn_info, adhoc=True)
    crn_info.set_defaults(handler=_cmd_crn_info)
    _add_workload_arguments(
        crn_sub.add_parser("simulate", help="same as `repro simulate`"), sweep=False
    )
    _add_workload_arguments(
        crn_sub.add_parser("sweep", help="same as `repro sweep`"), sweep=True
    )

    store = subparsers.add_parser(
        "store",
        help="shared result stores: serve one over HTTP, inspect any",
        description=(
            "Distributed-sweep result stores.  `serve` fronts a WAL-mode "
            "SQLite store with a small HTTP daemon so sweep drivers on many "
            "hosts share one store (--store http://HOST:PORT); `status` "
            "summarises completion, leases and throughput of any store URL."
        ),
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_serve = store_sub.add_parser(
        "serve", help="serve a SQLite-backed result store over HTTP"
    )
    store_serve.add_argument(
        "--db", required=True, help="path of the backing SQLite database"
    )
    store_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default loopback; use 0.0.0.0 for other hosts)",
    )
    store_serve.add_argument(
        "--port", type=int, default=8512, help="bind port (0 picks a free one)"
    )
    store_serve.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="server-side default lease duration in seconds",
    )
    store_serve.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    store_serve.set_defaults(handler=_cmd_store_serve)
    store_status = store_sub.add_parser(
        "status",
        help="completed/leased/stale counts and per-workload throughput",
    )
    store_status.add_argument(
        "--store", required=True,
        help="store URL: sqlite:PATH (a --cache-dir cache is "
        "DIR/<workload>-<engine>.sqlite) or http://HOST:PORT; a sqlite "
        "store must already exist",
    )
    store_status.add_argument(
        "--watch", action="store_true",
        help="poll the store and render live distributed-sweep health: "
        "per-driver throughput (attributed by lease hand-off), lease "
        "churn, and stale-lease alerts",
    )
    store_status.add_argument(
        "--interval", type=float, default=2.0,
        help="--watch only: seconds between polls (default 2)",
    )
    store_status.add_argument(
        "--iterations", type=int, default=None,
        help="--watch only: stop after this many polls (default: forever)",
    )
    store_status.set_defaults(handler=_cmd_store_status)

    trace = subparsers.add_parser(
        "trace",
        help="export/validate Chrome trace-event files from telemetry spools",
        description=(
            "Span-level traces: sweeps run with --trace-spool DIR write "
            "per-process trace-event JSONL spools; `export` merges a spool "
            "into one Chrome trace-event JSON file loadable in Perfetto "
            "(https://ui.perfetto.dev) or chrome://tracing, and `validate` "
            "checks any trace file against the event schema."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export", help="merge a spool directory into one Perfetto-loadable file"
    )
    trace_export.add_argument(
        "--spool", required=True,
        help="spool directory written by a --trace-spool sweep",
    )
    trace_export.add_argument(
        "--out", required=True, help="output trace JSON path"
    )
    trace_export.set_defaults(handler=_cmd_trace_export)
    trace_validate = trace_sub.add_parser(
        "validate", help="schema-check a Chrome trace-event JSON file"
    )
    trace_validate.add_argument("trace", help="trace JSON file to validate")
    trace_validate.set_defaults(handler=_cmd_trace_validate)


    _add_workload_arguments(
        subparsers.add_parser(
            "simulate",
            help="run one trial of any registered workload and print its record",
            description=(
                "Run one trial of a registered workload (--protocol NAME or "
                "--crn NAME; `repro protocols` lists them) and print its "
                "record: exactly the record `repro sweep --runs 1` stores for "
                "the same --n and --seed.  An ad-hoc --reaction network runs "
                "for a fixed --chem-time instead.  Exit 0 converged, 1 not "
                "converged, 2 bad options."
            ),
        ),
        sweep=False,
    )
    _add_workload_arguments(
        subparsers.add_parser(
            "sweep",
            help="multi-size, multi-seed sweep with parallel workers and a "
            "resumable cache",
            description=(
                "Sweep a registered workload over population sizes and seeds "
                "through the parallel sweep driver.  Trials are independent "
                "and deterministically seeded, so --workers N produces "
                "record-for-record identical results to --workers 1.  With "
                "--cache-dir, finished trials are appended to a SQLite cache "
                "keyed by a hash of each trial spec (for a CRN, the full "
                "network, every rate constant); --resume replays cached "
                "trials so an interrupted or repeated sweep executes only the "
                "missing ones."
            ),
        ),
        sweep=True,
    )

    return parser


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread while a verb runs (see :func:`main`)."""


def _raise_terminated(signum, frame) -> None:
    raise _Terminated


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    A library error (:class:`~repro.exceptions.ReproError`) raised by any
    verb is bad input: it prints one ``repro <verb>: error: ...`` line on
    stderr and exits 2, distinct from exit 1 ("not converged").  While a
    verb runs, SIGTERM raises in it as Ctrl-C does, so a sweep hands back
    the leases of its unfinished trials and stops its pool; ``main`` then
    returns 143 (128 + SIGTERM) and restores the previous handler.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # --backend is REPRO_BACKEND for this call: the engines and every pool
    # worker read the process's backend, and no trial spec names one.
    prior = os.environ.get(ENV_BACKEND)
    if getattr(args, "backend", None):
        os.environ[ENV_BACKEND] = args.backend
    try:
        previous_handler = signal.signal(signal.SIGTERM, _raise_terminated)
        handles_sigterm = True
    except ValueError:  # not the main thread, which alone handles signals
        handles_sigterm = False
    try:
        return args.handler(args)
    except ReproError as error:
        verb = " ".join(
            getattr(args, dest)
            for dest in ("command", "crn_command", "store_command", "trace_command")
            if getattr(args, dest, None)
        )
        print(f"repro {verb}: error: {error}", file=sys.stderr)
        return 2
    except _Terminated:
        return 128 + signal.SIGTERM
    finally:
        if handles_sigterm:
            # None: the previous handler was not set from Python.
            signal.signal(signal.SIGTERM, previous_handler or signal.SIG_DFL)
        os.environ.pop(ENV_BACKEND, None)
        if prior is not None:
            os.environ[ENV_BACKEND] = prior


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
