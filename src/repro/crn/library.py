"""Library of classic reaction networks and the ``CRN_WORKLOADS`` registry.

Each entry is a :class:`NetworkWorkload`, the :class:`~repro.types.Workload`
of kind ``"crn"``: it pairs a :class:`~repro.crn.model.CRN` with a
convergence predicate (over the count-level engine interface), a default
population and a chemical-time budget, and runs a trial by compiling the
network onto the trial's engine.  Entries run by name through the sweep
driver (``TrialSpec(kind="crn", ...)``), the CLI (``repro simulate/sweep
--crn NAME``, ``repro crn info``) and the benchmarks.  The registry is separate
from :data:`~repro.harness.parallel.WORKLOADS` because ``epidemic`` and
``leader`` name both a protocol and a network.

Budgets are stated in *chemical* time; the trial builders convert them to
parallel-time budgets through the compiled rate scale
(:meth:`~repro.crn.compile.CompiledCRN.to_parallel_time`).

Shipped networks
----------------

``approximate-majority``
    The 3-state Angluin–Aspnes–Eisenstat network: the two opinions erase
    each other through a blank intermediate; converges to the initial
    majority w.h.p. in ``O(log n)`` chemical time.
``epidemic``
    One-way epidemic ``I + S -> I + I`` from a single seeded infection.
``sir``
    Epidemic with unimolecular recovery (``S + I -> I + I @ 2``,
    ``I -> R @ 1``, basic reproduction number 2); converges when the
    infection dies out.
``predator-prey``
    A conserving three-species oscillator (grass/rabbits/foxes, cyclic
    Lotka–Volterra): counts orbit the coexistence point until a random
    extinction absorbs the chain — a workload whose interest is the
    trajectory, not a consensus.
``leader``
    Leader election by duel, ``L + L -> L + F``, from the all-leader
    configuration; needs ``Theta(n)`` chemical time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.crn.model import CRN
from repro.exceptions import SimulationError
from repro.types import KIND_CRN, Workload, lookup_workload

__all__ = [
    "CRN_WORKLOADS",
    "NetworkWorkload",
    "epidemic_extinct_predicate",
    "get_crn_workload",
    "majority_decided_predicate",
    "predator_prey_absorbed_predicate",
    "register_crn_workload",
    "single_leader_predicate",
    "susceptibles_exhausted_predicate",
]


@dataclass(frozen=True, kw_only=True)
class NetworkWorkload(Workload):
    """A reaction network, its initial condition included, with a
    convergence predicate.

    ``default_budget`` maps ``n`` to a *chemical*-time budget, which the
    trial builder converts through the compiled rate scale.  A trial runs
    the network its spec embeds (so every rate constant keys the cache),
    under the spec's own predicate if it has one.
    """

    kind: ClassVar[str] = KIND_CRN
    store_prefix: ClassVar[str] = "crn-"
    crn: CRN | None = None
    predicate: Callable[..., bool] | None = None
    default_budget: Callable[[int], float] | None = None

    def trials(self, population_sizes, runs_per_size, **options) -> list:
        from repro.harness.parallel import build_crn_trials

        return build_crn_trials(
            population_sizes, runs_per_size, crn=self.name, **options
        )

    def check(self, spec) -> None:
        from repro.crn.compile import CRN_MODES

        if not isinstance(spec.crn, CRN):
            raise SimulationError(
                "a crn trial needs the network itself (crn=CRN(...)); the full "
                "spec travels in the trial so it can key the result cache"
            )
        self._check_engine(spec)
        if spec.crn_mode not in CRN_MODES:
            raise SimulationError(
                f"unknown CRN lowering mode {spec.crn_mode!r}; expected one of "
                f"{', '.join(CRN_MODES)}"
            )
        if spec.crn_mode == "thinned" and spec.engine not in ("count", "batched"):
            raise SimulationError(
                f"the thinned CRN lowering targets the state-weighted scheduler, "
                f"which the {spec.engine} engine cannot run; use the count or "
                f"batched engine (or mode='uniform')"
            )
        if spec.scheduler is not None:
            raise SimulationError(
                "crn trials derive their scheduler from the lowering mode; "
                "pass crn_mode='thinned' instead of scheduler=..."
            )
        if spec.protocol is None and spec.predicate is None:
            raise SimulationError(
                "a crn trial needs a convergence predicate: either a registered "
                "CRN workload name (protocol=...) or an explicit predicate"
            )

    def run(self, spec):
        from repro.crn.compile import compile_crn

        compiled = compile_crn(spec.crn, mode=spec.crn_mode)
        simulator = compiled.build(
            spec.engine, spec.population_size, seed=spec.seed,
            **spec.engine_option_dict(),
        )
        converged, convergence_time = self._run_until(
            simulator, spec.predicate or self.predicate, spec
        )
        extra = {
            "engine": spec.engine,
            "interactions": int(simulator.interactions),
            "crn": spec.crn.name,
            "crn_mode": spec.crn_mode,
            "rate_scale": compiled.rate_scale,
            "counts": {
                str(state): int(count)
                for state, count in sorted(simulator.configuration().items())
            },
        }
        if compiled.time_exact and convergence_time is not None:
            extra["chemical_time"] = compiled.to_chemical_time(convergence_time)
        # Multiscale engines expose per-regime work counters (exact events,
        # tau-leaps, ODE steps, switches); sweep summaries aggregate them.
        regime_stats = getattr(simulator, "regime_stats", None)
        if regime_stats is not None:
            extra["regime"] = {
                str(name): int(value) for name, value in regime_stats().items()
            }
        return self._record(spec, converged, convergence_time, extra)


CRN_WORKLOADS: dict[str, NetworkWorkload] = {}


def register_crn_workload(workload: NetworkWorkload) -> NetworkWorkload:
    """Register a named CRN workload (overwrites an existing entry)."""
    CRN_WORKLOADS[workload.name] = workload
    return workload


def get_crn_workload(name: str) -> NetworkWorkload:
    """Look up a registered CRN workload, raising :class:`SimulationError`."""
    return lookup_workload(CRN_WORKLOADS, name, "CRN workload")


# -- predicates (module-level, picklable) ------------------------------------


def majority_decided_predicate(simulator) -> bool:
    """Approximate majority has decided: every agent holds one opinion."""
    n = simulator.population_size
    return simulator.count("A") == n or simulator.count("B") == n


def susceptibles_exhausted_predicate(simulator) -> bool:
    """The one-way epidemic is complete: no susceptible agent remains."""
    return simulator.count("S") == 0


def epidemic_extinct_predicate(simulator) -> bool:
    """The SIR infection has died out (possibly before reaching anyone)."""
    return simulator.count("I") == 0


def predator_prey_absorbed_predicate(simulator) -> bool:
    """The oscillator hit an absorbing boundary (an extinction)."""
    return simulator.count("R") == 0 or simulator.count("F") == 0


def single_leader_predicate(simulator) -> bool:
    """Leader election by duel is done: exactly one leader remains."""
    return simulator.count("L") == 1


# -- the shipped library ------------------------------------------------------


def _register_builtin_crn_workloads() -> None:
    register_crn_workload(
        NetworkWorkload(
            name="approximate-majority",
            crn=CRN.from_spec(
                [
                    "A + B -> A + U",  # the sender's opinion is erased ...
                    "B + A -> B + U",  # ... in either orientation
                    "A + U -> A + A",
                    "B + U -> B + B",
                ],
                name="approximate-majority",
                fractions={"A": 0.52, "B": 0.48},
            ),
            predicate=majority_decided_predicate,
            description=(
                "3-state approximate majority (Angluin-Aspnes-Eisenstat) from "
                "a 52/48 split until consensus"
            ),
            default_population=100_000,
            default_budget=lambda n: 16.0 * max(4.0, math.log2(n)),
        )
    )
    register_crn_workload(
        NetworkWorkload(
            name="epidemic",
            crn=CRN.from_spec(
                ["I + S -> I + I"],
                name="epidemic",
                seeds={"I": 1},
                fractions={"S": 1.0},
            ),
            predicate=susceptibles_exhausted_predicate,
            description="one-way epidemic from a single infected agent",
            default_population=100_000,
            default_budget=lambda n: 8.0 * max(4.0, math.log2(n)),
        )
    )
    register_crn_workload(
        NetworkWorkload(
            name="sir",
            crn=CRN.from_spec(
                [
                    "S + I -> I + I @ 2.0",
                    "I -> R @ 1.0",
                ],
                name="sir",
                seeds={"I": 1},
                fractions={"S": 1.0},
            ),
            predicate=epidemic_extinct_predicate,
            description=(
                "SIR epidemic (R0 = 2) with unimolecular recovery, until the "
                "infection dies out"
            ),
            default_population=100_000,
            default_budget=lambda n: 30.0 + 10.0 * max(4.0, math.log2(n)),
        )
    )
    register_crn_workload(
        NetworkWorkload(
            name="predator-prey",
            crn=CRN.from_spec(
                [
                    "G + R -> R + R @ 1.0",  # rabbits reproduce by grazing
                    "R + F -> F + F @ 1.0",  # foxes reproduce by predation
                    "F -> G @ 1.0",          # foxes die, closing the cycle
                ],
                name="predator-prey",
                fractions={"G": 0.4, "R": 0.4, "F": 0.2},
            ),
            predicate=predator_prey_absorbed_predicate,
            description=(
                "conserving predator-prey oscillator (grass/rabbits/foxes); "
                "'converges' only when a random extinction absorbs it"
            ),
            default_population=10_000,
            default_budget=lambda n: 100.0,
        )
    )
    register_crn_workload(
        NetworkWorkload(
            name="leader",
            crn=CRN.from_spec(
                ["L + L -> L + F"],
                name="leader",
                fractions={"L": 1.0},
            ),
            predicate=single_leader_predicate,
            description="leader election by duel (L + L -> L + F) from all leaders",
            default_population=2_000,
            default_budget=lambda n: 4.0 * n,
        )
    )


_register_builtin_crn_workloads()
