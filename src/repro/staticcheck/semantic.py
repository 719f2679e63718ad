"""Protocol/CRN semantic analysis (rules ``P1xx`` and ``C2xx``).

The paper's producibility machinery (Section 4, ``termination/producibility``)
asks which states a *dense* configuration can ever produce; here the same
closure is generalised into a static analyzer that runs over every registered
protocol and CRN workload:

``P101`` unreachable state
    A declared state no interaction sequence can produce from the initial
    configuration — dead table rows that can hide typos in transition maps.
``P102`` output instability
    Two reachable states that are *mutually inert* (neither ordering of the
    pair has any effective transition) yet disagree on the protocol output.
    A silent (stably terminal) configuration supported on such a pair never
    reaches consensus — exactly the failure mode the paper's stable-output
    definitions rule out.  Protocols whose output is intentionally
    non-consensus (leader election: one ``True`` agent among ``False``
    followers) carry committed waivers.
``P103`` scheduler starvation
    A reachable *reactive* ordered pair whose state-weighted interaction
    rates multiply to zero: the policy can never schedule the pair, so a
    configuration supported on it is absorbing for the scheduler even though
    the protocol still has work to do.  This is the ``inert_rate`` hazard of
    the thinned CRN lowering made checkable.
``P104`` foreign initial state
    ``initial_state`` returns a state outside the declared state set.

``C201`` dead reaction
    A reaction that can never fire from the network's initial condition
    (reactant never present, or an ``A+A`` reaction whose reactant never
    reaches count 2).  Fireability is computed as a monotone fixpoint over
    present/multi species sets — an over-approximation, so every reported
    dead reaction really is dead.
``C202`` unreachable species
    A species never present in any reachable configuration.
``C203`` non-conserving reaction
    Reactant and product arity differ: not expressible as a population-
    protocol interaction (agents are conserved).
``C204`` invalid rate
    Non-positive or non-finite rate constant.
``C205`` extreme rate dynamic range
    ``max rate / min rate`` beyond ``1e6``: the uniform lowering's null-
    interaction padding makes such networks astronomically slow.
``C206`` tau-leap ill-conditioning
    ``max rate / min rate`` beyond ``1e3``: on the multiscale engine the
    fastest channel pins the Cao leap size, so slow channels see a fraction
    of an event per leap and their relative-change error control loses
    resolution — the leap tolerance has to be tightened to compensate.

Reachability here is the count-agnostic closure of
:mod:`repro.termination.producibility` (``Lambda``): it assumes every
reachable state can appear with multiplicity ≥ 2, which is exactly the
paper's dense-configuration regime (Theorem 4.1) and an over-approximation
otherwise — so *unreachable* verdicts are always sound.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

from repro.staticcheck.diagnostics import ERROR, WARNING, Diagnostic

__all__ = [
    "analyze_crn",
    "analyze_protocol",
    "analyze_registries",
    "reachable_indices",
    "sample_initial_states",
    "starvation_diagnostics",
]

#: How many agent ids to probe when sampling initial states.
_INITIAL_SAMPLE = 64

#: C205 threshold: rate ratios beyond this make the uniform lowering crawl.
_RATE_RANGE_LIMIT = 1e6

#: C206 threshold: rate ratios beyond this make tau-leaping ill-conditioned
#: (the fast channel dictates the leap; slow-channel error control degrades).
_TAU_STIFFNESS_LIMIT = 1e3


def sample_initial_states(protocol) -> tuple[Hashable, ...]:
    """Distinct states ``initial_state`` assigns to agents ``0..63``.

    Covers the leader-style special cases (agent 0 seeded differently) and
    fraction-based assignments; protocols with richer initial conditions can
    pass explicit ``initial_states`` to :func:`analyze_protocol`.
    """
    states = []
    for agent_id in range(_INITIAL_SAMPLE):
        state = protocol.initial_state(agent_id)
        if state not in states:
            states.append(state)
    return tuple(states)


def reachable_indices(table, initial: Iterable[int]) -> frozenset[int]:
    """Closure of state indices under the compiled transition relation.

    The dense-configuration closure ``Lambda`` of the producibility analysis:
    every ordered pair over the current set (including a state with itself)
    is assumed schedulable, and both outcome states of every effective
    transition join the set.
    """
    reach = set(initial)
    frontier = list(reach)
    while frontier:
        next_frontier = []
        current = list(reach)
        for r in current:
            for s in current:
                count = int(table.outcome_count[r, s])
                for k in range(count):
                    for produced in (
                        int(table.outcome_receiver[r, s, k]),
                        int(table.outcome_sender[r, s, k]),
                    ):
                        if produced not in reach:
                            reach.add(produced)
                            next_frontier.append(produced)
        frontier = next_frontier
    return frozenset(reach)


def analyze_protocol(
    protocol,
    location: str,
    initial_states: Sequence[Hashable] | None = None,
    check_output_stability: bool = True,
) -> list[Diagnostic]:
    """Run the ``P1xx`` rules over one finite-state protocol."""
    diagnostics: list[Diagnostic] = []
    try:
        table = protocol.compiled()
    except Exception as error:  # ProtocolError or a broken user protocol
        return [
            Diagnostic(
                rule="P100",
                severity=ERROR,
                location=location,
                message=f"transition table failed to compile: {error}",
                hint="fix the protocol's states()/transitions() declarations",
            )
        ]
    if initial_states is None:
        initial_states = sample_initial_states(protocol)
    initial_indices = []
    for state in initial_states:
        if state not in table.index:
            diagnostics.append(
                Diagnostic(
                    rule="P104",
                    severity=ERROR,
                    location=location,
                    message=(
                        f"initial state {state!r} is not in the declared "
                        f"state set"
                    ),
                    hint="add it to states() or fix initial_state()",
                )
            )
        else:
            initial_indices.append(table.index[state])
    reach = reachable_indices(table, initial_indices)
    unreachable = [
        state for index, state in enumerate(table.states) if index not in reach
    ]
    if unreachable:
        rendered = ", ".join(repr(state) for state in unreachable[:5])
        if len(unreachable) > 5:
            rendered += f", ... ({len(unreachable) - 5} more)"
        diagnostics.append(
            Diagnostic(
                rule="P101",
                severity=WARNING,
                location=location,
                message=(
                    f"{len(unreachable)} of {len(table.states)} states are "
                    f"unreachable from the initial configuration: {rendered}"
                ),
                hint=(
                    "dead states often indicate transition-map typos; remove "
                    "them or extend the initial configuration"
                ),
            )
        )
    if check_output_stability:
        ordered = sorted(reach)
        unstable_pairs = []
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if not (table.is_null[a, b] and table.is_null[b, a]):
                    continue
                out_a = protocol.output(table.states[a])
                out_b = protocol.output(table.states[b])
                if out_a != out_b:
                    unstable_pairs.append((table.states[a], table.states[b]))
        if unstable_pairs:
            example_a, example_b = unstable_pairs[0]
            diagnostics.append(
                Diagnostic(
                    rule="P102",
                    severity=WARNING,
                    location=location,
                    message=(
                        f"{len(unstable_pairs)} reachable mutually-inert state "
                        f"pair(s) disagree on output (e.g. {example_a!r} vs "
                        f"{example_b!r}): a silent configuration containing "
                        f"such a pair never reaches output consensus"
                    ),
                    hint=(
                        "add a resolving transition, or waive if the output "
                        "is intentionally non-consensus (e.g. leader election)"
                    ),
                )
            )
    return diagnostics


def starvation_diagnostics(
    table,
    reach: frozenset[int],
    rates: Mapping[Hashable, float],
    location: str,
    default_rate: float = 1.0,
) -> list[Diagnostic]:
    """``P103``: reachable reactive pairs a state-weighted policy never picks."""
    diagnostics = []
    for r in sorted(reach):
        for s in sorted(reach):
            if int(table.outcome_count[r, s]) == 0:
                continue
            rate_r = float(rates.get(table.states[r], default_rate))
            rate_s = float(rates.get(table.states[s], default_rate))
            if rate_r * rate_s == 0.0:
                starved = table.states[r] if rate_r == 0.0 else table.states[s]
                diagnostics.append(
                    Diagnostic(
                        rule="P103",
                        severity=ERROR,
                        location=location,
                        message=(
                            f"reactive pair ({table.states[r]!r}, "
                            f"{table.states[s]!r}) is reachable but state "
                            f"{starved!r} has interaction rate 0: the "
                            f"state-weighted scheduler can never fire it "
                            f"(absorbing configuration)"
                        ),
                        hint=(
                            "give the state a positive rate (the thinned CRN "
                            "lowering floors rates at inert_rate for exactly "
                            "this reason)"
                        ),
                    )
                )
    return diagnostics


def _crn_initial_sets(crn) -> tuple[set, set]:
    """(present, multi) species sets of the network's initial condition."""
    seeds = dict(crn.seeds)
    present = {species for species, count in seeds.items() if count > 0}
    multi = {species for species, count in seeds.items() if count >= 2}
    for species, fraction in dict(crn.fractions).items():
        if fraction > 0:
            present.add(species)
            # A positive fraction of a large population is >= 2 agents.
            multi.add(species)
    return present, multi


def analyze_crn(crn, location: str) -> list[Diagnostic]:
    """Run the ``C2xx`` rules (plus the thinned-lowering ``P103``) over a CRN."""
    diagnostics: list[Diagnostic] = []
    model_valid = True
    rates = []
    for index, reaction in enumerate(crn.reactions):
        reaction_location = f"{location}:reaction[{index}]"
        label = getattr(reaction, "text", lambda: repr(reaction))()
        if len(reaction.reactants) != len(reaction.products):
            model_valid = False
            diagnostics.append(
                Diagnostic(
                    rule="C203",
                    severity=ERROR,
                    location=reaction_location,
                    message=(
                        f"reaction {label} has {len(reaction.reactants)} "
                        f"reactant(s) but {len(reaction.products)} product(s); "
                        f"population protocols conserve agents"
                    ),
                    hint="balance the reaction (pad with an inert species)",
                )
            )
        rate = reaction.rate
        if not isinstance(rate, (int, float)) or not math.isfinite(rate) or rate <= 0:
            model_valid = False
            diagnostics.append(
                Diagnostic(
                    rule="C204",
                    severity=ERROR,
                    location=reaction_location,
                    message=f"reaction {label} has invalid rate {rate!r}",
                    hint="rate constants must be positive finite numbers",
                )
            )
        else:
            rates.append(float(rate))
    if rates and max(rates) / min(rates) > _RATE_RANGE_LIMIT:
        diagnostics.append(
            Diagnostic(
                rule="C205",
                severity=WARNING,
                location=location,
                message=(
                    f"rate constants span a {max(rates) / min(rates):.1e} "
                    f"dynamic range; the uniform lowering pads slow reactions "
                    f"with null interactions proportionally"
                ),
                hint="rescale rates or prefer the thinned lowering",
            )
        )
    if rates and max(rates) / min(rates) > _TAU_STIFFNESS_LIMIT:
        diagnostics.append(
            Diagnostic(
                rule="C206",
                severity=WARNING,
                location=location,
                message=(
                    f"rate constants span a {max(rates) / min(rates):.1e} "
                    f"dynamic range: tau-leaping is ill-conditioned (the "
                    f"fastest channel pins the leap size, so slow channels "
                    f"average under one event per leap and lose error-control "
                    f"resolution)"
                ),
                hint=(
                    "on the multiscale engine, tighten --leap-eps (smaller "
                    "epsilon) to keep slow-channel statistics faithful, or "
                    "run an exact engine"
                ),
            )
        )

    # Fireability fixpoint: which reactions can ever fire, which species can
    # ever be present, starting from seeds + fractions.
    present, multi = _crn_initial_sets(crn)
    pending = list(enumerate(crn.reactions))
    fired: set[int] = set()
    progress = True
    while progress:
        progress = False
        for index, reaction in list(pending):
            reactants = list(reaction.reactants)
            if any(species not in present for species in reactants):
                continue
            if (
                len(reactants) == 2
                and reactants[0] == reactants[1]
                and reactants[0] not in multi
            ):
                continue
            fired.add(index)
            pending.remove((index, reaction))
            progress = True
            for species in reaction.products:
                # Over-approximate counts: anything produced may reach 2.
                present.add(species)
                multi.add(species)
    for index, reaction in pending:
        diagnostics.append(
            Diagnostic(
                rule="C201",
                severity=ERROR,
                location=f"{location}:reaction[{index}]",
                message=(
                    f"reaction {reaction.text()} can never fire from the "
                    f"initial condition (seeds={dict(crn.seeds)}, "
                    f"fractions={dict(crn.fractions)})"
                ),
                hint=(
                    "seed the missing reactant (or remove the reaction); an "
                    "A+A reaction needs A to reach count 2"
                ),
            )
        )
    unreachable_species = [
        species for species in crn.species() if species not in present
    ]
    if unreachable_species:
        diagnostics.append(
            Diagnostic(
                rule="C202",
                severity=WARNING,
                location=location,
                message=(
                    f"species never present in any reachable configuration: "
                    f"{', '.join(unreachable_species)}"
                ),
                hint="seed them, produce them, or drop them from the network",
            )
        )

    # The thinned lowering's scheduler must still be able to fire every
    # reachable reactive pair (the inert_rate hazard, rule P103).
    if model_valid and not pending:
        from repro.crn.compile import compile_crn

        try:
            compiled = compile_crn(crn, mode="thinned")
        except Exception as error:
            diagnostics.append(
                Diagnostic(
                    rule="C200",
                    severity=ERROR,
                    location=location,
                    message=f"thinned lowering failed to compile: {error}",
                    hint="fix the network definition",
                )
            )
            return diagnostics
        table = compiled.protocol.compiled()
        initial_present, _ = _crn_initial_sets(crn)
        reach = reachable_indices(
            table,
            [table.index[s] for s in initial_present if s in table.index],
        )
        diagnostics.extend(
            starvation_diagnostics(
                table,
                reach,
                dict(compiled.state_rates or {}),
                location=f"{location}:thinned",
            )
        )
    return diagnostics


def analyze_registries() -> list[Diagnostic]:
    """Analyze every registered finite-state workload and CRN workload."""
    from repro.crn.library import CRN_WORKLOADS
    from repro.harness.parallel import KIND_FINITE_STATE, WORKLOADS

    diagnostics: list[Diagnostic] = []
    for name, workload in sorted(WORKLOADS.items()):
        if workload.kind != KIND_FINITE_STATE:
            continue  # vector kernels have no finite transition table
        try:
            protocol = workload.factory()
        except Exception as error:
            diagnostics.append(
                Diagnostic(
                    rule="P100",
                    severity=ERROR,
                    location=f"protocol:{name}",
                    message=f"workload factory failed: {error}",
                    hint="fix the registered factory",
                )
            )
            continue
        diagnostics.extend(analyze_protocol(protocol, location=f"protocol:{name}"))
    for name, workload in sorted(CRN_WORKLOADS.items()):
        diagnostics.extend(analyze_crn(workload.crn, location=f"crn:{name}"))
    return diagnostics
